"""Synchronous round-based exploration engine.

This is the paper's formal model (Section 2): at each round every robot
selects an incident edge (or no move); all robots then move simultaneously
and the partially explored tree is updated with the information brought
back by robots that traversed dangling edges.

Moves are small tuples:

* ``STAY``               — do not move (the paper's ``\\bot``);
* ``UP``                 — move to the parent (interpreted as ``STAY`` at the root);
* ``("down", child)``    — move along an explored edge to ``child``;
* ``("explore", port)``  — traverse the dangling ``port`` at the current node.

The engine validates every move against the partial view, so an algorithm
cannot accidentally use information it does not have.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
# Counter.update's own counting loop, minus its per-call Mapping check.
from collections import _count_elements
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..trees.partial import PartialTree, RevealEvent
from ..trees.tree import Tree
from .adversary import BreakdownAdversary, NoBreakdowns
from .metrics import ExplorationMetrics
from .runloop import (
    Interference,
    Policy,
    RoundEngine,
    RoundObserver,
    RoundState,
    tree_round_cap,
)

Move = Tuple
STAY: Move = ("stay",)
UP: Move = ("up",)


def down(child: int) -> Move:
    """Move along an explored edge to the explored child ``child``."""
    return ("down", child)


def explore(port: int) -> Move:
    """Traverse the dangling ``port`` at the robot's current node."""
    return ("explore", port)


class MoveError(ValueError):
    """An algorithm selected an illegal move."""


class ExplorationAlgorithm(ABC):
    """Interface implemented by every exploration strategy.

    ``select_moves`` is called once per round with the exploration state
    and the set of robots the (break-down) adversary allows to move; the
    returned dict maps robot indices to moves.  Robots without an entry
    stay in place.
    """

    name = "abstract"

    def attach(self, expl: "Exploration") -> None:
        """Called once before the first round."""

    @abstractmethod
    def select_moves(self, expl: "Exploration", movable: Set[int]) -> Dict[int, Move]:
        """Select this round's moves."""

    def observe(self, expl: "Exploration", events: Sequence[RevealEvent]) -> None:
        """Called after each round with the reveals that occurred."""

    def handle_blocked(self, expl: "Exploration", robot: int, move: Move) -> None:
        """A *reactive* adversary (Remark 8) cancelled this robot's
        selected move after commitment.  Implementations that mutate state
        inside ``select_moves`` must roll that state back here."""


class Exploration:
    """Mutable state of one collaborative exploration run."""

    def __init__(self, tree: Tree, k: int, allow_shared_reveal: bool = False):
        if k < 1:
            raise ValueError("at least one robot is required")
        self.tree = tree
        self.k = k
        #: When False (the default, matching BFDN's Claim 2) two robots may
        #: not select the same dangling edge in the same round.  CTE's model
        #: permits it, so CTE runs set this to True.
        self.allow_shared_reveal = allow_shared_reveal
        self.ptree = PartialTree(tree.root, tree.degree(tree.root))
        self.positions: List[int] = [tree.root] * k
        self.round = 0
        self.metrics = ExplorationMetrics(k=k)
        self._robots = frozenset(range(k))

    # ------------------------------------------------------------------
    def robots_at(self, v: int) -> List[int]:
        """Robots currently located at node ``v``."""
        return [i for i, p in enumerate(self.positions) if p == v]

    def in_robot_order(self, movable: Set[int]) -> Sequence[int]:
        """The robots of ``movable`` in increasing index order.

        Returns ``range(k)`` when the whole team may move, which saves
        sorting the set every round.
        """
        return range(self.k) if movable == self._robots else sorted(movable)

    def is_done(self) -> bool:
        """The paper's termination condition: explored and everyone home."""
        return self.ptree.is_complete() and all(
            p == self.tree.root for p in self.positions
        )

    # ------------------------------------------------------------------
    def apply(self, moves: Dict[int, Move], movable: Set[int]) -> List[RevealEvent]:
        """Execute one synchronous round.  Returns the reveal events.

        Increments the round counter only if some robot moved, so the
        final all-stay round that triggers termination is not billed,
        matching the do-while loop of Algorithm 1.

        Accounting invariant: over a full run every robot satisfies
        ``moves + idle == billed rounds`` — each billed round a robot
        either moved or is charged one idle round.  The asynchronous
        scheduler keeps the same identity *per robot clock*
        (``clock.moves[i] + clock.idle[i] == clock.ticks[i]``, asserted
        by :meth:`repro.sim.scheduler.AsyncClock.check`): billed time is
        what the guarantees bound, wall time is billed plus the unbilled
        trailing quiescence, on the global and per-robot clocks alike.
        """
        k = self.k
        root = self.tree.root
        positions = self.positions
        new_positions = list(positions)
        # The partial tree's own tables: ``_parent`` holds exactly the
        # explored nodes, ``_dangling`` their untraversed ports.
        parent_of = self.ptree._parent
        dangling = self.ptree._dangling
        reveals: Dict[Tuple[int, int], List[int]] = {}
        moved: List[int] = []
        # One set test covers every robot of the usual round; otherwise
        # each robot is checked in turn so the first offender is reported.
        checked = self._robots.issuperset(moves) and (
            isinstance(movable, (set, frozenset)) and movable.issuperset(moves)
        )

        for i, move in moves.items():
            if not checked:
                if not 0 <= i < k:
                    raise MoveError(f"unknown robot {i}")
                if i not in movable:
                    raise MoveError(f"robot {i} is blocked this round")
            kind = move[0]
            if kind == "stay":
                continue
            u = positions[i]
            if kind == "up":
                if u == root:
                    continue  # up at the root is interpreted as "stay"
                new_positions[i] = parent_of[u]
                moved.append(i)
            elif kind == "down":
                child = move[1]
                if parent_of.get(child) != u:
                    raise MoveError(f"robot {i}: no explored edge {u} -> {child}")
                new_positions[i] = child
                moved.append(i)
            elif kind == "explore":
                port = move[1]
                if port not in dangling[u]:
                    raise MoveError(f"robot {i}: port {port} of {u} is not dangling")
                robots = reveals.get((u, port))
                if robots is None:
                    reveals[(u, port)] = [i]
                else:
                    robots.append(i)
                moved.append(i)
            else:
                raise MoveError(f"robot {i}: unknown move {move!r}")

        events: List[RevealEvent] = []
        if reveals:
            tree = self.tree
            reveal = self.ptree.reveal
            decide = getattr(tree, "decide_degree", None)
            for (u, port), robots in reveals.items():
                if len(robots) > 1 and not self.allow_shared_reveal:
                    raise MoveError(
                        f"robots {robots} selected the same dangling edge "
                        f"({u}, port {port}); forbidden in this model"
                    )
                if decide is not None:
                    # Adaptive adversary (trees.lazy): the node's structure
                    # is fixed only now, knowing how many robots arrive.
                    decide(u, port, len(robots))
                child = tree.port_to(u, port)
                events.append(
                    reveal(u, port, child, tree.degree(child), by_robot=robots[0])
                )
                for i in robots:
                    new_positions[i] = child

        metrics = self.metrics
        if moved:
            self.round += 1
            metrics.rounds = self.round
            metrics.total_moves += len(moved)
            _count_elements(metrics.moves_per_robot, moved)
            if len(moved) < k:
                # A robot is idle in a billed round iff it did not traverse
                # an edge — whether it submitted "stay", "up" at the root
                # (the paper's stay convention), no move at all, or was
                # blocked; ``metrics.idle_per_robot`` is the complement of
                # its moves.
                metrics.idle_rounds += 1
        metrics.reveals += len(events)
        self.positions = new_positions
        return events


class TreeRoundState(RoundState):
    """Adapts an :class:`Exploration` to the runloop protocol."""

    def __init__(self, expl: Exploration):
        self.expl = expl
        self._team = expl._robots

    def apply(self, moves, movable):
        """Execute one synchronous round through the move validator."""
        return self.expl.apply(moves, movable)

    def billed_rounds(self) -> int:
        """Rounds in which at least one robot moved (Algorithm 1's ``t``)."""
        return self.expl.round

    def is_complete(self) -> bool:
        """Every edge explored (robots need not be home)."""
        return self.expl.ptree.is_complete()

    def progress_token(self):
        """Robot positions — in the tree model every effect moves a robot.

        No copy is needed: :meth:`Exploration.apply` never mutates the
        position list, it binds a fresh one, so a token taken before a
        round keeps the positions of that moment.
        """
        return self.expl.positions

    def team(self):
        """All ``k`` robots."""
        return self._team

    def executed_moves(self) -> int:
        """Edges traversed so far (``metrics.total_moves``)."""
        return self.expl.metrics.total_moves


class AlgorithmPolicy(Policy):
    """Adapts an :class:`ExplorationAlgorithm` to the runloop protocol."""

    def __init__(self, algorithm: ExplorationAlgorithm):
        self.algorithm = algorithm
        self.name = algorithm.name

    def attach(self, state: TreeRoundState) -> None:
        """Attach the wrapped algorithm to the exploration state."""
        self.algorithm.attach(state.expl)

    def select_moves(self, state: TreeRoundState, movable) -> Dict[int, Move]:
        """Delegate this round's move selection to the algorithm."""
        return self.algorithm.select_moves(state.expl, movable)

    def observe(self, state: TreeRoundState, events) -> None:
        """Forward the round's reveal events to the algorithm."""
        self.algorithm.observe(state.expl, events)

    def handle_blocked(self, state: TreeRoundState, agent: int, move: Move) -> None:
        """Forward a reactive-adversary cancellation to the algorithm."""
        self.algorithm.handle_blocked(state.expl, agent, move)


class BreakdownInterference(Interference):
    """Wraps a :class:`~repro.sim.adversary.BreakdownAdversary` as the
    runloop's pre-commitment mask (Section 4.2)."""

    def __init__(self, adversary: BreakdownAdversary):
        self.adversary = adversary
        self.horizon = getattr(adversary, "horizon", 0)

    def movable(self, t: int, state: TreeRoundState):
        """The robots the break-down schedule allows to move at ``t``."""
        return self.adversary.allowed(t, len(state.team()))


@dataclass
class ExplorationResult:
    """Outcome of a simulated exploration."""

    rounds: int
    #: Wall-clock rounds including rounds where every robot was blocked
    #: (== ``rounds`` in the standard model, possibly larger under a
    #: break-down adversary).
    wall_rounds: int
    complete: bool
    all_home: bool
    metrics: ExplorationMetrics
    positions: List[int]
    ptree: PartialTree

    @property
    def done(self) -> bool:
        """Explored every edge and returned to the root."""
        return self.complete and self.all_home


class Simulator:
    """Drives an :class:`ExplorationAlgorithm` on a ground-truth tree.

    Parameters
    ----------
    tree:
        The (hidden) tree to explore.
    algorithm:
        The strategy under test.
    k:
        Team size.
    adversary:
        Optional break-down adversary (Section 4.2); defaults to the
        standard model where every robot moves every round.
    stop_when_complete:
        Stop as soon as every edge is explored, without waiting for the
        robots to return (the adversarial model's success criterion).
    max_rounds:
        Safety cap; defaults to the termination bound ``3 n D`` from the
        paper's termination argument (plus slack for tiny trees), via
        :func:`repro.sim.runloop.tree_round_cap`.
    observers:
        Optional :class:`~repro.sim.runloop.RoundObserver` hooks run
        once per round (trace capture, per-round metrics, early stops).
    """

    def __init__(
        self,
        tree: Tree,
        algorithm: ExplorationAlgorithm,
        k: int,
        adversary: Optional[BreakdownAdversary] = None,
        stop_when_complete: bool = False,
        max_rounds: Optional[int] = None,
        allow_shared_reveal: bool = False,
        observers: Sequence[RoundObserver] = (),
    ):
        self.tree = tree
        self.algorithm = algorithm
        self.k = k
        self.adversary = adversary or NoBreakdowns()
        self.stop_when_complete = stop_when_complete
        self.max_rounds = (
            max_rounds
            if max_rounds is not None
            else tree_round_cap(tree.n, tree.depth, slack=3 * tree.n + 100)
        )
        self.allow_shared_reveal = allow_shared_reveal
        self.observers = list(observers)

    def run(self) -> ExplorationResult:
        """Run the exploration to termination and return the result.

        Drives the shared :class:`~repro.sim.runloop.RoundEngine`: the
        wall clock (which paces the break-down adversary) advances every
        round, including rounds where every robot is blocked; the billed
        round counter ``expl.round`` only advances when somebody moves,
        matching the do-while loop of Algorithm 1.
        """
        expl = Exploration(self.tree, self.k, self.allow_shared_reveal)
        horizon = getattr(self.adversary, "horizon", 0)
        engine = RoundEngine(
            state=TreeRoundState(expl),
            policy=AlgorithmPolicy(self.algorithm),
            interference=BreakdownInterference(self.adversary),
            observers=self.observers,
            stop_when_complete=self.stop_when_complete,
            billed_cap=self.max_rounds,
            wall_cap=self.max_rounds + 2 * horizon + 100,
            cap_message=lambda billed, wall: (
                f"{self.algorithm.name}: exceeded {self.max_rounds} rounds "
                f"(billed={billed}, wall={wall}) "
                f"on tree(n={self.tree.n}, D={self.tree.depth}), k={self.k}"
            ),
        )
        outcome = engine.run()
        root = self.tree.root
        return ExplorationResult(
            rounds=expl.round,
            wall_rounds=outcome.wall_rounds,
            complete=expl.ptree.is_complete(),
            all_home=all(p == root for p in expl.positions),
            metrics=expl.metrics,
            positions=list(expl.positions),
            ptree=expl.ptree,
        )
