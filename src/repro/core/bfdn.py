"""Breadth-First Depth-Next (Algorithm 1 of the paper).

When located at the root, a robot is assigned an *anchor*: an open node
(adjacent to a dangling edge) of minimum depth with the least number of
anchored robots.  The robot walks to its anchor through explored edges
(*breadth-first* moves), then performs *depth-next* moves — traverse an
adjacent dangling edge if one is available and unselected, otherwise go one
step up — until it is back at the root, where it is re-anchored.

Theorem 1: exploration completes and all robots return to the root within
``2n/k + D^2 (min(log Delta, log k) + 3)`` rounds.

This implementation follows the pseudo-code line by line, including the
*sequential* per-round decision order (earlier robots reserve dangling
edges, so two robots never select the same one — Claim 2) and the
convention that ``up`` at the root means "do not move".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set

from ..sim.engine import STAY, UP, Exploration, ExplorationAlgorithm, Move, down, explore
from ..trees.partial import RevealEvent
from .reanchor import LeastLoadedPolicy, ReanchorPolicy


@dataclass(frozen=True)
class Excursion:
    """One root-to-root trip of a robot (the sequences ``x`` of Claim 3).

    Claim 3: ``moves == 2 * anchor_depth + 2 * explores``.
    """

    robot: int
    anchor: int
    anchor_depth: int
    start_round: int
    end_round: int
    moves: int
    explores: int


class BFDN(ExplorationAlgorithm):
    """The Breadth-First Depth-Next collaborative exploration algorithm.

    Parameters
    ----------
    policy:
        Anchor-selection policy; defaults to the paper's least-loaded rule.
        Other policies are ablations and void the Lemma 2 guarantee.
    record_excursions:
        Keep a log of completed root-to-root excursions (used by the tests
        for Claim 3 and by the Lemma 2 analysis).
    """

    name = "BFDN"

    def __init__(
        self,
        policy: Optional[ReanchorPolicy] = None,
        record_excursions: bool = False,
    ):
        self.policy = policy or LeastLoadedPolicy()
        self.record_excursions = record_excursions
        self.excursions: List[Excursion] = []
        # Per-robot state, sized at attach time.
        self._anchors: List[int] = []
        self._stacks: List[List[int]] = []
        self._loads: Dict[int, int] = {}
        self._moves_in_excursion: List[int] = []
        self._explores_in_excursion: List[int] = []
        self._excursion_start: List[int] = []
        # Hot-path caches (pure mirrors of ptree state, never authoritative):
        # sorted dangling ports for *high-degree* nodes, maintained from
        # reveal events so select_moves never re-sorts them; and
        # root->anchor stacks per anchor node, flushed when the working
        # depth advances.
        self._sorted_ports: Dict[int, List[int]] = {}
        self._anchor_paths: Dict[int, List[int]] = {}
        self._anchor_path_depth: Optional[int] = None

    #: Only nodes with more dangling ports than this get an incrementally
    #: maintained sorted-port list.  Below it, re-sorting the handful of
    #: ports each round is cheaper than touching the cache on every
    #: reveal event (measured on the ``bfdn/random-n20000-k64`` bench
    #: case, where an unconditional cache was a ~17% slowdown while the
    #: star cases want the cache badly — their roots re-sort thousands
    #: of ports every round without it).
    PORT_CACHE_MIN_DEGREE = 16

    # ------------------------------------------------------------------
    def attach(self, expl: Exploration) -> None:
        root = expl.tree.root
        k = expl.k
        self._anchors = [root] * k
        self._stacks = [[] for _ in range(k)]
        self._loads = {root: k}
        self._moves_in_excursion = [0] * k
        self._explores_in_excursion = [0] * k
        self._excursion_start = [0] * k
        self.excursions = []
        root_ports = expl.ptree.dangling_ports(root)
        self._sorted_ports = (
            {root: sorted(root_ports)}
            if len(root_ports) > self.PORT_CACHE_MIN_DEGREE
            else {}
        )
        self._anchor_paths = {}
        self._anchor_path_depth = None
        self.policy.reset()
        if expl.ptree.is_open(root):
            self.policy.on_open(root, 0)
            self.policy.on_load_change(root, k)

    def observe(self, expl: Exploration, events: Sequence[RevealEvent]) -> None:
        ports = self._sorted_ports
        cache_min = self.PORT_CACHE_MIN_DEGREE
        for ev in events:
            if ports:
                cached = ports.get(ev.node)
                if cached is not None:
                    # Ports are handed out and revealed in increasing
                    # order, so this removal is from the front.
                    cached.remove(ev.port)
                    if not cached:
                        del ports[ev.node]
            if ev.child_open:
                if ev.child_degree > cache_min:
                    # A fresh node's dangling ports are exactly
                    # 1..degree-1, already in order — no sort needed.
                    ports[ev.child] = list(range(1, ev.child_degree))
                self.policy.on_open(ev.child, expl.ptree.node_depth(ev.child))

    # ------------------------------------------------------------------
    def select_moves(self, expl: Exploration, movable: Set[int]) -> Dict[int, Move]:
        """One round of sequential decisions (lines 5–12 of Algorithm 1).

        Iterating over ``movable`` only (rather than all robots) is exactly
        the Section 4.2 modification for the break-down model; in the
        standard model ``movable`` is always the full team, so the two
        coincide.
        """
        root = expl.tree.root
        ptree = expl.ptree
        positions = expl.positions
        stacks = self._stacks
        sorted_ports = self._sorted_ports
        moves_in_excursion = self._moves_in_excursion
        moves: Dict[int, Move] = {}
        # Per-node iterator over dangling ports, shared by all robots at
        # the node this round: hands out distinct ports in increasing
        # order, which implements "dangling and unselected" (line 20).
        port_iters: Dict[int, Iterator[int]] = {}

        for i in expl.in_robot_order(movable):
            u = positions[i]
            if u == root and not stacks[i]:
                self._reanchor(i, expl)  # rebinds stacks[i]
            stack = stacks[i]
            if stack:
                moves[i] = down(stack.pop())
                moves_in_excursion[i] += 1
                continue
            it = port_iters.get(u)
            if it is None:
                cached = sorted_ports.get(u)
                if cached is None:
                    # Low-degree node: a one-shot sort of its few
                    # ports beats maintaining a cache entry.
                    cached = sorted(ptree.dangling_ports(u))
                it = iter(cached)
                port_iters[u] = it
            port = next(it, None)
            if port is not None:
                moves[i] = explore(port)
                self._explores_in_excursion[i] += 1
                moves_in_excursion[i] += 1
            elif u != root:
                moves[i] = UP
                moves_in_excursion[i] += 1
            else:
                moves[i] = STAY
        return moves

    # ------------------------------------------------------------------
    def _reanchor(self, i: int, expl: Exploration) -> None:
        """Procedure ``Reanchor`` (lines 25–30) plus excursion bookkeeping."""
        ptree = expl.ptree
        root = expl.tree.root

        if self.record_excursions and self._moves_in_excursion[i] > 0:
            old = self._anchors[i]
            self.excursions.append(
                Excursion(
                    robot=i,
                    anchor=old,
                    anchor_depth=ptree.node_depth(old),
                    start_round=self._excursion_start[i],
                    end_round=expl.round,
                    moves=self._moves_in_excursion[i],
                    explores=self._explores_in_excursion[i],
                )
            )
        self._moves_in_excursion[i] = 0
        self._explores_in_excursion[i] = 0
        self._excursion_start[i] = expl.round

        d = ptree.min_open_depth
        if d is None:
            new = root  # the tree is explored (line 30)
        else:
            new = self.policy.choose(ptree, d, self._loads)
        old = self._anchors[i]
        if new != old:
            load = self._loads[old] - 1
            if load:
                self._loads[old] = load
            else:
                del self._loads[old]  # keep the table at <= k live entries
            self.policy.on_load_change(old, load)
            self._loads[new] = self._loads.get(new, 0) + 1
            self.policy.on_load_change(new, self._loads[new])
            self._anchors[i] = new
        if d is not None:
            expl.metrics.log_reanchor(expl.round, i, new, ptree.node_depth(new))
            # Stack the edges that lead to the anchor (line 8), root first.
            # Anchors cluster at the working depth and parent pointers never
            # change once explored, so cache the stack per anchor node and
            # flush the cache when the working depth advances.
            if d != self._anchor_path_depth:
                self._anchor_paths.clear()
                self._anchor_path_depth = d
            stack = self._anchor_paths.get(new)
            if stack is None:
                stack = ptree.path_from_root(new)[:0:-1]
                self._anchor_paths[new] = stack
            self._stacks[i] = list(stack)

    # ------------------------------------------------------------------
    def handle_blocked(self, expl: Exploration, robot: int, move) -> None:
        """Roll back the per-robot state committed for a move that a
        reactive adversary (Remark 8) cancelled: restore the popped
        breadth-first stack entry and the excursion counters."""
        kind = move[0]
        if kind == "stay":
            return
        if kind == "down":
            self._stacks[robot].append(move[1])
        elif kind == "explore":
            self._explores_in_excursion[robot] -= 1
        self._moves_in_excursion[robot] -= 1

    # ------------------------------------------------------------------
    @property
    def anchors(self) -> List[int]:
        """Current anchor of every robot (for tests and invariants)."""
        return list(self._anchors)

    @property
    def loads(self) -> Dict[int, int]:
        """Current number of robots anchored at each node."""
        return dict(self._loads)
