"""Pluggable scheduler layer: who owns the clock.

Until this module existed the synchronous round clock was hard-wired
into :class:`~repro.sim.runloop.RoundEngine` — every model stepped in
lockstep, one global round at a time.  Cosson's asynchronous follow-up
(arXiv:2507.15658, "Asynchronous Collective Tree Exploration: a
Distributed Algorithm, and a new Lower Bound") drops that assumption:
agents move at adversarially different speeds and the algorithm must be
distributed.  The engine therefore delegates *time* to a
:class:`Scheduler`.  The round body exists once, in :meth:`Scheduler.run`;
a clock only decides which robots are offered a move and when, through a
handful of hooks:

* :class:`SyncRoundScheduler` — the lockstep global round clock.  It is
  the default and is pinned byte-identical to the pre-refactor engine by
  the golden traces and hypothesis differentials in the test suite.
* :class:`AsyncEventScheduler` — event-driven batches with one clock per
  robot.  A :class:`SpeedSchedule` assigns each robot's next traversal a
  duration in ``(0, 1]`` (the paper's normalisation: the slowest agent
  needs at most one time unit per edge); the scheduler pops the robots
  whose traversals finish earliest, lets the policy move exactly those,
  and re-arms their clocks.  Robots never wait for a global barrier.

Equal finish times are processed as one *batch*, which makes the
``unit`` schedule (every duration exactly ``1.0``) reproduce the
synchronous engine: every batch is the full team at integer times, so
any algorithm runs step-for-step like it does under
:class:`SyncRoundScheduler` (property-tested across all tree families).

Accounting (the per-clock ``moves + idle == rounds`` invariant)
---------------------------------------------------------------
Synchronously, every robot is offered every round, so the per-robot
invariant ``moves_i + idle_i == rounds`` holds against the one global
round counter.  Asynchronously each robot has its own clock: robot ``i``
is offered a move once per *tick* of its own clock, so the invariant
becomes per-clock — ``moves_i + idle_i == ticks_i`` with every tick
classified as exactly one of the two.  :class:`AsyncClock` maintains the
three counters per robot, asserts the identity at termination, and the
global counters remain the batch analogues: ``billed`` advances for
batches in which somebody moved, ``wall`` for every batch.  The unit
schedule collapses ``ticks_i`` back to the global round count, which is
how the synchronous wording is recovered as a special case.

The async scheduler requires ``state.progress_token()`` to be an
indexable per-agent snapshot (true for the tree model, whose token is
the position vector) so it can attribute movement to individual clocks.
"""

from __future__ import annotations

import logging
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Set

from .runloop import (
    STOP_CAP,
    STOP_COMPLETE,
    STOP_OBSERVER,
    STOP_QUIESCENT,
    NoInterference,
    RoundCapExceeded,
    RoundEngine,
    RoundObserver,
    RoundRecord,
    RunOutcome,
    tree_round_cap,
)

logger = logging.getLogger(__name__)


class Scheduler(ABC):
    """Owns the clock: decides which agents act when.

    :meth:`run` is the one round loop of the engine — select, strike,
    apply, observe, record, stop tests, caps — for every clock.  A clock
    only supplies the hooks the loop calls:

    * :meth:`start` — reset per-run state before the first round;
    * :meth:`offer` — the agents offered a move in round ``t``;
    * :meth:`settle` — per-clock bookkeeping after ``apply``, before the
      observers see the round's record;
    * :meth:`quiescent` — the clock's "nobody will move again" test;
    * :meth:`finish` — checks once the run has stopped.

    ``unit``/``units`` name a round of this clock in the cap messages.
    """

    name = "scheduler"
    unit = "round"
    units = "rounds"

    def start(self, engine: RoundEngine) -> None:
        """Prepare a fresh run of ``engine`` (before any attach hook)."""

    @abstractmethod
    def offer(self, t: int, engine: RoundEngine) -> Optional[Set[int]]:
        """The agents offered a move in round ``t`` (``None`` = all)."""

    def settle(
        self, t: int, state: Any, record: RoundRecord, after: Any
    ) -> None:
        """Per-clock bookkeeping for ``record``.

        ``after`` is the state's progress token once the round's moves
        applied.
        """

    @abstractmethod
    def quiescent(self, state: Any, record: RoundRecord) -> bool:
        """Whether the run has settled for good after ``record``."""

    def finish(self) -> None:
        """Called once the loop stops, before the observers' ``on_stop``."""

    def run(self, engine: RoundEngine) -> RunOutcome:
        """Drive ``engine.state`` to termination; return the accounting."""
        self.start(engine)
        state = engine.state
        policy = engine.policy
        observers = list(engine.observers)
        # Phase timing is opt-in per observer; with no taker the loop
        # performs zero clock reads beyond what it always did.
        timed = [obs for obs in observers if obs.wants_phase_timing]
        # Only observers that override ``should_stop`` can stop a run;
        # the base method always answers None.
        stoppers = [
            obs.should_stop for obs in observers
            if type(obs).should_stop is not RoundObserver.should_stop
        ]
        # The body runs once per round (per event batch, asynchronously,
        # where most batches move one robot): every hook and cap it uses
        # is looked up here, once per run.
        offer = self.offer
        settle = self.settle
        quiescent = self.quiescent
        select_moves = policy.select_moves
        observe = policy.observe
        strike = engine.interference.filter
        apply = state.apply
        progress_token = state.progress_token
        billed_rounds = state.billed_rounds
        on_rounds = [obs.on_round for obs in observers]
        check_complete = state.is_complete if engine.stop_when_complete else None
        billed_stop = engine.billed_stop
        billed_cap = engine.billed_cap
        wall_cap = engine.wall_cap
        grace = engine.quiescence_grace
        _t0 = _t1 = _t2 = 0.0
        policy.attach(state)
        for obs in observers:
            obs.on_attach(state)
        t = 0
        # Only ``apply`` bills, so one read per round suffices: a round's
        # ``billed_before`` is the previous round's ``billed``.
        billed = billed_rounds()
        reason: Optional[str] = None
        while True:
            if check_complete is not None and check_complete():
                reason = STOP_COMPLETE
                break
            if billed_stop is not None and billed >= billed_stop:
                reason = STOP_CAP
                logger.warning(
                    "round cap hit: %d billed %s >= cap %d "
                    "(run did not finish on its own)",
                    billed, self.units, billed_stop,
                )
                break

            if timed:
                _t0 = perf_counter()
            movable = offer(t, engine)
            moves = select_moves(state, movable)
            struck = strike(t, state, moves)
            if struck:
                for agent in sorted(struck):
                    if agent in moves:
                        policy.handle_blocked(state, agent, moves[agent])
                surviving = {i: m for i, m in moves.items() if i not in struck}
            else:
                surviving = moves

            before = progress_token()
            billed_before = billed
            if timed:
                _t1 = perf_counter()
            events = apply(surviving, movable)
            if timed:
                _t2 = perf_counter()
            observe(state, events)
            if timed:
                _t3 = perf_counter()
                for obs in timed:
                    obs.on_phase_times(_t1 - _t0, _t2 - _t1, _t3 - _t2)
            after = progress_token()
            billed = billed_rounds()
            record = RoundRecord(
                t=t,
                billed_before=billed_before,
                billed=billed,
                moves=moves,
                struck=struck,
                movable=movable,
                before=before,
                progressed=after != before,
                events=events,
            )
            settle(t, state, record, after)
            for on_round in on_rounds:
                on_round(state, record)

            observer_reason = None
            for should_stop in stoppers:
                observer_reason = should_stop(state, record)
                if observer_reason is not None:
                    break
            if observer_reason is not None:
                t += 1
                reason = f"{STOP_OBSERVER}:{observer_reason}"
                break

            if quiescent(state, record) and t >= grace:
                if engine.bill_quiescent_round:
                    t += 1
                reason = STOP_QUIESCENT
                break

            t += 1
            if (billed_cap is not None and billed > billed_cap) or (
                wall_cap is not None and t > wall_cap
            ):
                message = (
                    engine.cap_message(billed, t)
                    if engine.cap_message is not None
                    else f"run exceeded its {self.unit} cap "
                    f"(billed={billed}, wall={t})"
                )
                raise RoundCapExceeded(message)

        self.finish()
        outcome = RunOutcome(
            wall_rounds=t,
            billed_rounds=billed_rounds(),
            stop_reason=reason,
        )
        for obs in observers:
            obs.on_stop(state, outcome)
        return outcome


class SyncRoundScheduler(Scheduler):
    """The lockstep global round clock (the semantics oracle).

    Every robot the interference leaves movable is offered every round.
    ``RoundEngine`` uses it whenever no scheduler is configured, so every
    synchronous call site runs through this class.
    """

    name = "sync"

    def offer(self, t: int, engine: RoundEngine) -> Optional[Set[int]]:
        """The interference's pre-commitment mask for round ``t``."""
        return engine.interference.movable(t, engine.state)

    def quiescent(self, state: Any, record: RoundRecord) -> bool:
        """Nobody moved although everyone could (no strike, no mask)."""
        return (
            not record.progressed
            and not record.struck
            and record.movable == state.team()
        )


# ---------------------------------------------------------------------
# Speed schedules (the asynchronous adversary)
# ---------------------------------------------------------------------

class SpeedSchedule(ABC):
    """Assigns a duration to each robot's next edge traversal.

    The paper's normalisation: every duration lies in ``(0, 1]`` — the
    slowest agent needs at most one time unit per edge, faster agents
    less.  ``duration(robot, tick)`` must be deterministic in its
    arguments so runs are reproducible from the scenario fingerprint.
    """

    name = "speed"

    @abstractmethod
    def duration(self, robot: int, tick: int) -> float:
        """Duration of robot ``robot``'s ``tick``-th traversal (1-based)."""


class UnitSpeed(SpeedSchedule):
    """Every traversal takes exactly one time unit.

    This is the synchronous model expressed as a speed schedule: all
    robots tick at integer times, every async batch is the full team,
    and any algorithm reproduces its synchronous trace exactly.
    """

    name = "unit"

    def duration(self, robot: int, tick: int) -> float:
        """Always ``1.0``."""
        return 1.0


class AdversarialSlowdown(SpeedSchedule):
    """The paper's adversarial regime: a few robots are maximally slow.

    The first ``slow`` robots move at the normalised worst-case speed
    (duration ``1.0`` per edge); everyone else is ``factor`` times
    faster (duration ``1 / factor``).  This is the schedule that
    separates asynchronous algorithms from round-synchronised ones: a
    global barrier would drag the whole team down to the slow robots'
    clock, while the distributed algorithm lets the fast majority keep
    mining the frontier.
    """

    name = "adversarial-slowdown"

    def __init__(self, slow: int = 1, factor: float = 4.0):
        if slow < 1:
            raise ValueError("slow must be >= 1 (at least one slow robot)")
        if factor < 1.0:
            raise ValueError(
                "factor must be >= 1 (durations are normalised to (0, 1])"
            )
        self.slow = slow
        self.factor = float(factor)

    def duration(self, robot: int, tick: int) -> float:
        """``1.0`` for the ``slow`` victims, ``1/factor`` for the rest."""
        return 1.0 if robot < self.slow else 1.0 / self.factor


class StochasticSpeed(SpeedSchedule):
    """Independent uniform speeds: each traversal draws from
    ``[low, 1.0]``.

    Draws come from one seeded PRNG stream per robot, so durations are
    deterministic per ``(seed, robot, tick)`` and independent of the
    order in which the scheduler asks.
    """

    name = "stochastic"

    def __init__(self, low: float = 0.25, seed: int = 0):
        if not 0.0 < low <= 1.0:
            raise ValueError("low must lie in (0, 1]")
        self.low = float(low)
        self.seed = seed
        self._draws: Dict[int, List[float]] = {}
        # Reseeding one generator per draw gives the same stream as a
        # fresh ``random.Random`` per draw, without the allocation.
        self._rng = random.Random()

    def duration(self, robot: int, tick: int) -> float:
        """Uniform draw in ``[low, 1]``, memoised per ``(robot, tick)``."""
        draws = self._draws.get(robot)
        if draws is None:
            draws = self._draws[robot] = []
        if len(draws) < tick:
            rng = self._rng
            low = self.low
            while len(draws) < tick:
                rng.seed(f"{self.seed}:{robot}:{len(draws)}")
                draws.append(low + (1.0 - low) * rng.random())
        return draws[tick - 1]


# ---------------------------------------------------------------------
# Per-robot clocks
# ---------------------------------------------------------------------

@dataclass
class AsyncClock:
    """Per-robot clock accounting of one asynchronous run.

    The scheduler publishes this on the state as ``state.clock`` so
    observers (metrics, budgets, telemetry) can read per-robot time
    without widening the :class:`~repro.sim.runloop.RoundObserver`
    protocol.  Counters satisfy, per robot ``i``:

    ``moves[i] + idle[i] == ticks[i]``

    — the per-clock form of the synchronous ``moves + idle == rounds``
    invariant (under the unit schedule ``ticks[i]`` equals the global
    round count for every robot, recovering the synchronous wording).
    """

    #: Team size.
    k: int
    #: Each robot's clock: the time at which its current traversal ends.
    times: List[float] = field(default_factory=list)
    #: Ticks (move offers) each robot has received.
    ticks: List[int] = field(default_factory=list)
    #: Ticks on which the robot traversed an edge.
    moves: List[int] = field(default_factory=list)
    #: Ticks on which the robot stayed in place.
    idle: List[int] = field(default_factory=list)
    #: Event batches processed (the async wall clock).
    batches: int = 0
    #: Time at which the last progressing traversal completed — the
    #: quantity the asynchronous guarantee bounds.
    completion_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.times:
            self.times = [0.0] * self.k
        if not self.ticks:
            self.ticks = [0] * self.k
        if not self.moves:
            self.moves = [0] * self.k
        if not self.idle:
            self.idle = [0] * self.k

    def max_time(self) -> float:
        """The latest per-robot clock (the team's elapsed time)."""
        return max(self.times) if self.times else 0.0

    def skew(self) -> float:
        """Spread between the fastest and slowest robot clocks."""
        if not self.times:
            return 0.0
        return max(self.times) - min(self.times)

    def slowest(self) -> int:
        """Index of the robot with the latest clock (ties: lowest id)."""
        if not self.times:
            return 0
        worst = max(self.times)
        return next(i for i, t in enumerate(self.times) if t == worst)

    def check(self) -> None:
        """Assert the per-clock accounting identity for every robot."""
        for i in range(self.k):
            if self.moves[i] + self.idle[i] != self.ticks[i]:
                raise AssertionError(
                    f"per-clock invariant broken for robot {i}: "
                    f"moves={self.moves[i]} + idle={self.idle[i]} "
                    f"!= ticks={self.ticks[i]}"
                )

    def summary(self) -> Dict[str, Any]:
        """JSON-ready clock summary (telemetry ``clock`` event payload)."""
        return {
            "k": self.k,
            "batches": self.batches,
            "completion_time": round(self.completion_time, 9),
            "max_time": round(self.max_time(), 9),
            "skew": round(self.skew(), 9),
            "slowest": self.slowest(),
            "times": [round(t, 9) for t in self.times],
            "ticks": list(self.ticks),
            "moves": list(self.moves),
            "idle": list(self.idle),
        }


class AsyncEventScheduler(Scheduler):
    """Event-driven per-robot clocks (the asynchronous model).

    A priority queue holds each robot's next wake-up time.  Each
    iteration pops *every* robot whose traversal finishes at the current
    minimum time — one batch — offers exactly those robots to the
    policy (as the ``movable`` set), applies the resulting moves, and
    re-arms each ticking robot's clock with its next duration from the
    speed schedule.  Ties break deterministically by robot index.

    Batches play the role of rounds in the engine protocol: every
    observer receives one :class:`~repro.sim.runloop.RoundRecord` per
    batch with ``movable`` set to the ticking robots, so per-round
    instrumentation (metrics, budgets, traces) works unchanged.
    Quiescence generalises the synchronous test: the run stops once
    every robot has ticked since the last progress and all of them
    stayed — under the unit schedule this is exactly "nobody moved
    although everyone could".

    Interference is not supported: the speed schedule *is* the
    asynchronous adversary (arXiv:2507.15658 has no separate breakdown
    or reactive adversary).
    """

    name = "async"
    unit = "batch"
    units = "batches"

    def __init__(self, speeds: SpeedSchedule):
        self.speeds = speeds

    def start(self, engine: RoundEngine) -> None:
        """Validate the engine and publish a fresh clock on its state.

        Every run resets the clock, heap and stalled set, so one instance
        can drive any number of runs.
        """
        if not isinstance(engine.interference, NoInterference):
            raise ValueError(
                "the async scheduler does not support interference; "
                "speed schedules are the asynchronous adversary"
            )
        team = engine.state.team()
        if team is None:
            raise ValueError("the async scheduler requires an agent team")
        self._team = team
        self._clock = AsyncClock(k=len(team))
        engine.state.clock = self._clock  # published for observers and budgets
        self._heap: List[Any] = [(0.0, i) for i in sorted(team)]
        self._stalled: Set[int] = set()
        self._now = 0.0
        self._duration = self.speeds.duration  # called once per tick

    def offer(self, t: int, engine: RoundEngine) -> Set[int]:
        """Pop the batch: every robot whose traversal ends earliest."""
        heap = self._heap
        now = self._now = heap[0][0]
        ticking: Set[int] = set()  # a fresh set every batch, never mutated
        while heap and heap[0][0] == now:
            ticking.add(heappop(heap)[1])
        return ticking

    def settle(
        self, t: int, state: Any, record: RoundRecord, after: Any
    ) -> None:
        """Re-arm each ticking robot's clock and bill its tick.

        Progress tokens are per-agent position snapshots in the tree
        model, so a tick is a move when the robot's entry changed.
        """
        clock = self._clock
        now = self._now
        before = record.before
        movable = record.movable
        duration = self._duration
        heap = self._heap
        ticks = clock.ticks
        progressed_time = 0.0
        # Most batches tick one robot: no need to sort those.
        for i in movable if len(movable) == 1 else sorted(movable):
            tick = ticks[i] = ticks[i] + 1
            ends = now + duration(i, tick)
            if ends <= now:
                raise ValueError(
                    f"speed schedule {self.speeds.name!r} returned a "
                    f"non-positive duration for robot {i}"
                )
            clock.times[i] = ends
            heappush(heap, (ends, i))
            if after[i] != before[i]:
                clock.moves[i] += 1
                progressed_time = max(progressed_time, ends)
            else:
                clock.idle[i] += 1
        clock.batches = t + 1
        if record.progressed:
            self._stalled.clear()
            clock.completion_time = max(clock.completion_time, progressed_time)
        else:
            self._stalled |= record.movable

    def quiescent(self, state: Any, record: RoundRecord) -> bool:
        """Every robot has ticked since the last progress and all stayed.

        The final all-stay batches are unbilled, matching Algorithm 1's
        convention.
        """
        return self._stalled >= self._team

    def finish(self) -> None:
        """Assert the per-clock accounting identity."""
        self._clock.check()


# ---------------------------------------------------------------------
# Front-end: asynchronous tree exploration
# ---------------------------------------------------------------------

@dataclass
class AsyncExplorationResult:
    """Outcome of one asynchronous exploration run.

    ``rounds`` and ``wall_batches`` are the batch analogues of the
    synchronous billed/wall counters; ``clock_time`` is the quantity the
    asynchronous guarantee bounds — the time at which the last
    progressing traversal completed, in normalised time units.
    """

    rounds: int
    wall_batches: int
    clock_time: float
    complete: bool
    all_home: bool
    metrics: Any
    positions: List[int]
    ptree: Any
    clock: AsyncClock
    stop_reason: str

    @property
    def done(self) -> bool:
        """Explored every edge and returned to the root."""
        return self.complete and self.all_home


class AsyncSimulator:
    """Drives an algorithm on a ground-truth tree under per-robot clocks.

    The asynchronous sibling of :class:`~repro.sim.engine.Simulator`:
    same tree/algorithm/team parameters, but time comes from a
    :class:`SpeedSchedule` via the :class:`AsyncEventScheduler` instead
    of the global round barrier.  There is no adversary parameter — the
    speed schedule is the adversary.

    ``max_rounds`` caps *billed batches*.  A batch bills whenever some
    robot moves, and with ``k`` independent clocks up to ``k`` batches
    can carry the work of one synchronous round, so the default cap is
    ``k`` times the synchronous termination bound
    (:func:`~repro.sim.runloop.tree_round_cap`).
    """

    def __init__(
        self,
        tree: Any,
        algorithm: Any,
        k: int,
        speeds: Optional[SpeedSchedule] = None,
        *,
        allow_shared_reveal: bool = True,
        max_rounds: Optional[int] = None,
        observers: Sequence[RoundObserver] = (),
    ):
        self.tree = tree
        self.algorithm = algorithm
        self.k = k
        self.speeds = speeds if speeds is not None else UnitSpeed()
        self.allow_shared_reveal = allow_shared_reveal
        self.max_rounds = (
            max_rounds
            if max_rounds is not None
            else k * tree_round_cap(tree.n, tree.depth, slack=3 * tree.n + 100)
        )
        self.observers = list(observers)

    def run(self) -> AsyncExplorationResult:
        """Run the exploration to termination and return the result."""
        from .engine import AlgorithmPolicy, Exploration, TreeRoundState

        expl = Exploration(self.tree, self.k, self.allow_shared_reveal)
        state = TreeRoundState(expl)
        engine = RoundEngine(
            state=state,
            policy=AlgorithmPolicy(self.algorithm),
            observers=self.observers,
            scheduler=AsyncEventScheduler(self.speeds),
            billed_cap=self.max_rounds,
            # Wall batches exceed billed batches only by trailing all-stay
            # batches, of which quiescence allows at most one per robot.
            wall_cap=self.max_rounds + self.k + 100,
            cap_message=lambda billed, wall: (
                f"{self.algorithm.name} (async/{self.speeds.name}): "
                f"exceeded {self.max_rounds} batches "
                f"(billed={billed}, wall={wall}) "
                f"on tree(n={self.tree.n}, D={self.tree.depth}), k={self.k}"
            ),
        )
        outcome = engine.run()
        clock = state.clock
        root = self.tree.root
        return AsyncExplorationResult(
            rounds=expl.round,
            wall_batches=outcome.wall_rounds,
            clock_time=clock.completion_time,
            complete=expl.ptree.is_complete(),
            all_home=all(p == root for p in expl.positions),
            metrics=expl.metrics,
            positions=list(expl.positions),
            ptree=expl.ptree,
            clock=clock,
            stop_reason=outcome.stop_reason,
        )


__all__ = [
    "AdversarialSlowdown",
    "AsyncClock",
    "AsyncEventScheduler",
    "AsyncExplorationResult",
    "AsyncSimulator",
    "Scheduler",
    "SpeedSchedule",
    "StochasticSpeed",
    "SyncRoundScheduler",
    "UnitSpeed",
]
