"""One instrumented round-engine protocol behind every run loop.

Historically the repo reproduced the paper's models with four
independently written loops — :meth:`repro.sim.engine.Simulator.run`
(Theorem 1 and the break-down adversaries of Proposition 7),
:func:`repro.sim.reactive.run_reactive` (Remark 8),
:func:`repro.graphs.exploration.run_graph_bfdn` (Proposition 9) and
:func:`repro.game.play.play_game` (Theorem 3) — each with its own move
validation, round caps, metrics and termination tests.  This module is
the single round-stepping kernel they all plug into now.  A model is a
small protocol:

* :class:`RoundState` — mutable state of the run: billed-round counter,
  completion test, a progress token (so "did anything change?" is one
  comparison) and ``apply`` which executes one synchronous round;
* :class:`Policy` — selects each round's moves (and is told about
  cancelled moves so it can roll back speculative state);
* :class:`Interference` — the unified adversary seam: a *pre-commitment*
  mask (``movable`` — the break-down adversaries of Section 4.2) and a
  *post-commitment* strike (``filter`` — the reactive adversaries of
  Remark 8);
* a list of :class:`RoundObserver` hooks — per-round metrics, trace
  capture, early-stop predicates and progress events for the
  orchestrator's event stream.

The kernel owns, in exactly one place: the wall-clock vs billed-round
accounting, the ``3nD``-style safety caps (:func:`tree_round_cap`,
:func:`graph_round_cap`) and the "nobody moved although everyone could"
quiescence test.  The round body itself lives once, in
:meth:`repro.sim.scheduler.Scheduler.run`; *time* is pluggable through
that class's hooks (``start``, ``offer``, ``settle``, ``quiescent``,
``finish``).  ``SyncRoundScheduler`` (the default) offers every movable
robot every round; ``AsyncEventScheduler`` offers the robots whose
per-robot clocks tick next, driven by speed schedules (the asynchronous
model of arXiv:2507.15658).  A future model is one new ``Policy`` +
``Interference`` (and, if it needs its own notion of time, a
``Scheduler`` with those hooks), not a fifth hand-rolled loop.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
)

logger = logging.getLogger(__name__)

#: Version tag of the round-stepping kernel, recorded per bench row so a
#: snapshot can be traced to the engine that produced it.  Bump on any
#: change to round semantics or the loop/scheduler dispatch.
#: engine-v3 = the clock moved behind the Scheduler seam: one round body
#: in ``Scheduler.run``, each clock a set of hooks (sync semantics
#: unchanged from engine-v2).
ENGINE_VERSION = "engine-v3"

# Stop reasons reported in :class:`RunOutcome`.
STOP_COMPLETE = "complete"
STOP_QUIESCENT = "quiescent"
STOP_CAP = "cap"
STOP_OBSERVER = "observer"


# ---------------------------------------------------------------------
# Safety caps (the paper's termination argument, derived once)
# ---------------------------------------------------------------------

def tree_round_cap(n: int, depth: int, slack: int = 0) -> int:
    """The ``3 n D`` termination bound for tree exploration, plus slack.

    The paper's termination argument (proof of Theorem 1): every billed
    round moves at least one robot, each of the ``n - 1`` edges is first
    traversed once, and every excursion of depth ``d <= D`` pays at most
    ``2d`` travel rounds per explored edge plus the final return — so
    ``3 n max(D, 1)`` rounds strictly over-approximates any legal run.
    ``slack`` absorbs per-caller extras (tiny trees, adversary horizons).
    """
    return 3 * n * max(depth, 1) + slack


def graph_round_cap(num_edges: int, radius: int, k: int, slack: int = 100) -> int:
    """Safety cap for graph exploration (Proposition 9's accounting).

    Every edge is traversed at most twice as a tree edge and at most
    twice more when closed (``6 m``), plus re-anchoring travel bounded by
    ``3 (D + 1)^2`` per robot.
    """
    return 6 * num_edges + 3 * (radius + 1) ** 2 * (k + 2) + slack


class RoundCapExceeded(RuntimeError):
    """A run overran its billed or wall-clock round cap."""


# ---------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------

class RoundState(ABC):
    """Mutable state stepped by the :class:`RoundEngine`.

    Implementations wrap the model's own state object (an
    ``Exploration``, a ``GraphExploration``, an ``UrnBoard``) and expose
    the four things the kernel needs: apply one round, count billed
    rounds, test completion, and summarise progress as a token.
    """

    @abstractmethod
    def apply(self, moves: Any, movable: Optional[Set[int]]) -> Any:
        """Execute one synchronous round; returns the round's events."""

    @abstractmethod
    def billed_rounds(self) -> int:
        """Rounds billed so far (rounds in which somebody moved)."""

    @abstractmethod
    def is_complete(self) -> bool:
        """The model's success criterion (exploration / game over)."""

    @abstractmethod
    def progress_token(self) -> Any:
        """A comparable snapshot; two equal tokens mean "nothing changed"."""

    def team(self) -> Optional[Set[int]]:
        """The full agent set, or ``None`` for models without agents."""
        return None

    def executed_moves(self) -> int:
        """Agent moves executed so far, counted by ``apply``."""
        return 0


class Policy(ABC):
    """Selects each round's moves for a :class:`RoundState`."""

    name = "policy"

    def attach(self, state: RoundState) -> None:
        """Called once before the first round."""

    @abstractmethod
    def select_moves(self, state: RoundState, movable: Optional[Set[int]]) -> Any:
        """Select this round's moves (shape is model-specific)."""

    def observe(self, state: RoundState, events: Any) -> None:
        """Called after each round with the events ``apply`` returned."""

    def handle_blocked(self, state: RoundState, agent: int, move: Any) -> None:
        """A post-commitment strike cancelled ``agent``'s selected move;
        roll back any speculative state committed in ``select_moves``."""


class Interference(ABC):
    """Unified adversary seam: pre-commitment masks + post-commitment
    strikes.

    Subsumes both adversary families of the paper:
    ``BreakdownAdversary.allowed`` (Section 4.2 — the adversary decides
    *before* seeing the moves) maps to :meth:`movable`, and
    ``ReactiveAdversary.block`` (Remark 8 — the adversary observes the
    selected moves first) maps to :meth:`filter`.
    """

    #: Rounds after which the adversary stops interfering; adapters use
    #: it to pad wall-clock caps and quiescence grace periods.
    horizon: int = 0

    def movable(self, t: int, state: RoundState) -> Optional[Set[int]]:
        """Agents allowed to move at wall-clock round ``t`` (pre-commit);
        ``None`` means everyone."""
        return state.team()

    def filter(self, t: int, state: RoundState, moves: Any) -> Set[int]:
        """Agents whose *selected* moves are struck out (post-commit).

        Dropping any subset of a legal synchronous move set leaves a
        legal move set (per-round dangling-edge selections are distinct),
        so the surviving moves always execute without error.
        """
        return set()


class NoInterference(Interference):
    """The standard model: everyone moves, nothing is struck."""


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one kernel round (handed to every observer)."""

    #: Wall-clock index of this round (0-based).
    t: int
    #: Billed-round counter before / after ``apply``.
    billed_before: int
    billed: int
    #: Moves as selected by the policy (pre-strike).
    moves: Any
    #: Agents whose moves the interference struck out.
    struck: Set[int]
    #: Pre-commitment mask this round (``None`` = everyone).
    movable: Optional[Set[int]]
    #: Progress token before ``apply`` (e.g. the previous positions).
    before: Any
    #: Whether the state changed this round.
    progressed: bool
    #: Model-specific events returned by ``apply`` (e.g. reveals).
    events: Any = None

    def __init__(
        self,
        t: int,
        billed_before: int,
        billed: int,
        moves: Any,
        struck: Set[int],
        movable: Optional[Set[int]],
        before: Any,
        progressed: bool,
        events: Any = None,
    ):
        # One record per round: filling ``__dict__`` in one call costs
        # less than half of the generated frozen ``__init__``'s one
        # ``object.__setattr__`` per field.  Keep in step with the fields.
        self.__dict__.update(
            t=t,
            billed_before=billed_before,
            billed=billed,
            moves=moves,
            struck=struck,
            movable=movable,
            before=before,
            progressed=progressed,
            events=events,
        )

    def surviving_moves(self) -> Any:
        """The moves that actually executed (selected minus struck)."""
        if not self.struck:
            return self.moves
        return {i: m for i, m in self.moves.items() if i not in self.struck}


class RoundObserver:
    """Instrumentation hook notified once per kernel round.

    Subclass and override any of the four methods; observers must not
    mutate the state.  ``should_stop`` may return a reason string to
    terminate the run early (reported as ``observer:<reason>``).
    """

    #: Observers that set this to True receive :meth:`on_phase_times`
    #: each round; the engine only pays for clock reads when at least one
    #: attached observer asks for them, so the default path stays free.
    wants_phase_timing = False

    #: Observers that set this to True accept a single :meth:`on_batch`
    #: call summarising a whole run instead of per-round ``on_round``
    #: records.  The array fast path only skips materialising per-round
    #: records when *every* attached observer is batch-capable; with any
    #: per-round observer attached the run takes the scheduler loop, so
    #: such observers always see every round.  The telemetry observers
    #: (:class:`~repro.obs.metrics.MetricsObserver`,
    #: :class:`~repro.obs.budget.BudgetObserver`) and
    #: :class:`~repro.perf.timing.TimingObserver` are batch-capable.
    supports_batch = False

    def on_attach(self, state: RoundState) -> None:
        """Called once before the first round."""

    def on_round(self, state: RoundState, record: RoundRecord) -> None:
        """Called after every round with its :class:`RoundRecord`."""

    def on_batch(self, state: RoundState, summary: Dict[str, Any]) -> None:
        """Whole-run summary from the array fast path (only when
        ``supports_batch``).  ``on_stop`` still follows.

        The dict holds ``rounds``, ``billed``, ``reveals``, ``moves``
        (mover moves), ``idle`` (idle robot-rounds of billed rounds) and
        ``reanchors`` (re-anchor calls), each counted as :meth:`on_round`
        would have counted it, plus ``backend`` (``"array"``) and
        ``phases`` (select/apply/observe seconds; the fused loop bills
        all of its time to ``apply``)."""

    def on_phase_times(
        self, select_s: float, apply_s: float, observe_s: float
    ) -> None:
        """Per-phase wall time of the round that is about to be reported
        via :meth:`on_round` (only called when ``wants_phase_timing``):
        move selection (mask + policy + strikes), ``state.apply``, and
        ``policy.observe``."""

    def should_stop(self, state: RoundState, record: RoundRecord) -> Optional[str]:
        """Return a reason string to stop the run after this round."""
        return None

    def on_stop(self, state: RoundState, outcome: "RunOutcome") -> None:
        """Called once when the run terminates."""


@dataclass(frozen=True)
class RunOutcome:
    """Kernel-level accounting of one run.

    ``wall_rounds`` advances every executed round (including rounds in
    which every robot was blocked); ``billed_rounds`` only advances when
    somebody moved — the do-while convention of Algorithm 1.  Equality
    holds exactly when no round was fully stalled.
    """

    wall_rounds: int
    billed_rounds: int
    stop_reason: str


# ---------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------

@dataclass
class RoundEngine:
    """The single round-stepping loop every model adapter drives.

    Per round: consult the interference's pre-commitment mask, let the
    policy select moves, let the interference strike a subset (rolling
    each cancelled move back through ``Policy.handle_blocked``), apply
    the survivors, notify observers, then run the termination tests —
    completion, observer early-stop, quiescence, and the round caps —
    that previously lived (inconsistently) in four separate loops.

    Parameters
    ----------
    stop_when_complete:
        Check ``state.is_complete()`` before each round and stop with
        ``"complete"`` (the adversarial models' success criterion).
    billed_stop:
        Graceful billed-round budget: stop (don't raise) once
        ``state.billed_rounds()`` reaches it — the game's cap semantics.
    billed_cap / wall_cap:
        Hard safety caps; overrunning either raises
        :class:`RoundCapExceeded` with ``cap_message``'s text.
    quiescence_grace:
        Wall-clock rounds during which quiescence does not terminate the
        run (reactive adversaries may legitimately stall early rounds).
    bill_quiescent_round:
        Whether the final quiescent round advances the wall clock
        (``False`` matches Algorithm 1's unbilled final all-stay round).
    scheduler:
        Who owns the clock (see :mod:`repro.sim.scheduler`).  ``None``
        (the default) means the lockstep global round clock
        (``SyncRoundScheduler``); an ``AsyncEventScheduler`` drives
        per-robot clocks from a speed schedule instead.

    :meth:`run` picks the loop from the configuration itself: a run
    inside the flat-array envelope (plain BFDN on a tree, synchronous
    clock, only batch-capable observers; see
    :mod:`repro.sim.array_backend`) takes the array fast path, every
    other run the scheduler's round body.  Both produce the same
    result, so there is nothing to choose.
    """

    state: RoundState
    policy: Policy
    interference: Interference = field(default_factory=NoInterference)
    observers: Sequence[RoundObserver] = ()
    stop_when_complete: bool = False
    billed_stop: Optional[int] = None
    billed_cap: Optional[int] = None
    wall_cap: Optional[int] = None
    quiescence_grace: int = 0
    bill_quiescent_round: bool = False
    cap_message: Optional[Callable[[int, int], str]] = None
    scheduler: Optional[Any] = None

    def run(self) -> RunOutcome:
        """Drive the state to termination and return the accounting."""
        from .array_backend import ArrayBackend

        outcome = ArrayBackend.instance().execute(self)
        if outcome is not None:
            return outcome
        scheduler = self.scheduler
        if scheduler is None:
            from .scheduler import SyncRoundScheduler

            scheduler = SyncRoundScheduler()
        return scheduler.run(self)


# ---------------------------------------------------------------------
# Stock observers
# ---------------------------------------------------------------------

class RoundLog(RoundObserver):
    """Keeps every :class:`RoundRecord` (optionally the last ``limit``)."""

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self.records: List[RoundRecord] = []

    def on_attach(self, state: RoundState) -> None:
        """Reset the log for a fresh run."""
        self.records = []

    def on_round(self, state: RoundState, record: RoundRecord) -> None:
        """Append the record, evicting the oldest past ``limit``."""
        self.records.append(record)
        if self.limit is not None and len(self.records) > self.limit:
            del self.records[0]


def _is_mover(move: Any) -> bool:
    """Whether a selected move is an actual move (not a stay)."""
    return isinstance(move, tuple) and bool(move) and move[0] != "stay"


class InterferenceCounter(RoundObserver):
    """Counts blocked vs executed *mover* moves across the run.

    Reproduces the accounting of the reactive harness: a struck move
    counts as blocked only if it was an actual move (not a stay), and a
    surviving non-stay move counts as executed.
    """

    def __init__(self) -> None:
        self.blocked_moves = 0
        self.executed_moves = 0

    def on_attach(self, state: RoundState) -> None:
        """Reset the counters for a fresh run."""
        self.blocked_moves = 0
        self.executed_moves = 0

    def on_round(self, state: RoundState, record: RoundRecord) -> None:
        """Accumulate this round's blocked and executed mover counts."""
        moves = record.moves
        if not isinstance(moves, dict):
            return
        for agent, move in moves.items():
            if not _is_mover(move):
                continue
            if agent in record.struck:
                self.blocked_moves += 1
            else:
                self.executed_moves += 1


class EarlyStop(RoundObserver):
    """Stops the run once ``predicate(state, record)`` holds."""

    def __init__(
        self,
        predicate: Callable[[RoundState, RoundRecord], bool],
        reason: str = "early-stop",
    ):
        self.predicate = predicate
        self.reason = reason

    def should_stop(self, state: RoundState, record: RoundRecord) -> Optional[str]:
        """Return the configured reason once the predicate holds."""
        return self.reason if self.predicate(state, record) else None


class ProgressEvents(RoundObserver):
    """Feeds per-round progress into the orchestrator's event stream.

    Every ``every`` rounds (and once at termination) the observer calls
    ``sink`` with a dict event shaped like the orchestrator's
    ``SweepEvent`` payloads: ``kind="progress"``, the run's ``label``,
    the wall/billed round counters and a detail string.  Pass
    ``ProgressTracker``-backed sinks via
    :func:`repro.orchestrator.events.progress_sink`.
    """

    def __init__(
        self,
        sink: Callable[[Dict[str, Any]], None],
        label: str = "",
        every: int = 100,
    ):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.sink = sink
        self.label = label
        self.every = every

    def _emit(self, record_t: int, billed: int, detail: str) -> None:
        self.sink(
            {
                "kind": "progress",
                "label": self.label,
                "wall_round": record_t,
                "billed_round": billed,
                "detail": detail,
            }
        )

    def on_round(self, state: RoundState, record: RoundRecord) -> None:
        """Emit a progress event every ``every`` rounds."""
        if (record.t + 1) % self.every == 0:
            self._emit(record.t + 1, record.billed, "in progress")

    def on_stop(self, state: RoundState, outcome: RunOutcome) -> None:
        """Emit the final progress event with the stop reason."""
        self._emit(outcome.wall_rounds, outcome.billed_rounds, outcome.stop_reason)


__all__ = [
    "ENGINE_VERSION",
    "STOP_CAP",
    "STOP_COMPLETE",
    "STOP_OBSERVER",
    "STOP_QUIESCENT",
    "EarlyStop",
    "Interference",
    "InterferenceCounter",
    "NoInterference",
    "Policy",
    "ProgressEvents",
    "RoundCapExceeded",
    "RoundEngine",
    "RoundLog",
    "RoundObserver",
    "RoundRecord",
    "RoundState",
    "RunOutcome",
    "graph_round_cap",
    "tree_round_cap",
]
