"""Live theorem-budget monitoring: the paper's proofs as runtime checks.

The paper's guarantees bound quantities that the engine can measure
*while a run is in flight*: Theorem 1 bounds the billed rounds of BFDN
(``2n/k + D^2 (min(log Delta, log k) + 3)``), Lemma 2 bounds the
re-anchors at any interior depth (``k (min(log Delta, log k) + 3)``),
Theorem 3 bounds the urn game's steps and Proposition 9 the graph
engine's rounds.  Historically these were checked after a run finished;
:class:`BudgetObserver` measures each one every round, keeps its
tightest margin, and emits a structured ``violation`` telemetry event at
the exact round a bound is crossed (on the array fast path: at the
run's terminal round).

:func:`budgets_for_scenario` derives the applicable guards from a built
scenario: an adversary-free tree or async-tree scenario gets the budgets
of its algorithm's :class:`~repro.registry.AlgorithmEntry` (Theorem 1
and Lemma 2 for the BFDN variants, the follow-ups' literature bounds,
none for ``cte`` and ``dfs``), graph scenarios the Proposition 9 budget,
game scenarios the Theorem 3 budget.
"""

from __future__ import annotations

import logging
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .. import registry
from ..sim.runloop import RoundObserver, RoundRecord, RoundState, RunOutcome
from .writer import NullWriter

logger = logging.getLogger(__name__)

#: Tree algorithms monitored against Theorem 1 / Lemma 2 (a view of the
#: registry entries).
THEOREM1_ALGORITHMS = frozenset(
    name for name, entry in registry.ALGORITHM_ENTRIES.items()
    if any(spec.name == "theorem1" for spec in entry.budgets)
)

#: Fixed-recursion-depth BFDN_ell entries, monitored against Theorem 10
#: at their ``ell``.
THEOREM10_ALGORITHMS = {
    name: entry.factory().ell
    for name, entry in registry.ALGORITHM_ENTRIES.items()
    if any(spec.name == "theorem10" for spec in entry.budgets)
}


@dataclass(frozen=True)
class Budget:
    """One monitored bound: a limit and a per-round value function."""

    #: Stable identifier ("theorem1", "lemma2", "theorem3", "proposition9").
    name: str
    limit: float
    #: Measures the bounded quantity after each round.  The quantity
    #: must be cumulative (never decreasing over a run): billed rounds,
    #: worst interior re-anchors and completion time all are.  A
    #: fast-path run measures it only once, after its terminal round,
    #: and still reports the same ``violations`` and ``margin_*`` as a
    #: round-by-round measurement, because a cumulative quantity peaks
    #: at the end of the run.
    value: Callable[[RoundState, RoundRecord], float]
    description: str = ""
    #: The result the limit comes from, or "empirical".
    source: str = ""


@dataclass(frozen=True)
class BudgetViolation:
    """A bound was crossed at wall-clock round ``t``."""

    budget: str
    t: int
    value: float
    limit: float

    @property
    def margin(self) -> float:
        """``limit - value`` (negative by construction)."""
        return self.limit - self.value


class BudgetObserver(RoundObserver):
    """Compares live run quantities against theorem budgets every round.

    Per round, every budget's value is measured and its margin
    (``limit - value``) updated; every ``every`` rounds — and once at
    termination — a ``budget`` telemetry event with the full margin
    vector is emitted.  The first time a margin goes negative the
    observer emits a ``violation`` event *immediately* (same round, not
    at flush time) and records it in :attr:`violations`; each budget
    fires at most once per run.

    Batch-capable: a run on the array fast path measures each budget
    once, on its terminal quiescent round (:meth:`on_batch`).  Its trace
    then holds only the final ``budget`` event, no every-``every`` ones,
    and a violation event carries the terminal round rather than the
    crossing round.  The violation count and margins are unchanged (see
    :attr:`Budget.value`).  Attach any per-round observer to keep the
    run on the scheduler loop and see the crossing round.
    """

    supports_batch = True

    def __init__(
        self,
        budgets: List[Budget],
        writer=None,
        span_id: str = "",
        fingerprint: str = "",
        label: str = "",
        every: int = 100,
    ):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.budgets = list(budgets)
        self.writer = writer if writer is not None else NullWriter()
        self.span_id = span_id
        self.fingerprint = fingerprint
        self.label = label
        self.every = every
        self._reset_run()

    def _reset_run(self) -> None:
        self.violations: List[BudgetViolation] = []
        self._fired: set = set()
        #: Latest margin per budget, and the tightest one so far.
        self._latest: Dict[str, float] = {}
        self._min: Dict[str, float] = {
            budget.name: float("inf") for budget in self.budgets
        }

    # ------------------------------------------------------------------
    def on_attach(self, state: RoundState) -> None:
        """Reset the margins, and any stateful value function, for a fresh run."""
        self._reset_run()
        for budget in self.budgets:
            reset = getattr(budget.value, "reset", None)
            if reset is not None:
                reset()

    def on_round(self, state: RoundState, record: RoundRecord) -> None:
        """Measure every budget and fire violations the moment they occur."""
        self._measure(state, record)
        if (record.t + 1) % self.every == 0 and self.budgets:
            self._flush(record.t, final=False)

    def on_batch(self, state: RoundState, summary: Dict[str, Any]) -> None:
        """Measure every budget once, on the run's terminal round.

        That quiescent round is the only one a fast-path run exposes.
        Every budget quantity is cumulative, so the terminal value is
        the run's maximum: margins and violation counts equal the
        scheduler loop's, only the violation's round is the last one.
        """
        rounds = summary["rounds"]
        if not rounds:
            return
        billed = summary["billed"]
        record = RoundRecord(
            t=rounds - 1, billed_before=billed, billed=billed, moves={},
            struck=set(), movable=None, before=None, progressed=False,
        )
        self._measure(state, record)

    def _measure(self, state: RoundState, record: RoundRecord) -> None:
        """Measure every budget after ``record``'s round, update its
        latest and tightest margins and fire its first violation."""
        t = record.t
        latest = self._latest
        tightest = self._min
        for budget in self.budgets:
            value = float(budget.value(state, record))
            margin = budget.limit - value
            latest[budget.name] = margin
            if margin < tightest[budget.name]:
                tightest[budget.name] = margin
            if margin < 0 and budget.name not in self._fired:
                self._fired.add(budget.name)
                violation = BudgetViolation(
                    budget=budget.name, t=t, value=value, limit=budget.limit,
                )
                self.violations.append(violation)
                logger.warning(
                    "budget violation: %s value %.1f exceeds limit %.1f "
                    "at round %d (%s)", budget.name, value, budget.limit,
                    t, self.label or "unlabelled run",
                )
                self.writer.emit(
                    "violation",
                    span_id=self.span_id,
                    fingerprint=self.fingerprint,
                    label=self.label,
                    data={
                        "budget": budget.name,
                        "t": t,
                        "value": value,
                        "limit": round(budget.limit, 3),
                        "margin": round(margin, 3),
                        "description": budget.description,
                    },
                )

    def on_stop(self, state: RoundState, outcome: RunOutcome) -> None:
        """Flush the final budget event."""
        if self.budgets:
            self._flush(outcome.wall_rounds, final=True)

    # ------------------------------------------------------------------
    def margins(self) -> Dict[str, float]:
        """The latest margin per budget (``limit`` before any round)."""
        return {
            budget.name: self._latest.get(budget.name, budget.limit)
            for budget in self.budgets
        }

    def min_margin(self, name: Optional[str] = None) -> float:
        """The tightest margin seen so far (optionally for one budget)."""
        return min(
            (
                margin
                for budget_name, margin in self._min.items()
                if name is None or budget_name == name
            ),
            default=float("inf"),
        )

    def snapshot(self) -> Dict[str, Any]:
        """Flat summary (merged into orchestrator result rows)."""
        out: Dict[str, Any] = {"violations": len(self.violations)}
        for budget in self.budgets:
            out[f"margin_{budget.name}"] = round(self._min[budget.name], 3)
        return out

    def _flush(self, wall_round: int, final: bool) -> None:
        self.writer.emit(
            "budget",
            span_id=self.span_id,
            fingerprint=self.fingerprint,
            label=self.label,
            data={
                "wall_round": wall_round,
                "final": final,
                "margins": {
                    name: round(margin, 3)
                    for name, margin in self.margins().items()
                },
                "violations": len(self.violations),
            },
        )


# ---------------------------------------------------------------------
# Deriving the applicable budgets from a scenario
# ---------------------------------------------------------------------

def _billed(state: RoundState, record: RoundRecord) -> float:
    return float(record.billed)


def _clock_completion(state: RoundState, record: RoundRecord) -> float:
    """The async completion time (the quantity the async bound caps).

    Asynchronous runs publish an :class:`~repro.sim.scheduler.AsyncClock`
    on the state; the bound holds for the time of the last *progressing*
    traversal, not the batch count.  Falls back to the billed batches
    when no clock is attached (a sync run of an async algorithm).
    """
    clock = getattr(state, "clock", None)
    if clock is not None:
        return float(clock.completion_time)
    return float(record.billed)


@dataclass
class _InteriorReanchors:
    """Incrementally tracks the max re-anchor count over interior depths.

    Lemma 2 bounds re-anchors at every depth; like the result rows, only
    interior depths ``1 <= d <= D - 1`` are held to the bound (depth-0
    anchors are the root, depth-``D`` anchors have no subtree to split).
    """

    max_depth: int
    #: Records counted so far; ``None`` before the first measurement.
    _seen: Optional[int] = None
    _per_depth: TallyCounter = field(default_factory=TallyCounter)
    _worst: int = 0

    def reset(self) -> None:
        """Forget the previous run's counts (the observer's attach)."""
        self._seen = None
        self._per_depth = TallyCounter()
        self._worst = 0

    def __call__(self, state: RoundState, record: RoundRecord) -> float:
        metrics = getattr(getattr(state, "expl", None), "metrics", None)
        if metrics is None:
            return 0.0
        if self._seen is None:
            # The first measurement takes the per-depth counts, so a
            # fast-path run (measured once) never decodes its records.
            counts = metrics.reanchors_per_depth().items()
            self._seen = sum(count for _, count in counts)
        else:
            records = metrics.reanchors
            counts = [(rec.depth, 1) for rec in records[self._seen:]]
            self._seen = len(records)
        per_depth = self._per_depth
        for depth, count in counts:
            if 1 <= depth <= self.max_depth - 1:
                per_depth[depth] += count
                if per_depth[depth] > self._worst:
                    self._worst = per_depth[depth]
        return float(self._worst)


#: Per budget quantity (see :class:`~repro.registry.BudgetSpec`): the
#: scenario kind it is measured in and its value function for one tree.
_QUANTITIES = {
    "billed rounds": ("tree", lambda tree: _billed),
    "interior re-anchors": (
        "tree", lambda tree: _InteriorReanchors(max_depth=tree.depth)
    ),
    "async completion time": ("async-tree", lambda tree: _clock_completion),
}

#: Sources of the budgets that belong to a scenario kind, not an algorithm.
_KIND_SOURCES = {"proposition9": "Proposition 9", "theorem3": "Theorem 3"}


def budget_sources() -> Dict[str, str]:
    """Budget name → source, for every budget a scenario can carry."""
    sources = dict(_KIND_SOURCES)
    for entry in registry.ALGORITHM_ENTRIES.values():
        sources.update((spec.name, spec.source) for spec in entry.budgets)
    return sources


def budgets_for_scenario(built) -> List[Budget]:
    """The theorem budgets applicable to one built scenario.

    ``built`` is a :class:`~repro.scenario.BuiltScenario`; the guards
    mirror the paper's hypotheses, so scenarios outside them (CTE, DFS,
    adversarial runs whose accounting is Proposition 7's, not
    Theorem 1's) return an empty list rather than a vacuous check.
    """
    spec = built.spec
    if spec.kind in ("tree", "async-tree") and spec.adversary is None:
        tree = built.tree
        budgets = []
        for bound in registry.algorithm_entry(spec.algorithm).budgets:
            kind, value = _QUANTITIES[bound.quantity]
            if kind == spec.kind:
                budgets.append(Budget(
                    name=bound.name,
                    limit=bound.limit(
                        tree.n, tree.depth, spec.k, tree.max_degree
                    ),
                    value=value(tree),
                    description=bound.description,
                    source=bound.source,
                ))
        return budgets
    if spec.kind == "graph":
        from ..graphs.exploration import proposition9_bound

        graph = built.graph
        return [Budget(
            name="proposition9",
            limit=proposition9_bound(
                graph.num_edges, graph.radius, spec.k, graph.max_degree
            ),
            value=_billed,
            description="Proposition 9 graph-exploration rounds",
            source=_KIND_SOURCES["proposition9"],
        )]
    if spec.kind == "game":
        from ..bounds.guarantees import theorem3_bound

        return [Budget(
            name="theorem3",
            limit=theorem3_bound(spec.k, built.delta),
            value=_billed,
            description="k min(log Delta, log k) + 2k urn-game steps",
            source=_KIND_SOURCES["theorem3"],
        )]
    return []


__all__ = [
    "Budget",
    "BudgetObserver",
    "BudgetViolation",
    "THEOREM1_ALGORITHMS",
    "THEOREM10_ALGORITHMS",
    "budget_sources",
    "budgets_for_scenario",
]
