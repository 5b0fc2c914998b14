"""Live theorem-budget monitoring: the paper's proofs as runtime checks.

The paper's guarantees bound quantities that the engine can measure
*while a run is in flight*: Theorem 1 bounds the billed rounds of BFDN
(``2n/k + D^2 (min(log Delta, log k) + 3)``), Lemma 2 bounds the
re-anchors at any interior depth (``k (min(log Delta, log k) + 3)``),
Theorem 3 bounds the urn game's steps and Proposition 9 the graph
engine's rounds.  Historically these were checked after a run finished;
:class:`BudgetObserver` turns each into a per-round margin series and a
structured ``violation`` telemetry event emitted at the exact round a
bound is crossed.

:func:`budgets_for_scenario` derives the applicable guards from a built
scenario: plain BFDN variants on adversary-free tree scenarios get the
Theorem 1 and Lemma 2 budgets, the fixed-``ell`` recursive entries the
Theorem 10 budget, the follow-up algorithms their literature bounds
(``tree-mining`` — Theorem 10 at the uniform mining depth,
arXiv:2309.07011; ``potential-cte`` — ``2n/k + C D^2``,
arXiv:2311.01354), async-tree scenarios the asynchronous completion-time
budget (``async-cte`` — ``2n/k + C D^2`` in per-robot clock time,
arXiv:2507.15658), graph scenarios the Proposition 9 budget, game
scenarios the Theorem 3 budget.  Algorithms the paper proves nothing
about (``cte``, ``dfs``) get no guard — a budget is an assertion, not a
comparison.
"""

from __future__ import annotations

import logging
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.runloop import RoundObserver, RoundRecord, RoundState, RunOutcome
from .writer import NullWriter

logger = logging.getLogger(__name__)

#: Tree algorithms Theorem 1 / Lemma 2 are proved for (BFDN and the
#: variants that preserve its re-anchoring structure).
THEOREM1_ALGORITHMS = frozenset(
    {"bfdn", "bfdn-wr", "bfdn-shortcut", "bfdn-checked"}
)

#: Fixed-recursion-depth BFDN_ell entries, monitored against Theorem 10
#: at their declared ``ell``.
THEOREM10_ALGORITHMS = {"bfdn-ell2": 2, "bfdn-ell3": 3}


@dataclass(frozen=True)
class Budget:
    """One monitored bound: a limit and a per-round value function."""

    #: Stable identifier ("theorem1", "lemma2", "theorem3", "proposition9").
    name: str
    limit: float
    #: Measures the bounded quantity after each round.
    value: Callable[[RoundState, RoundRecord], float]
    description: str = ""


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


@dataclass
class MarginSample:
    """One point of a budget's running margin series."""

    t: int
    value: float
    margin: float


class BudgetObserver(RoundObserver):
    """Compares live run quantities against theorem budgets every round.

    Per round, every budget's value is measured and its margin
    (``limit - value``) updated; every ``every`` rounds — and once at
    termination — a ``budget`` telemetry event with the full margin
    vector is emitted.  The first time a margin goes negative the
    observer emits a ``violation`` event *immediately* (same round, not
    at flush time) and records it in :attr:`violations`; each budget
    fires at most once per run.
    """

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
        self.series: Dict[str, List[MarginSample]] = {
            budget.name: [] for budget in self.budgets
        }
        self._fired: set = set()
        #: Latest ``(t, value, margin)`` per budget; a :class:`MarginSample`
        #: is only built for the rounds that enter the series.
        self._latest: Dict[str, Tuple[int, float, float]] = {}

    # ------------------------------------------------------------------
    def on_attach(self, state: RoundState) -> None:
        """Reset the margin series for a fresh run."""
        self._reset_run()

    def on_round(self, state: RoundState, record: RoundRecord) -> None:
        """Measure every budget and fire violations the moment they occur."""
        t = record.t
        sample_round = (t + 1) % self.every == 0
        latest = self._latest
        for budget in self.budgets:
            value = float(budget.value(state, record))
            margin = budget.limit - value
            latest[budget.name] = (t, value, margin)
            if sample_round:
                self.series[budget.name].append(
                    MarginSample(t=t, value=value, margin=margin)
                )
            if margin < 0 and budget.name not in self._fired:
                self._fired.add(budget.name)
                violation = BudgetViolation(
                    budget=budget.name, t=record.t, value=value,
                    limit=budget.limit,
                )
                self.violations.append(violation)
                logger.warning(
                    "budget violation: %s value %.1f exceeds limit %.1f "
                    "at round %d (%s)", budget.name, value, budget.limit,
                    record.t, self.label or "unlabelled run",
                )
                self.writer.emit(
                    "violation",
                    span_id=self.span_id,
                    fingerprint=self.fingerprint,
                    label=self.label,
                    data={
                        "budget": budget.name,
                        "t": record.t,
                        "value": value,
                        "limit": round(budget.limit, 3),
                        "margin": round(margin, 3),
                        "description": budget.description,
                    },
                )
        if sample_round and self.budgets:
            self._flush(record.t, final=False)

    def on_stop(self, state: RoundState, outcome: RunOutcome) -> None:
        """Record the terminal margins and flush the final budget event."""
        for budget in self.budgets:
            latest = self._latest.get(budget.name)
            if latest is not None:
                samples = self.series[budget.name]
                if not samples or samples[-1].t != latest[0]:
                    samples.append(MarginSample(*latest))
        if self.budgets:
            self._flush(outcome.wall_rounds, final=True)

    # ------------------------------------------------------------------
    def margins(self) -> Dict[str, float]:
        """The latest margin per budget (``limit`` before any round)."""
        out: Dict[str, float] = {}
        for budget in self.budgets:
            latest = self._latest.get(budget.name)
            out[budget.name] = latest[2] if latest is not None else budget.limit
        return out

    def min_margin(self, name: Optional[str] = None) -> float:
        """The tightest margin seen so far (optionally for one budget)."""
        candidates = [
            sample.margin
            for budget_name, samples in self.series.items()
            if name is None or budget_name == name
            for sample in samples
        ]
        latest = [
            margin
            for budget_name, (_, _, margin) in self._latest.items()
            if name is None or budget_name == name
        ]
        pool = candidates + latest
        return min(pool) if pool else float("inf")

    def snapshot(self) -> Dict[str, Any]:
        """Flat summary (merged into orchestrator result rows)."""
        out: Dict[str, Any] = {"violations": len(self.violations)}
        for budget in self.budgets:
            out[f"margin_{budget.name}"] = round(
                self.min_margin(budget.name), 3
            )
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
    _seen: int = 0
    _per_depth: TallyCounter = field(default_factory=TallyCounter)
    _worst: int = 0

    def __call__(self, state: RoundState, record: RoundRecord) -> float:
        metrics = getattr(getattr(state, "expl", None), "metrics", None)
        if metrics is None:
            return 0.0
        records = metrics.reanchors
        for rec in records[self._seen:]:
            if 1 <= rec.depth <= self.max_depth - 1:
                self._per_depth[rec.depth] += 1
                if self._per_depth[rec.depth] > self._worst:
                    self._worst = self._per_depth[rec.depth]
        self._seen = len(records)
        return float(self._worst)


def budgets_for_scenario(built) -> List[Budget]:
    """The theorem budgets applicable to one built scenario.

    ``built`` is a :class:`~repro.scenario.BuiltScenario`; the guards
    mirror the paper's hypotheses, so scenarios outside them (CTE, DFS,
    adversarial runs whose accounting is Proposition 7's, not
    Theorem 1's) return an empty list rather than a vacuous check.
    """
    from ..bounds.guarantees import (
        bfdn_bound,
        bfdn_ell_bound,
        lemma2_bound,
        potential_cte_bound,
        theorem3_bound,
        tree_mining_bound,
        tree_mining_ell,
    )

    spec = built.spec
    budgets: List[Budget] = []
    if spec.kind == "tree" and spec.adversary is None:
        if spec.algorithm in THEOREM1_ALGORITHMS:
            tree = built.tree
            budgets.append(
                Budget(
                    name="theorem1",
                    limit=bfdn_bound(tree.n, tree.depth, spec.k, tree.max_degree),
                    value=_billed,
                    description="2n/k + D^2 (min(log Delta, log k) + 3) rounds",
                )
            )
            budgets.append(
                Budget(
                    name="lemma2",
                    limit=lemma2_bound(spec.k, tree.max_degree),
                    value=_InteriorReanchors(max_depth=tree.depth),
                    description="k (min(log Delta, log k) + 3) re-anchors "
                    "at any interior depth",
                )
            )
        elif spec.algorithm in THEOREM10_ALGORITHMS:
            tree = built.tree
            ell = THEOREM10_ALGORITHMS[spec.algorithm]
            budgets.append(
                Budget(
                    name="theorem10",
                    limit=bfdn_ell_bound(
                        tree.n, tree.depth, spec.k, ell, tree.max_degree
                    ),
                    value=_billed,
                    description=f"4n/k^(1/{ell}) + 2^{ell + 1} "
                    f"(ell + 1 + min(log Delta, log k / ell)) D^(1+1/{ell}) "
                    "rounds (Theorem 10)",
                )
            )
        elif spec.algorithm == "tree-mining":
            tree = built.tree
            budgets.append(
                Budget(
                    name="tree-mining",
                    limit=tree_mining_bound(
                        tree.n, tree.depth, spec.k, tree.max_degree
                    ),
                    value=_billed,
                    description="Theorem 10 at the uniform mining depth "
                    f"ell(k)={tree_mining_ell(spec.k)}: "
                    "4n/2^sqrt(log2 k) + additive term (arXiv:2309.07011)",
                )
            )
        elif spec.algorithm == "potential-cte":
            tree = built.tree
            budgets.append(
                Budget(
                    name="potential-cte",
                    limit=potential_cte_bound(tree.n, tree.depth, spec.k),
                    value=_billed,
                    description="2n/k + C D^2 rounds (arXiv:2311.01354; "
                    "implementation-pinned C)",
                )
            )
    elif spec.kind == "async-tree" and spec.algorithm == "async-cte":
        from ..bounds.guarantees import async_cte_bound

        tree = built.tree
        budgets.append(
            Budget(
                name="async-cte",
                limit=async_cte_bound(tree.n, tree.depth, spec.k),
                value=_clock_completion,
                description="2n/k + C D^2 completion time under any speed "
                "schedule (arXiv:2507.15658; implementation-pinned C)",
            )
        )
    elif spec.kind == "graph":
        from ..graphs.exploration import proposition9_bound

        graph = built.graph
        budgets.append(
            Budget(
                name="proposition9",
                limit=proposition9_bound(
                    graph.num_edges, graph.radius, spec.k, graph.max_degree
                ),
                value=_billed,
                description="Proposition 9 graph-exploration rounds",
            )
        )
    elif spec.kind == "game":
        budgets.append(
            Budget(
                name="theorem3",
                limit=theorem3_bound(spec.k, built.delta),
                value=_billed,
                description="k min(log Delta, log k) + 2k urn-game steps",
            )
        )
    return budgets


__all__ = [
    "Budget",
    "BudgetObserver",
    "BudgetViolation",
    "MarginSample",
    "THEOREM1_ALGORITHMS",
    "THEOREM10_ALGORITHMS",
    "budgets_for_scenario",
]
