"""Parameter-sweep harness used by the benchmarks and EXPERIMENTS.md.

A sweep runs a set of named algorithms over a set of (tree, k) workloads
and collects one :class:`SweepRecord` per run, carrying the measured
rounds together with the theoretical quantities (Theorem 1 bound,
offline lower bound, competitive overhead/ratio) the paper's claims are
about.

:func:`run_sweep_cached` enumerates the grid as scenario specs and fans
them over the resilient worker pool with a content-addressed result
cache, so identical re-runs are pure cache hits and one crashing job
never aborts the sweep.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..bounds.guarantees import competitive_overhead, competitive_ratio
from ..orchestrator import JobOutcome, TreeSpec, run_jobspecs
from ..orchestrator.events import ProgressTracker
from ..orchestrator.store import ResultStore
from ..scenario import scenario_grid
from ..trees.tree import Tree

logger = logging.getLogger(__name__)


@dataclass
class SweepRecord:
    """One (algorithm, tree, k) measurement."""

    algorithm: str
    tree_label: str
    n: int
    depth: int
    max_degree: int
    k: int
    rounds: int
    complete: bool
    all_home: bool
    bfdn_bound: float
    lower_bound: int
    offline_split: int
    #: Engine throughput of the run (billed rounds per second of engine
    #: time, via the perf timing observer); 0.0 for legacy rows.
    rounds_per_sec: float = 0.0

    @property
    def overhead(self) -> float:
        """``T - 2n/k``: the additive overhead of Theorem 1."""
        return competitive_overhead(self.rounds, self.n, self.k)

    @property
    def ratio(self) -> float:
        """``T / (n/k + D)``: the classical competitive ratio."""
        return competitive_ratio(self.rounds, self.n, self.depth, self.k)

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "algorithm": self.algorithm,
            "tree": self.tree_label,
            "n": self.n,
            "D": self.depth,
            "k": self.k,
            "rounds": self.rounds,
            "bound": round(self.bfdn_bound, 1),
            "lower": self.lower_bound,
            "offline": self.offline_split,
            "overhead": round(self.overhead, 1),
            "ratio": round(self.ratio, 2),
            "rps": round(self.rounds_per_sec),
        }


@dataclass
class SweepRun:
    """Outcome of an orchestrated sweep: records plus per-job outcomes.

    ``records`` holds one :class:`SweepRecord` per *successful* job (in
    job order); ``outcomes`` covers every job including failures, and
    ``tracker`` carries the aggregated progress counters.
    """

    records: List[SweepRecord]
    outcomes: List[JobOutcome]
    tracker: ProgressTracker

    @property
    def failures(self) -> List[JobOutcome]:
        """Jobs that produced no result even after retries."""
        return [outcome for outcome in self.outcomes if not outcome.ok]


def record_from_row(row: Dict[str, object]) -> SweepRecord:
    """Rebuild a :class:`SweepRecord` from an orchestrator result row.

    Tolerates rows without the bound columns (scenarios run with
    ``compute_bounds=False``) by defaulting them to zero.  Async-tree
    rows carry their guarantee as ``async_bound``; it lands in the same
    ``bound`` table column.
    """
    return SweepRecord(
        algorithm=str(row["algorithm"]),
        tree_label=str(row["label"]),
        n=int(row["n"]),
        depth=int(row["depth"]),
        max_degree=int(row["max_degree"]),
        k=int(row["k"]),
        rounds=int(row["rounds"]),
        complete=bool(row["complete"]),
        all_home=bool(row["all_home"]),
        bfdn_bound=float(row.get("bfdn_bound", row.get("async_bound", 0.0))),
        lower_bound=int(row.get("lower_bound", 0)),
        offline_split=int(row.get("offline_split", 0)),
        rounds_per_sec=float(row.get("rounds_per_sec", 0.0)),
    )


def run_sweep_cached(
    algorithms: Sequence[str],
    workloads: Iterable[Tuple[str, Union[Tree, TreeSpec]]],
    team_sizes: Sequence[int],
    *,
    store: Optional[ResultStore] = None,
    max_workers: Optional[int] = 0,
    timeout: Optional[float] = None,
    retries: int = 1,
    max_rounds: Optional[int] = None,
    tracker: Optional[ProgressTracker] = None,
    policy: Optional[str] = None,
    adversary: Optional[str] = None,
    adversary_params: Optional[Dict[str, object]] = None,
    telemetry=None,
    speed: Optional[str] = None,
    speed_params: Optional[Dict[str, object]] = None,
) -> SweepRun:
    """Run every named algorithm on every (tree, k) pair, orchestrated.

    Workloads are ``(label, tree_or_spec)`` pairs; passing
    :class:`~repro.orchestrator.TreeSpec` values (named families) keeps
    cache fingerprints compact, while concrete trees are cached via
    their parent arrays.  The worker also computes the Theorem 1 bound
    and the offline baselines, so a cache hit recomputes *nothing*.
    ``max_workers=0`` (the default) runs inline.

    ``policy`` names a re-anchor policy ablation, ``adversary`` (with
    ``adversary_params``) a break-down or reactive adversary from the
    registry — the scenario kind is inferred per algorithm, so one call
    can sweep adversarial tree scenarios next to graph/game entry
    points.

    ``speed`` (with ``speed_params``) switches async-capable tree
    algorithms to ``async-tree`` scenarios driven by the named speed
    schedule — the asynchronous model's counterpart to ``adversary``.
    """
    workload_list = [
        (label, tree if isinstance(tree, TreeSpec) else TreeSpec.from_tree(tree))
        for label, tree in workloads
    ]
    specs = scenario_grid(
        algorithms,
        workload_list,
        team_sizes,
        policy=policy,
        adversary=adversary,
        adversary_params=adversary_params,
        max_rounds=max_rounds,
        compute_bounds=True,
        speed=speed,
        speed_params=speed_params,
    )
    tracker = tracker if tracker is not None else ProgressTracker()
    logger.info(
        "sweep: %d algorithm(s) x %d workload(s) x %d team size(s) = %d jobs",
        len(algorithms), len(workload_list), len(team_sizes), len(specs),
    )
    outcomes = run_jobspecs(
        specs,
        store=store,
        max_workers=max_workers,
        timeout=timeout,
        retries=retries,
        tracker=tracker,
        telemetry=telemetry,
    )
    records = [
        record_from_row(outcome.row) for outcome in outcomes if outcome.ok
    ]
    return SweepRun(records=records, outcomes=outcomes, tracker=tracker)
