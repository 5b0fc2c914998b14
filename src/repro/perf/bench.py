"""Pinned engine micro-benchmarks and ``BENCH_*.json`` snapshots.

The suite (:data:`PINNED_SUITE`) exercises every workload kind that runs
on the shared round engine — BFDN and CTE on trees small to large, the
invariant-checked BFDN, graph-BFDN on mazes, and the urn game — with
fixed ``(family, n, k, seed)`` parameters so numbers are comparable
across commits.  :func:`run_suite` measures each case with a
:class:`~repro.perf.timing.TimingObserver` (best-of-``repeats`` wall
time plus the per-phase select/apply/observe breakdown) and returns a
machine-readable snapshot; :func:`write_snapshot` persists it as
``BENCH_<date>.json`` and :func:`compare_snapshots` diffs two snapshots,
flagging regressions beyond a threshold.  Every snapshot is validated
against :data:`BENCH_SCHEMA` before it is written or compared, so a
CI smoke run fails on schema drift, never on timing noise.
"""

from __future__ import annotations

import cProfile
import io
import json
import logging
import platform
import pstats
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.runloop import ENGINE_VERSION
from .timing import TimingObserver

logger = logging.getLogger(__name__)

#: Schema tag written into (and required of) every snapshot.
BENCH_SCHEMA = "repro-bench-v1"

#: Fields every per-case measurement must carry.  ``backend`` (the loop
#: that ran: ``array`` or ``reference``) and ``engine`` identify what
#: produced the numbers.
_CASE_FIELDS = {
    "name": str,
    "kind": str,
    "n": int,
    "k": int,
    "backend": str,
    "engine": str,
    "rounds": int,
    "reveals": int,
    "elapsed": float,
    "elapsed_all": list,
    "rounds_per_sec": float,
    "phases": dict,
}


class SnapshotError(ValueError):
    """A bench snapshot violates the ``repro-bench-v1`` schema."""


@dataclass(frozen=True)
class BenchCase:
    """One pinned engine micro-benchmark.

    ``kind`` selects the runner: ``tree`` drives the simulator with the
    registry algorithm ``algorithm``; ``checked`` wraps BFDN in
    :class:`~repro.core.invariants.CheckedBFDN`; ``async-tree`` drives
    the asynchronous event scheduler under the ``speed`` schedule
    (``""`` = unit speeds); ``graph`` runs Proposition 9's graph engine;
    ``game`` plays Theorem 3's urn game (``n`` is the threshold
    ``Delta``).  ``quick`` cases form the ``--quick`` subset used by the
    CI smoke job.

    A case is sugar over a :class:`~repro.scenario.ScenarioSpec` (see
    :meth:`to_scenario`); the runner builds the scenario once, outside
    the timed region, and times repeated ``run()`` calls.
    """

    name: str
    kind: str
    family: str
    n: int
    k: int
    algorithm: str = "bfdn"
    quick: bool = False
    #: Speed-schedule name for ``async-tree`` cases ("" = unit speeds).
    speed: str = ""

    def to_scenario(self):
        """The scenario this case times.

        ``checked`` maps to the registry's ``bfdn-checked`` algorithm;
        ``graph``/``game`` map to their entry-point scenarios.
        """
        from ..orchestrator.jobspec import TreeSpec
        from ..scenario import ScenarioSpec

        kind_map = {
            "tree": ("tree", self.algorithm),
            "checked": ("tree", "bfdn-checked"),
            "async-tree": ("async-tree", self.algorithm),
            "graph": ("graph", "graph-bfdn"),
            "game": ("game", "urn-game"),
        }
        if self.kind not in kind_map:
            raise ValueError(
                f"unknown bench case kind {self.kind!r} "
                f"(known: {', '.join(kind_map)})"
            )
        kind, algorithm = kind_map[self.kind]
        return ScenarioSpec(
            kind=kind,
            algorithm=algorithm,
            substrate=TreeSpec(family=self.family, n=self.n, seed=0),
            k=self.k,
            label=self.name,
            speed=self.speed or None,
        )


#: The pinned suite.  Names are stable identifiers: ``--compare`` matches
#: cases across snapshots by name, so renaming one orphans its history.
PINNED_SUITE: Tuple[BenchCase, ...] = (
    BenchCase("bfdn/random-n300-k4", "tree", "random", 300, 4, quick=True),
    BenchCase("bfdn/random-n5000-k16", "tree", "random", 5000, 16),
    BenchCase("bfdn/random-n20000-k64", "tree", "random", 20000, 64),
    BenchCase("bfdn/comb-n2000-k8", "tree", "comb", 2000, 8),
    BenchCase("bfdn/star-n2000-k32", "tree", "star", 2000, 32, quick=True),
    BenchCase("bfdn/star-n10000-k32", "tree", "star", 10000, 32),
    BenchCase("tree-mining/random-n300-k9", "tree", "random", 300, 9,
              algorithm="tree-mining", quick=True),
    BenchCase("tree-mining/random-n2000-k16", "tree", "random", 2000, 16,
              algorithm="tree-mining"),
    BenchCase("potential-cte/random-n300-k4", "tree", "random", 300, 4,
              algorithm="potential-cte", quick=True),
    BenchCase("potential-cte/comb-n2000-k8", "tree", "comb", 2000, 8,
              algorithm="potential-cte"),
    BenchCase("cte/random-n300-k4", "tree", "random", 300, 4,
              algorithm="cte", quick=True),
    BenchCase("cte/random-n2000-k8", "tree", "random", 2000, 8,
              algorithm="cte"),
    BenchCase("async-cte/random-n300-k4", "async-tree", "random", 300, 4,
              algorithm="async-cte", quick=True),
    BenchCase("async-cte/random-n2000-k8-stochastic", "async-tree",
              "random", 2000, 8, algorithm="async-cte", speed="stochastic"),
    BenchCase("checked-bfdn/random-n150-k4", "checked", "random", 150, 4,
              quick=True),
    BenchCase("checked-bfdn/random-n3000-k8", "checked", "random", 3000, 8),
    BenchCase("graph-bfdn/maze-n400-k8", "graph", "maze", 400, 8, quick=True),
    BenchCase("graph-bfdn/maze-n1200-k16", "graph", "maze", 1200, 16),
    BenchCase("urn-game/k64", "game", "urns", 64, 64, quick=True),
    BenchCase("urn-game/k512", "game", "urns", 512, 512),
)


# ---------------------------------------------------------------------
# Case runners
# ---------------------------------------------------------------------

def _make_runner(case: BenchCase) -> Callable[[TimingObserver], None]:
    """Build the workload once and return a one-run closure.

    The case's scenario is built here — workload construction
    (tree/graph generation) happens outside the timed region — and the
    closure runs it through the one scenario ``run()`` path; fresh
    algorithm/adversary instances are created per call, so repeats are
    independent.  The built scenario rides along as ``run.built`` so
    callers can read the actual instance size.
    """
    built = case.to_scenario().build()

    def run(timing: TimingObserver) -> None:
        built.run([timing])

    run.built = built  # type: ignore[attr-defined]
    return run


def run_case(case: BenchCase, repeats: int = 3) -> Dict[str, Any]:
    """Measure one case: best-of-``repeats`` elapsed plus phase split.

    Each repeat is bracketed by a
    :class:`~repro.obs.resources.ResourceSampler`; the row carries the
    resource columns of the *best* (fastest) repeat, matching the
    elapsed/phase selection rule.  The columns are additive to
    ``repro-bench-v1`` — they are not required by
    :func:`validate_snapshot`, so pre-existing snapshots stay loadable
    and comparable.
    """
    from ..obs.resources import ResourceSampler

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    run = _make_runner(case)
    timing = TimingObserver()
    best: Optional[Dict[str, Any]] = None
    best_res = None
    elapsed_all: List[float] = []
    for _ in range(repeats):
        sampler = ResourceSampler().start()
        run(timing)  # on_attach resets the observer per run
        res = sampler.stop()
        sample = timing.snapshot()
        elapsed_all.append(round(sample["elapsed"], 6))
        if best is None or sample["elapsed"] < best["elapsed"]:
            best = sample
            best_res = res
    assert best is not None
    resource_cols: Dict[str, Any] = {}
    if best_res is not None and best_res.wall_s > 0:
        resource_cols = {
            "cpu_sec": round(best_res.cpu_s, 6),
            "max_rss_kb": best_res.max_rss_kb,
        }
        if best_res.energy_j is not None:
            resource_cols["energy_j"] = round(best_res.energy_j, 6)
    return {
        "name": case.name,
        "kind": case.kind,
        "family": case.family,
        "algorithm": case.algorithm,
        # The loop that ran: the array fast path announces itself
        # through the batch summary.
        "backend": best.get("backend", "reference"),
        "engine": ENGINE_VERSION,
        # The *actual* instance size — named families round the
        # requested n (e.g. maze-n1200 materialises 1224 nodes).
        "n": run.built.size,  # type: ignore[attr-defined]
        "requested_n": case.n,
        "k": case.k,
        "rounds": best["rounds"],
        "billed_rounds": best["billed_rounds"],
        "reveals": best["reveals"],
        "elapsed": round(best["elapsed"], 6),
        "elapsed_all": elapsed_all,
        "rounds_per_sec": round(best["rounds_per_sec"], 1),
        "reveals_per_sec": round(best["reveals_per_sec"], 1),
        "phases": {
            phase: round(seconds, 6)
            for phase, seconds in best["phases"].items()
        },
        "phase_fractions": {
            phase: round(fraction, 4)
            for phase, fraction in best["phase_fractions"].items()
        },
        **resource_cols,
    }


def select_cases(
    quick: bool = False, only: Optional[Sequence[str]] = None
) -> List[BenchCase]:
    """The pinned cases to run, filtered by ``--quick`` / ``--only``."""
    cases = [c for c in PINNED_SUITE if c.quick] if quick else list(PINNED_SUITE)
    if only:
        wanted = set(only)
        cases = [c for c in PINNED_SUITE if c.name in wanted]
        missing = wanted - {c.name for c in cases}
        if missing:
            known = ", ".join(c.name for c in PINNED_SUITE)
            raise ValueError(
                f"unknown bench case(s) {sorted(missing)} (known: {known})"
            )
    return cases


def run_suite(
    quick: bool = False,
    repeats: int = 3,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the pinned suite and return a validated snapshot dict."""
    results = []
    cases = select_cases(quick=quick, only=only)
    logger.info("benchmark suite: %d case(s), repeats=%d, quick=%s",
                len(cases), repeats, quick)
    for case in cases:
        if progress is not None:
            progress(f"bench {case.name} ...")
        results.append(run_case(case, repeats=repeats))
        logger.debug("bench case %s done", case.name)
    snapshot = {
        "schema": BENCH_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": bool(quick),
        "repeats": repeats,
        "cases": results,
    }
    validate_snapshot(snapshot)
    return snapshot


# ---------------------------------------------------------------------
# Snapshot IO + schema validation
# ---------------------------------------------------------------------

def validate_snapshot(snapshot: Any) -> None:
    """Raise :class:`SnapshotError` unless ``snapshot`` is schema-valid."""
    if not isinstance(snapshot, dict):
        raise SnapshotError("snapshot must be a JSON object")
    if snapshot.get("schema") != BENCH_SCHEMA:
        raise SnapshotError(
            f"schema tag {snapshot.get('schema')!r} != {BENCH_SCHEMA!r}"
        )
    for key in ("created", "python", "platform", "repeats", "cases"):
        if key not in snapshot:
            raise SnapshotError(f"missing top-level field {key!r}")
    cases = snapshot["cases"]
    if not isinstance(cases, list) or not cases:
        raise SnapshotError("'cases' must be a non-empty list")
    seen = set()
    for case in cases:
        if not isinstance(case, dict):
            raise SnapshotError("every case must be an object")
        for field, types in _CASE_FIELDS.items():
            if field not in case:
                raise SnapshotError(
                    f"case {case.get('name', '?')!r}: missing field {field!r}"
                )
            value = case[field]
            if types is float:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            else:
                ok = isinstance(value, types) and not isinstance(value, bool)
            if not ok:
                raise SnapshotError(
                    f"case {case.get('name', '?')!r}: field {field!r} has "
                    f"type {type(value).__name__}, expected {types.__name__}"
                )
        if case["elapsed"] < 0:
            raise SnapshotError(f"case {case['name']!r}: negative elapsed")
        for phase in ("select", "apply", "observe"):
            if phase not in case["phases"]:
                raise SnapshotError(
                    f"case {case['name']!r}: phases missing {phase!r}"
                )
        if case["name"] in seen:
            raise SnapshotError(f"duplicate case name {case['name']!r}")
        seen.add(case["name"])


def default_snapshot_path(prefix: str = "BENCH") -> str:
    """The conventional snapshot filename, ``BENCH_<date>.json``."""
    return f"{prefix}_{time.strftime('%Y-%m-%d')}.json"


def write_snapshot(snapshot: Dict[str, Any], path: str) -> None:
    """Validate and write a snapshot as pretty-printed JSON."""
    validate_snapshot(snapshot)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(snapshot, f, indent=2, sort_keys=False)
        f.write("\n")


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read and validate a snapshot file."""
    try:
        with open(path, encoding="utf-8") as f:
            snapshot = json.load(f)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"{path}: not valid JSON ({exc})") from None
    validate_snapshot(snapshot)
    return snapshot


# ---------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class CaseDelta:
    """Old-vs-new timing of one case (``ratio = new / old`` elapsed)."""

    name: str
    old_elapsed: float
    new_elapsed: float
    ratio: float

    @property
    def speedup(self) -> float:
        """``old / new`` — > 1 means the new snapshot is faster."""
        return 1.0 / self.ratio if self.ratio > 0 else float("inf")


def compare_snapshots(
    old: Dict[str, Any],
    new: Dict[str, Any],
    threshold: float = 0.2,
) -> Tuple[List[str], List[CaseDelta]]:
    """Diff two snapshots; returns report lines and the regressions.

    A case regresses when its elapsed grows by more than ``threshold``
    (e.g. ``0.2`` = +20%); a symmetric shrink is reported as improved.
    Cases present in only one snapshot are reported but never fail.
    """
    validate_snapshot(old)
    validate_snapshot(new)
    old_cases = {c["name"]: c for c in old["cases"]}
    new_cases = {c["name"]: c for c in new["cases"]}
    lines: List[str] = []
    regressions: List[CaseDelta] = []
    for case in new["cases"]:
        name = case["name"]
        before = old_cases.get(name)
        if before is None:
            lines.append(f"{name}: new case ({case['elapsed']:.4f}s)")
            continue
        old_elapsed = float(before["elapsed"])
        new_elapsed = float(case["elapsed"])
        ratio = new_elapsed / old_elapsed if old_elapsed > 0 else float("inf")
        delta = CaseDelta(name, old_elapsed, new_elapsed, ratio)
        tag = ""
        if ratio > 1.0 + threshold:
            tag = f"  REGRESSION (> +{threshold:.0%})"
            regressions.append(delta)
        elif ratio < 1.0 / (1.0 + threshold):
            tag = f"  improved ({delta.speedup:.2f}x faster)"
        lines.append(
            f"{name}: {old_elapsed:.4f}s -> {new_elapsed:.4f}s "
            f"({ratio:.2f}x elapsed, {(ratio - 1) * 100:+.1f}%){tag}"
        )
    for name in old_cases:
        if name not in new_cases:
            lines.append(f"{name}: removed (was {old_cases[name]['elapsed']:.4f}s)")
    return lines, regressions


# ---------------------------------------------------------------------
# Profiling
# ---------------------------------------------------------------------

def profile_suite(
    quick: bool = False,
    only: Optional[Sequence[str]] = None,
    top: int = 25,
) -> str:
    """Run the selected cases once under cProfile; return the hotspot
    table (top-``top`` functions by cumulative time)."""
    cases = select_cases(quick=quick, only=only)
    runners = [(_make_runner(case)) for case in cases]
    timing = TimingObserver()
    profiler = cProfile.Profile()
    profiler.enable()
    for run in runners:
        run(timing)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


__all__ = [
    "BENCH_SCHEMA",
    "BenchCase",
    "CaseDelta",
    "PINNED_SUITE",
    "SnapshotError",
    "compare_snapshots",
    "default_snapshot_path",
    "load_snapshot",
    "profile_suite",
    "run_case",
    "run_suite",
    "select_cases",
    "validate_snapshot",
    "write_snapshot",
]
