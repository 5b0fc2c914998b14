"""Performance instrumentation for the shared round engine.

:mod:`repro.perf.timing` provides the per-run :class:`TimingObserver`
(phase wall times, rounds/sec, reveals/sec); :mod:`repro.perf.bench`
provides the pinned micro-benchmark suite behind ``python -m repro
bench``, its ``BENCH_*.json`` snapshot format, and snapshot comparison.

Every run attaches a :class:`TimingObserver`, but only ``repro bench``
runs the suite, so the :mod:`~repro.perf.bench` names load on first use.
"""

from .timing import TimingObserver

_BENCH_NAMES = frozenset({
    "BENCH_SCHEMA", "BenchCase", "CaseDelta", "PINNED_SUITE", "SnapshotError",
    "compare_snapshots", "default_snapshot_path", "load_snapshot",
    "profile_suite", "run_case", "run_suite", "select_cases",
    "validate_snapshot", "write_snapshot",
})


def __getattr__(name):
    if name in _BENCH_NAMES:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BENCH_SCHEMA",
    "BenchCase",
    "CaseDelta",
    "PINNED_SUITE",
    "SnapshotError",
    "TimingObserver",
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
