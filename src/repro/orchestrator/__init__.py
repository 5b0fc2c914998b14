"""Resumable experiment orchestration.

The orchestrator turns the repo's embarrassingly-parallel sweep workloads
(``(family × n × k × seed)`` grids) into fault-tolerant, resumable runs:

* :mod:`~repro.orchestrator.jobspec` — tree substrates, the cache schema
  tag and the pool's worker function (jobs themselves are
  :class:`repro.scenario.ScenarioSpec` values, fingerprinted to sha256);
* :mod:`~repro.orchestrator.store` — an on-disk content-addressed result
  cache (JSON-lines + manifest) so identical jobs are never re-simulated
  and interrupted sweeps resume where they stopped;
* :mod:`~repro.orchestrator.executor` — a resilient process-pool executor
  with per-job timeouts, bounded retries with backoff and crash isolation;
* :mod:`~repro.orchestrator.events` — a structured progress/event stream
  with queued/started/cache-hit/retry/done counters;
* :mod:`~repro.orchestrator.signals` — cooperative SIGINT/SIGTERM
  shutdown: the pool drains cleanly (no orphaned workers) and keeps
  every result that settled before the interrupt.

``analysis.sweep.run_sweep_cached``, the
``python -m repro sweep`` CLI command and ``tools/run_experiments.py``
all route through this package.
"""

from .events import ProgressTracker, SweepEvent
from .executor import JobOutcome, TaskOutcome, run_jobspecs, run_tasks
from .jobspec import SCHEMA_VERSION, TreeSpec, run_jobspec
from .signals import (
    INTERRUPT_EXIT_CODE,
    ShutdownFlag,
    graceful_shutdown,
)
from .store import ResultStore

__all__ = [
    "INTERRUPT_EXIT_CODE",
    "SCHEMA_VERSION",
    "TreeSpec",
    "run_jobspec",
    "ResultStore",
    "ProgressTracker",
    "ShutdownFlag",
    "SweepEvent",
    "JobOutcome",
    "TaskOutcome",
    "graceful_shutdown",
    "run_jobspecs",
    "run_tasks",
]
