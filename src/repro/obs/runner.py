"""Telemetry-instrumented job execution for the orchestrator pool.

:class:`TelemetryJob` wraps one scenario spec with the picklable
:class:`~repro.obs.writer.TelemetryConfig` and a pre-assigned span id;
:func:`run_telemetry_job` is the top-level worker the executor ships to
worker processes.  Each worker opens its *own* writer on the shared
trace file, brackets the run with ``run_start``/``run_end`` events,
attaches the :class:`~repro.obs.metrics.MetricsObserver` and — when the
scenario falls under a paper guarantee — the
:class:`~repro.obs.budget.BudgetObserver`, and folds both observers'
snapshots into the returned result row (so violations and margins are
cached alongside the run's other columns).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict

from .budget import BudgetObserver, budgets_for_scenario
from .metrics import MetricsObserver
from .resources import ResourceSampler
from .schema import new_span_id
from .writer import TelemetryConfig

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TelemetryJob:
    """One spec plus everything needed to join the sweep's event log.

    ``spec`` is a :class:`~repro.scenario.ScenarioSpec`; it is
    picklable, as are the config and span id, so the whole job crosses
    the worker-pool boundary intact.
    """

    spec: Any
    config: TelemetryConfig
    span_id: str = field(default_factory=new_span_id)


def run_telemetry_job(
    job: TelemetryJob, extra_observers=(), built=None
) -> Dict[str, object]:
    """Execute one spec under full telemetry and return its result row.

    The row is the ordinary scenario row plus the telemetry columns:
    ``trace_id``, ``span_id``, the metrics observer's counters
    (moves/idle/reveals/...), and — when theorem budgets apply —
    ``violations`` and per-budget ``margin_*`` columns.

    ``extra_observers``/``built`` serve in-process callers (the CLI):
    additional round observers to attach, and an already-materialised
    :class:`~repro.scenario.BuiltScenario` to reuse.  Pool workers use
    the defaults — only ``job`` crosses the process boundary.
    """
    spec = job.spec
    fingerprint = spec.fingerprint()
    label = spec.label or spec.algorithm
    if built is None:
        built = spec.build()
    budgets = budgets_for_scenario(built)
    with job.config.open() as writer:
        writer.emit(
            "run_start",
            span_id=job.span_id,
            fingerprint=fingerprint,
            label=label,
            data={
                "kind": spec.kind,
                "algorithm": spec.algorithm,
                "k": spec.k,
                "size": built.size,
                "budgets": [b.name for b in budgets],
            },
        )
        metrics = MetricsObserver(
            writer=writer,
            span_id=job.span_id,
            fingerprint=fingerprint,
            label=label,
            every=job.config.round_every,
        )
        observers = [metrics, *extra_observers]
        budget_obs = None
        if budgets:
            budget_obs = BudgetObserver(
                budgets,
                writer=writer,
                span_id=job.span_id,
                fingerprint=fingerprint,
                label=label,
                every=job.config.round_every,
            )
            observers.append(budget_obs)
        # Bracket the whole instrumented run (engine + observers) so the
        # ``resource`` event bills what the job actually cost the worker;
        # the row's own cpu_sec/max_rss_kb columns come from the tighter
        # engine-only bracket inside ``BuiltScenario.run``.
        sampler = ResourceSampler().start()
        try:
            row = built.run(observers=observers)
        except BaseException as exc:
            writer.emit(
                "run_end",
                span_id=job.span_id,
                fingerprint=fingerprint,
                label=label,
                data={"status": "error", "error": f"{type(exc).__name__}: {exc}"},
            )
            raise
        sample = sampler.stop()
        if sampler.enabled:
            data = sample.to_data()
            data["rounds"] = row.get("rounds", 0)
            writer.emit(
                "resource",
                span_id=job.span_id,
                fingerprint=fingerprint,
                label=label,
                data=data,
            )
        row["trace_id"] = job.config.trace_id
        row["span_id"] = job.span_id
        for key, value in metrics.snapshot().items():
            row.setdefault(f"obs_{key}", value)
        if budget_obs is not None:
            row.update(budget_obs.snapshot())
        writer.emit(
            "run_end",
            span_id=job.span_id,
            fingerprint=fingerprint,
            label=label,
            data={
                "status": "ok",
                "rounds": row.get("rounds", 0),
                "wall_rounds": row.get("wall_rounds", 0),
                "complete": row.get("complete", False),
                "violations": row.get("violations", 0),
                "backend": row.get("backend", "reference"),
            },
        )
    return row


__all__ = ["TelemetryJob", "run_telemetry_job"]
