"""Unified telemetry: event log, engine metrics, theorem budgets.

One subsystem, four pieces (see DESIGN.md "Telemetry" for the schema):

* :mod:`~repro.obs.schema` / :mod:`~repro.obs.writer` — the append-only
  JSONL event log with trace/span correlation ids;
* :mod:`~repro.obs.metrics` — the :class:`MetricsObserver` bridge from
  the round engine;
* :mod:`~repro.obs.budget` — the paper's theorem bounds as live runtime
  budgets (:class:`BudgetObserver`);
* :mod:`~repro.obs.logconf` / :mod:`~repro.obs.tail` — stdlib logging
  setup and the ``repro tail`` summary renderer (import the ``tail``
  function from the submodule: the package attribute is the module).

The :mod:`~repro.obs.report` names (``collect_matrix``, ``render_html``,
...) are re-exported lazily: the cost matrix pulls in
:mod:`repro.analysis`, which no run needs, so it loads on first use.
"""

from .budget import (
    Budget,
    BudgetObserver,
    BudgetViolation,
    budgets_for_scenario,
)
from .logconf import configure_logging
from .metrics import MetricsObserver
from .resources import (
    EnergyProbe,
    NullEnergyProbe,
    RaplEnergyProbe,
    ResourceSample,
    ResourceSampler,
    default_energy_probe,
)
from .runner import TelemetryJob, run_telemetry_job
from .schema import (
    EVENT_TYPES,
    TELEMETRY_SCHEMA,
    TelemetryEvent,
    new_span_id,
    new_trace_id,
    validate_events,
)
from .tail import summarize
from .writer import (
    NullWriter,
    TelemetryConfig,
    TelemetryWriter,
    load_trace,
    read_events,
)

_REPORT_NAMES = frozenset({
    "build_matrix", "collect_matrix", "compare_reports", "render_html",
    "render_markdown",
})


def __getattr__(name):
    if name in _REPORT_NAMES:
        from . import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Budget",
    "BudgetObserver",
    "BudgetViolation",
    "EVENT_TYPES",
    "EnergyProbe",
    "MetricsObserver",
    "NullEnergyProbe",
    "NullWriter",
    "RaplEnergyProbe",
    "ResourceSample",
    "ResourceSampler",
    "TELEMETRY_SCHEMA",
    "TelemetryConfig",
    "TelemetryEvent",
    "TelemetryJob",
    "TelemetryWriter",
    "budgets_for_scenario",
    "build_matrix",
    "collect_matrix",
    "compare_reports",
    "configure_logging",
    "default_energy_probe",
    "load_trace",
    "new_span_id",
    "new_trace_id",
    "read_events",
    "render_html",
    "render_markdown",
    "run_telemetry_job",
    "summarize",
    "validate_events",
]
