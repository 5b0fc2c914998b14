"""Render a human-readable summary of a telemetry trace.

This backs ``python -m repro tail DIR``: it folds a JSONL event log
(one file or a directory of ``trace-*.jsonl``) into per-span summaries —
duration, rounds/sec, the loop that ran it (array fast path or
reference scheduler loop), final theorem-budget margins (each with its
source: the theorem it checks, or "empirical"), violation count —
plus trace-level aggregates (total runs, slowest spans, whether every
span closed cleanly).  Traces from asynchronous runs additionally get a
clock-skew section attributing each span's wall time to its slowest
robot (from the ``clock`` events).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .budget import budget_sources
from .schema import TelemetryEvent, validate_events
from .writer import load_trace

logger = logging.getLogger(__name__)


@dataclass
class SpanSummary:
    """Everything the tail view knows about one span (job/run)."""

    trace_id: str
    span_id: str
    label: str = ""
    fingerprint: str = ""
    start_ts: Optional[float] = None
    end_ts: Optional[float] = None
    rounds: int = 0
    billed_rounds: int = 0
    margins: Dict[str, float] = field(default_factory=dict)
    violations: int = 0
    outcome: Dict[str, Any] = field(default_factory=dict)
    #: Per-robot clock summary of an asynchronous run (the ``clock``
    #: event payload); empty for synchronous spans.
    clock: Dict[str, Any] = field(default_factory=dict)
    #: The span's resource bill (the ``resource`` event payload:
    #: cpu_user_s/cpu_sys_s/max_rss_kb/energy_j/...); empty when the
    #: trace predates resource sampling.
    resources: Dict[str, Any] = field(default_factory=dict)
    #: The ``run_start`` payload (kind/algorithm/k/size/budgets) — what
    #: ``repro report`` pivots on when fed a telemetry dir.
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        """Wall seconds between run_start and run_end (None if open)."""
        if self.start_ts is None or self.end_ts is None:
            return None
        return max(0.0, self.end_ts - self.start_ts)

    @property
    def backend(self) -> str:
        """The loop that ran the span: ``array``, ``reference`` or "".

        Empty for traces that predate the ``run_end`` field."""
        return str(self.outcome.get("backend", ""))

    @property
    def rounds_per_sec(self) -> float:
        """Engine rounds per wall second (0.0 when unknowable)."""
        duration = self.duration
        if not duration or duration <= 0 or self.rounds <= 0:
            return 0.0
        return self.rounds / duration


@dataclass
class ServingSummary:
    """The serving layer's slice of a trace: requests, queue, latency.

    Folded from the ``request``/``queue``/``latency`` events the
    ``repro serve`` daemon emits; empty when the trace came from a
    batch sweep.
    """

    #: Requests by outcome source (cache / dedup / fresh / error codes).
    by_source: Dict[str, int] = field(default_factory=dict)
    #: Requests by response status (ok / bad_request / saturated / ...).
    by_status: Dict[str, int] = field(default_factory=dict)
    requests: int = 0
    errors: int = 0
    #: Last latency percentile snapshot per source, straight from the
    #: server's ``latency`` events: {source: {count, p50_ms, ...}}.
    percentiles: Dict[str, Dict[str, float]] = field(default_factory=dict)
    queue_depth: int = 0
    queue_depth_max: int = 0
    queue_capacity: int = 0
    inflight: int = 0

    @property
    def seen(self) -> bool:
        """Whether the trace contains any serving-layer events."""
        return bool(self.requests or self.percentiles or self.queue_capacity)

    def fold(self, ev: TelemetryEvent) -> None:
        """Fold one request/queue/latency event into the aggregates."""
        data = ev.data
        if ev.event == "request":
            self.requests += 1
            source = str(data.get("source", "?"))
            status = str(data.get("status", "?"))
            self.by_source[source] = self.by_source.get(source, 0) + 1
            self.by_status[status] = self.by_status.get(status, 0) + 1
            if status != "ok":
                self.errors += 1
        elif ev.event == "queue":
            self.queue_depth = int(data.get("depth", 0) or 0)
            self.queue_depth_max = max(self.queue_depth_max, self.queue_depth)
            self.queue_capacity = int(data.get("capacity", 0) or 0)
            self.inflight = int(data.get("inflight", 0) or 0)
        elif ev.event == "latency":
            source = str(data.get("source", "all"))
            self.percentiles[source] = {
                key: float(value)
                for key, value in data.items()
                if isinstance(value, (int, float)) and key != "final"
            }


@dataclass
class TraceSummary:
    """A whole trace folded into span summaries and aggregates."""

    spans: Dict[Tuple[str, str], SpanSummary] = field(default_factory=dict)
    events: int = 0
    violations: int = 0
    problem: Optional[str] = None
    serving: ServingSummary = field(default_factory=ServingSummary)

    def closed_spans(self) -> List[SpanSummary]:
        """Spans with both a run_start and a run_end, slowest first."""
        done = [s for s in self.spans.values() if s.duration is not None]
        return sorted(done, key=lambda s: s.duration or 0.0, reverse=True)

    def open_spans(self) -> List[SpanSummary]:
        """Spans that started but never ended (crash or still running).

        Spans that only ever carried span-less events (e.g. the serving
        layer's per-request events) are not "open" — they never started.
        """
        return [
            s for s in self.spans.values()
            if s.start_ts is not None and s.end_ts is None
        ]


def summarize(events: Iterable[TelemetryEvent]) -> TraceSummary:
    """Fold an event stream into a :class:`TraceSummary`."""
    events = list(events)
    summary = TraceSummary(events=len(events))
    summary.problem = validate_events(events)
    for ev in events:
        key = (ev.trace_id, ev.span_id)
        span = summary.spans.get(key)
        if span is None:
            span = summary.spans[key] = SpanSummary(
                trace_id=ev.trace_id, span_id=ev.span_id
            )
        if ev.label and not span.label:
            span.label = ev.label
        if ev.fingerprint and not span.fingerprint:
            span.fingerprint = ev.fingerprint
        if ev.event == "run_start":
            span.start_ts = ev.ts
            if ev.data:
                span.meta = dict(ev.data)
        elif ev.event == "run_end":
            span.end_ts = ev.ts
            span.outcome = dict(ev.data)
        elif ev.event == "round":
            span.rounds = int(ev.data.get("wall_round", span.rounds) or 0)
            span.billed_rounds = int(
                ev.data.get("billed_rounds", span.billed_rounds) or 0
            )
        elif ev.event == "budget":
            margins = ev.data.get("margins")
            if isinstance(margins, dict):
                span.margins = {
                    str(name): float(value) for name, value in margins.items()
                }
        elif ev.event == "violation":
            span.violations += 1
            summary.violations += 1
        elif ev.event == "clock":
            span.clock = dict(ev.data)
        elif ev.event == "resource":
            span.resources = dict(ev.data)
        elif ev.event in ("request", "queue", "latency"):
            summary.serving.fold(ev)
    return summary


def _fmt_margin(margins: Dict[str, float], sources: Dict[str, str]) -> str:
    """``name=+margin [source]`` per budget; names this build does not
    know (an older trace) print without a source."""
    if not margins:
        return "-"
    return " ".join(
        f"{name}={value:+.1f}" + (f" [{sources[name]}]" if name in sources else "")
        for name, value in sorted(margins.items())
    )


def render_latency(serving: ServingSummary) -> List[str]:
    """Render the serving layer's latency/queue section.

    One line per outcome source with the server-computed p50/p95/p99
    (milliseconds), plus the queue-depth and in-flight gauges.
    """
    lines: List[str] = []
    if not serving.seen:
        return ["serving: no request/queue/latency events in this trace"]
    sources = " ".join(
        f"{source}={count}" for source, count in sorted(serving.by_source.items())
    )
    lines.append(
        f"serving: {serving.requests} requests ({sources}), "
        f"{serving.errors} errors"
    )
    if serving.percentiles:
        lines.append(
            f"  {'source':<8} {'n':>7} {'p50ms':>8} {'p95ms':>8} "
            f"{'p99ms':>8} {'maxms':>8}"
        )
        for source in sorted(serving.percentiles):
            snap = serving.percentiles[source]
            lines.append(
                f"  {source:<8} {int(snap.get('count', 0)):>7} "
                f"{snap.get('p50_ms', 0.0):>8.2f} "
                f"{snap.get('p95_ms', 0.0):>8.2f} "
                f"{snap.get('p99_ms', 0.0):>8.2f} "
                f"{snap.get('max_ms', 0.0):>8.2f}"
            )
    if serving.queue_capacity:
        lines.append(
            f"queue: depth {serving.queue_depth} "
            f"(max {serving.queue_depth_max}) of {serving.queue_capacity}, "
            f"{serving.inflight} in flight"
        )
    return lines


def _fmt_energy(value: Any) -> str:
    if not isinstance(value, (int, float)):
        return "n/a"
    return f"{float(value):.3f}"


def render_resources(summary: TraceSummary, limit: int = 5) -> List[str]:
    """Render the resource-accounting section (``repro tail --resources``).

    One line per sampled span, costliest CPU first, plus trace totals.
    Energy renders ``n/a`` whenever no probe could read it — absence of
    a RAPL counter must look different from zero joules.
    """
    spans = [s for s in summary.spans.values() if s.resources]
    if not spans:
        return ["resources: no resource events in this trace "
                "(pre-v1.8 trace or sampling disabled)"]
    spans.sort(
        key=lambda s: float(s.resources.get("cpu_s", 0.0) or 0.0), reverse=True
    )
    total_cpu = sum(float(s.resources.get("cpu_s", 0.0) or 0.0) for s in spans)
    peak_rss = max(int(s.resources.get("max_rss_kb", 0) or 0) for s in spans)
    energies = [
        float(s.resources["energy_j"]) for s in spans
        if isinstance(s.resources.get("energy_j"), (int, float))
    ]
    total_energy = sum(energies) if energies else None
    lines = [
        f"resources: {len(spans)} sampled span(s), {total_cpu:.3f} cpu-sec, "
        f"peak rss {peak_rss} KB, energy {_fmt_energy(total_energy)} J"
    ]
    lines.append(
        f"  {'label':<24} {'cpu_s':>8} {'user':>8} {'sys':>8} "
        f"{'rss_kb':>9} {'gc':>4} {'joules':>8}"
    )
    for span in spans[:limit]:
        res = span.resources
        lines.append(
            f"  {(span.label or span.span_id or '-')[:24]:<24} "
            f"{float(res.get('cpu_s', 0.0) or 0.0):>8.3f} "
            f"{float(res.get('cpu_user_s', 0.0) or 0.0):>8.3f} "
            f"{float(res.get('cpu_sys_s', 0.0) or 0.0):>8.3f} "
            f"{int(res.get('max_rss_kb', 0) or 0):>9} "
            f"{int(res.get('gc_collections', 0) or 0):>4} "
            f"{_fmt_energy(res.get('energy_j')):>8}"
        )
    return lines


def render_clocks(summary: TraceSummary, limit: int = 5) -> List[str]:
    """Render the async clock-skew section: one line per async span.

    Shows the completion time the asynchronous guarantee bounds, the
    fastest/slowest per-robot clock spread, and which robot dragged the
    run (with its share of the team's elapsed time) — the async
    counterpart of the serving layer's latency attribution.
    """
    spans = [s for s in summary.spans.values() if s.clock]
    if not spans:
        return []
    spans.sort(key=lambda s: float(s.clock.get("skew", 0.0)), reverse=True)
    lines = [f"async clocks ({len(spans)} span(s), most skewed first):"]
    lines.append(
        f"  {'label':<24} {'k':>4} {'completion':>11} {'max':>9} "
        f"{'skew':>8}  slowest"
    )
    for span in spans[:limit]:
        clock = span.clock
        max_time = float(clock.get("max_time", 0.0))
        slowest_robot = int(clock.get("slowest", 0))
        times = clock.get("times") or []
        share = ""
        try:
            slowest_time = float(times[slowest_robot])
            if max_time > 0:
                share = f" ({slowest_time / max_time:.0%} of wall)"
        except (IndexError, TypeError, ValueError):
            pass
        lines.append(
            f"  {(span.label or span.span_id or '-')[:24]:<24} "
            f"{int(clock.get('k', 0)):>4} "
            f"{float(clock.get('completion_time', 0.0)):>11.2f} "
            f"{max_time:>9.2f} {float(clock.get('skew', 0.0)):>8.3f}  "
            f"robot {slowest_robot}{share}"
        )
    return lines


def render(
    summary: TraceSummary, slowest: int = 5, latency: bool = False,
    resources: bool = False,
) -> List[str]:
    """Render a trace summary as display lines (no trailing newlines)."""
    lines: List[str] = []
    closed = summary.closed_spans()
    open_spans = summary.open_spans()
    # A span whose id equals its trace id is the sweep itself, not a job.
    job_spans = [s for s in closed if s.span_id and s.span_id != s.trace_id]
    # Like ``open_spans``, count only spans that started: the serving
    # layer's span-less events fold into a pseudo-span that never did.
    started = sum(1 for s in summary.spans.values() if s.start_ts is not None)
    lines.append(
        f"trace: {summary.events} events, {started} spans "
        f"({len(closed)} closed), {summary.violations} violations"
    )
    if summary.problem:
        lines.append(f"WARNING: {summary.problem}")
    for span in open_spans:
        lines.append(
            f"OPEN  {span.span_id or '<trace>'}  {span.label or '-'} "
            f"(run_start without run_end)"
        )
    if open_spans:
        # Diagnostic, not a failure: a truncated or crashed trace must
        # never render as silently complete, but it also must not flip
        # the exit code the way a theorem violation does.
        lines.append(
            f"INCOMPLETE: {len(open_spans)} span(s) never ended — trace "
            "truncated or worker crashed; totals below cover closed "
            "spans only"
        )
    if job_spans:
        total_rounds = sum(s.rounds for s in job_spans)
        total_secs = sum(s.duration or 0.0 for s in job_spans)
        rate = total_rounds / total_secs if total_secs > 0 else 0.0
        lines.append(
            f"rounds: {total_rounds} over {total_secs:.3f}s "
            f"({rate:,.0f} rounds/sec aggregate)"
        )
        lines.append("")
        lines.append(f"slowest spans (top {min(slowest, len(job_spans))}):")
        header = (
            f"  {'span':<14} {'label':<24} {'secs':>8} {'rounds':>8} "
            f"{'loop':<9} {'viol':>4}  margins"
        )
        lines.append(header)
        sources = budget_sources()
        for span in job_spans[:slowest]:
            lines.append(
                f"  {span.span_id:<14} {(span.label or '-')[:24]:<24} "
                f"{span.duration or 0.0:>8.3f} {span.rounds:>8} "
                f"{span.backend or '-':<9} "
                f"{span.violations:>4}  {_fmt_margin(span.margins, sources)}"
            )
        fast = sum(1 for s in job_spans if s.backend == "array")
        if fast:
            lines.append(
                f"  {fast} span(s) ran on the array fast path: their "
                "observers saw one whole-run summary, so they carry only "
                "the final round/budget events, and a violation there is "
                "stamped with the terminal round"
            )
    clock_lines = render_clocks(summary, limit=slowest)
    if clock_lines:
        lines.append("")
        lines.extend(clock_lines)
    if resources:
        lines.append("")
        lines.extend(render_resources(summary, limit=slowest))
    if latency:
        lines.append("")
        lines.extend(render_latency(summary.serving))
    if summary.violations == 0:
        lines.append("budget: all margins non-negative (0 violations)")
    else:
        lines.append(
            f"budget: {summary.violations} VIOLATION(S) — a theorem bound "
            "was crossed; inspect the violation events"
        )
    return lines


def tail(
    dir_or_file: str, slowest: int = 5, latency: bool = False,
    resources: bool = False,
) -> str:
    """Load a telemetry trace and return the rendered summary text."""
    events = load_trace(dir_or_file)
    if not events:
        return f"no telemetry events under {dir_or_file}"
    return "\n".join(
        render(
            summarize(events), slowest=slowest, latency=latency,
            resources=resources,
        )
    )


__all__ = [
    "ServingSummary",
    "SpanSummary",
    "TraceSummary",
    "render",
    "render_clocks",
    "render_latency",
    "render_resources",
    "summarize",
    "tail",
]
