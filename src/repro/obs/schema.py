"""The telemetry event schema: one fixed shape for every event.

Every event the telemetry layer emits — from the CLI down to individual
engine rounds inside worker processes — is a :class:`TelemetryEvent`
with the same six-kind vocabulary:

``run_start`` / ``run_end``
    Brackets one span (one simulation run, or one whole sweep when the
    ``span_id`` equals the ``trace_id``).  ``run_end`` carries the run's
    outcome summary in ``data``, including ``backend``: the loop that
    ran it (``array`` or ``reference``).
``round``
    Periodic per-round metrics flushed by
    :class:`~repro.obs.metrics.MetricsObserver` (cumulative moves,
    idles, reveals, re-anchors, interference blocks, phase times).  A
    run on the array fast path emits only the final one.
``span``
    A job state transition relayed from the orchestrator's
    :class:`~repro.orchestrator.events.SweepEvent` stream
    (queued/started/cache-hit/retry/timeout/done/failed).
``budget``
    A running theorem-budget margin sample from
    :class:`~repro.obs.budget.BudgetObserver`.
``violation``
    A theorem bound was crossed — the paper's guarantees as runtime
    assertions; emitted at the exact round the margin goes negative
    (on the array fast path: at the run's terminal round).
``request``
    One scenario request served by the ``repro serve`` daemon
    (client id, outcome source ``cache``/``dedup``/``fresh``, status,
    latency in milliseconds).
``queue``
    A periodic queue-depth/in-flight gauge sample from the server's
    bounded execution queue.
``latency``
    A periodic request-latency percentile snapshot (p50/p95/p99 per
    outcome source), rendered by ``repro tail --latency``.
``resource``
    One span's resource bill from
    :class:`~repro.obs.resources.ResourceSampler`: CPU user/sys
    seconds, peak-RSS high-water mark and delta, GC collections, wall
    time, and RAPL joules when the host exposes them (``energy_j`` is
    ``null`` when unmeasurable).  Rendered by ``repro tail
    --resources`` and pivoted by ``repro report``.

Correlation model: a *trace* is one sweep / CLI invocation
(``trace_id``), a *span* is one job or run within it (``span_id``).
Timestamps are monotonic (``time.monotonic``), so per-span durations are
meaningful even when events from several worker processes interleave in
one file.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Dict, Iterable, Mapping, Optional

#: Event kinds, in rough lifecycle order.  The ``request``/``queue``/
#: ``latency`` trio is emitted by the serving layer (``repro serve``);
#: ``clock`` carries the per-robot clock summary of an asynchronous run
#: (times, skew, slowest robot — see ``repro.sim.scheduler.AsyncClock``);
#: additions here are backward compatible — readers skip unknown kinds.
EVENT_TYPES = (
    "run_start",
    "request",
    "round",
    "span",
    "queue",
    "latency",
    "budget",
    "violation",
    "clock",
    "resource",
    "run_end",
)

#: Schema tag written into every event; bump on incompatible changes.
TELEMETRY_SCHEMA = "repro-telemetry-v1"


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (one per sweep / CLI invocation)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 12-hex-digit span id (one per job / run)."""
    return uuid.uuid4().hex[:12]


@dataclass(frozen=True)
class TelemetryEvent:
    """One telemetry event (see the module docstring for the vocabulary).

    ``data`` holds the event-type-specific payload as a flat-ish JSON
    object; everything else is the fixed correlation envelope.
    """

    event: str
    trace_id: str
    span_id: str = ""
    #: Monotonic timestamp (``time.monotonic()`` seconds).
    ts: float = field(default_factory=monotonic)
    #: Per-writer sequence number (orders events with equal timestamps).
    seq: int = 0
    #: Scenario fingerprint of the emitting job ("" for trace-level events).
    fingerprint: str = ""
    #: Display label of the emitting job or sweep.
    label: str = ""
    data: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.event not in EVENT_TYPES:
            raise ValueError(
                f"unknown telemetry event type {self.event!r} "
                f"(known: {', '.join(EVENT_TYPES)})"
            )
        if not self.trace_id:
            raise ValueError("telemetry events need a non-empty trace_id")
        if self.ts < 0:
            raise ValueError("telemetry timestamps must be >= 0")
        if self.seq < 0:
            raise ValueError("telemetry sequence numbers must be >= 0")
        if not isinstance(self.data, Mapping):
            raise ValueError("event data must be a mapping")
        object.__setattr__(self, "data", dict(self.data))

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-object form written to the event log."""
        return {
            "schema": TELEMETRY_SCHEMA,
            "event": self.event,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "ts": round(self.ts, 6),
            "seq": self.seq,
            "fingerprint": self.fingerprint,
            "label": self.label,
            "data": dict(self.data),
        }

    def to_json(self) -> str:
        """One compact JSON line (the on-disk JSONL record)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TelemetryEvent":
        """Rebuild an event from its :meth:`to_dict` form."""
        schema = payload.get("schema", TELEMETRY_SCHEMA)
        if schema != TELEMETRY_SCHEMA:
            raise ValueError(
                f"telemetry schema {schema!r} != {TELEMETRY_SCHEMA!r}"
            )
        return cls(
            event=str(payload["event"]),
            trace_id=str(payload["trace_id"]),
            span_id=str(payload.get("span_id", "")),
            ts=float(payload.get("ts", 0.0)),
            seq=int(payload.get("seq", 0)),
            fingerprint=str(payload.get("fingerprint", "")),
            label=str(payload.get("label", "")),
            data=payload.get("data", {}),
        )

    @classmethod
    def from_json(cls, line: str) -> "TelemetryEvent":
        """Rebuild an event from one JSONL line."""
        return cls.from_dict(json.loads(line))


def validate_events(events: Iterable[TelemetryEvent]) -> Optional[str]:
    """Cheap structural check of an event stream.

    Returns a human-readable problem description, or ``None`` when the
    stream is well formed: every ``run_start`` span also ends, and no
    span ends without starting.
    """
    started: Dict[str, str] = {}
    ended: Dict[str, str] = {}
    for ev in events:
        key = (ev.trace_id, ev.span_id)
        if ev.event == "run_start":
            started[key] = ev.label
        elif ev.event == "run_end":
            if key not in started:
                return f"span {ev.span_id!r} ends without a run_start"
            ended[key] = ev.label
    unfinished = set(started) - set(ended)
    if unfinished:
        span = sorted(unfinished)[0]
        return f"span {span[1]!r} has a run_start but no run_end"
    return None


__all__ = [
    "EVENT_TYPES",
    "TELEMETRY_SCHEMA",
    "TelemetryEvent",
    "new_span_id",
    "new_trace_id",
    "validate_events",
]
