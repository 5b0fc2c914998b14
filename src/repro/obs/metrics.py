"""Metrics primitives and the per-round engine metrics observer.

The registry half is a small, dependency-free take on the counter /
gauge / histogram trio of serving-stack metric systems: every metric has
a name and optional labels, values are plain floats, and
:meth:`MetricsRegistry.collect` renders the whole registry as flat
sample dicts (rows for tables, payloads for telemetry events).

:class:`MetricsObserver` is the bridge from the shared
:class:`~repro.sim.runloop.RoundEngine` into that registry *and* into
the telemetry event log: per round it records moves, idles, reveals,
re-anchors and interference blocks, plus the engine's per-phase wall
times (via the existing ``on_phase_times`` hook), and periodically
flushes cumulative ``round`` events carrying its trace/span ids.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from itertools import repeat
from operator import countOf, itemgetter
from typing import Any, Dict, List, Optional, Tuple

from ..sim.runloop import RoundObserver, RoundRecord, RoundState, RunOutcome
from .writer import NullWriter

logger = logging.getLogger(__name__)

#: Canonical label encoding: a sorted tuple of (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base class: a named family of labelled float values."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        if not name:
            raise ValueError("metrics need a non-empty name")
        self.name = name
        self.help = help
        self._values: Dict[LabelSet, float] = {}

    def value(self, **labels: Any) -> float:
        """The current value for one label combination (0.0 if unseen)."""
        return self._values.get(_labelset(labels), 0.0)

    def samples(self) -> List[Dict[str, Any]]:
        """Flat sample dicts: ``{"name", "kind", "labels", "value"}``."""
        return [
            {
                "name": self.name,
                "kind": self.kind,
                "labels": dict(labelset),
                "value": value,
            }
            for labelset, value in sorted(self._values.items())
        ]

    def reset(self) -> None:
        """Drop every labelled value."""
        self._values.clear()

    def merge(self, other: "Metric") -> None:
        """Fold another instance of this metric into this one.

        Merging is commutative and associative (values add per label
        set), so folding per-worker registries from a process pool
        yields the same totals in any arrival order.  Gauges merge by
        summation too — the pool-aggregation reading of a gauge is
        "each worker's contribution", not "last writer wins", which
        would be order-dependent.
        """
        if type(other) is not type(self):
            raise ValueError(
                f"cannot merge {other.kind} {other.name!r} into "
                f"{self.kind} {self.name!r}"
            )
        for key, value in other._values.items():
            self._values[key] = self._values.get(key, 0.0) + value


class Counter(Metric):
    """Monotonically increasing count (per label combination)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(Metric):
    """A value that can move both ways (per label combination)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the labelled gauge."""
        self._values[_labelset(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (either sign) to the labelled gauge."""
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Histogram(Metric):
    """Cumulative-bucket histogram (per label combination).

    Buckets are fixed upper bounds; ``observe`` also maintains ``sum``
    and ``count`` so means survive aggregation.
    """

    kind = "histogram"

    #: Default buckets sized for per-phase engine times (seconds).
    DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

    def __init__(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS):
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histograms need at least one bucket")
        #: Bucket counts per label set; their sum is the observation
        #: count, and ``_values`` holds the running sum.
        self._counts: Dict[LabelSet, List[int]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation."""
        self._observe(_labelset(labels), value)

    def _observe(self, key: LabelSet, value: float) -> None:
        """Record one observation under an already encoded label set."""
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * (len(self.buckets) + 1)
        counts[bisect_right(self.buckets, value)] += 1
        values = self._values
        values[key] = values.get(key, 0.0) + value  # `value()` returns the sum

    def samples(self) -> List[Dict[str, Any]]:
        """Sum/count/bucket samples per label combination."""
        out: List[Dict[str, Any]] = []
        for key in sorted(self._counts):
            out.append(
                {
                    "name": self.name,
                    "kind": self.kind,
                    "labels": dict(key),
                    "value": self._values[key],
                    "count": sum(self._counts[key]),
                    "buckets": {
                        str(bound): n
                        for bound, n in zip(
                            list(self.buckets) + ["inf"], self._counts[key]
                        )
                    },
                }
            )
        return out

    def reset(self) -> None:
        super().reset()
        self._counts.clear()

    def merge(self, other: "Metric") -> None:
        """Fold another histogram in: bucket-wise and sum/count adds."""
        if type(other) is not type(self) or other.buckets != self.buckets:  # type: ignore[attr-defined]
            raise ValueError(
                f"cannot merge into histogram {self.name!r}: "
                "kind or bucket bounds differ"
            )
        assert isinstance(other, Histogram)
        for key, counts in other._counts.items():
            mine = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
            for i, n in enumerate(counts):
                mine[i] += n
            self._values[key] = (
                self._values.get(key, 0.0) + other._values.get(key, 0.0)
            )


class MetricsRegistry:
    """A named collection of metrics (one per run, sweep, or process)."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _register(self, metric: Metric) -> Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get-or-create a :class:`Counter`."""
        return self._register(Counter(name, help))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get-or-create a :class:`Gauge`."""
        return self._register(Gauge(name, help))  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets=Histogram.DEFAULT_BUCKETS
    ) -> Histogram:
        """Get-or-create a :class:`Histogram`."""
        return self._register(Histogram(name, help, buckets))  # type: ignore[return-value]

    def collect(self) -> List[Dict[str, Any]]:
        """Every sample of every metric, in name order."""
        samples: List[Dict[str, Any]] = []
        for name in sorted(self._metrics):
            samples.extend(self._metrics[name].samples())
        return samples

    def reset(self) -> None:
        """Reset every metric (the registry keeps its families)."""
        for metric in self._metrics.values():
            metric.reset()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one, metric by metric.

        Unknown families are adopted (same kind, same buckets); known
        ones merge commutatively — see :meth:`Metric.merge` — so
        per-worker registries can be folded in any order with identical
        results.  A name registered under two different kinds raises.
        """
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(metric, Histogram):
                    mine = Histogram(name, metric.help, metric.buckets)
                else:
                    mine = type(metric)(name, metric.help)
                self._metrics[name] = mine
            mine.merge(metric)


def _is_mover(move: Any) -> bool:
    """Whether a selected move is an actual move (not a stay)."""
    return isinstance(move, tuple) and bool(move) and move[0] != "stay"


_first = itemgetter(0)

#: Moves per round above which :meth:`MetricsObserver.on_round` counts
#: movers in C.  Below it the per-move test is cheaper than setting up
#: the C-level count (measured on CPython 3.11: 0.5 vs 1.4 us for one
#: move, 12.6 vs 8.9 us for 64; the two cross at about 8).
_C_COUNT_MIN_MOVES = 8


class MetricsObserver(RoundObserver):
    """Streams per-round engine metrics into a registry and the event log.

    Counts, per run: mover moves executed, interference-struck moves,
    idle robot-rounds, reveal events and re-anchor calls (tree states
    expose them through ``state.expl.metrics.reanchors``); accumulates
    the engine's select/apply/observe phase times.  Every ``every``
    rounds — and once at termination — the cumulative counters are
    flushed as one ``round`` telemetry event carrying the observer's
    trace/span ids.

    Batch-capable: on the array fast path the same counters arrive in
    one whole-run summary (:meth:`on_batch`), so such a run emits no
    intermediate ``round`` events, only the final one.
    """

    wants_phase_timing = True
    supports_batch = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        writer=None,
        span_id: str = "",
        fingerprint: str = "",
        label: str = "",
        every: int = 100,
    ):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.writer = writer if writer is not None else NullWriter()
        self.span_id = span_id
        self.fingerprint = fingerprint
        self.label = label
        self.every = every
        self._phase_hist = self.registry.histogram(
            "engine_phase_seconds", "per-round engine phase wall time"
        )
        self._phase_keys = tuple(
            _labelset({"phase": phase}) for phase in ("select", "apply", "observe")
        )
        self._reset_run()

    def _reset_run(self) -> None:
        self.rounds = 0
        self.billed_rounds = 0
        self.moves = 0
        self.blocked = 0
        self.idle = 0
        self.reveals = 0
        self.reanchors = 0
        self.select_s = 0.0
        self.apply_s = 0.0
        self.observe_s = 0.0
        self._reanchor_seen = 0

    # ------------------------------------------------------------------
    def on_attach(self, state: RoundState) -> None:
        """Reset the per-run counters (the registry accumulates)."""
        self._reset_run()

    def on_phase_times(
        self, select_s: float, apply_s: float, observe_s: float
    ) -> None:
        """Accumulate one round's phase durations into the histograms."""
        self.select_s += select_s
        self.apply_s += apply_s
        self.observe_s += observe_s
        observe = self._phase_hist._observe
        select_key, apply_key, observe_key = self._phase_keys
        observe(select_key, select_s)
        observe(apply_key, apply_s)
        observe(observe_key, observe_s)

    def on_round(self, state: RoundState, record: RoundRecord) -> None:
        """Fold one :class:`RoundRecord` into the counters."""
        self.rounds += 1
        self.billed_rounds = record.billed
        moves = record.moves
        movers = 0
        if isinstance(moves, dict):
            values = moves.values()
            if (
                not record.struck
                and len(values) > _C_COUNT_MIN_MOVES
                and all(map(isinstance, values, repeat(tuple)))
                and () not in values
            ):
                # Every move is a non-empty tuple and none was struck:
                # the movers are the moves whose kind is not "stay".
                movers = len(values) - countOf(map(_first, values), "stay")
            else:
                for agent, move in moves.items():
                    if not _is_mover(move):
                        continue
                    if agent in record.struck:
                        self.blocked += 1
                    else:
                        movers += 1
        self.moves += movers
        team = state.team()
        if team is not None and record.billed > record.billed_before:
            self.idle += len(team) - movers
        events = record.events
        if events is not None:
            try:
                self.reveals += len(events)
            except TypeError:
                pass
        metrics = getattr(getattr(state, "expl", None), "metrics", None)
        if metrics is not None:
            total = len(metrics.reanchors)
            self.reanchors += total - self._reanchor_seen
            self._reanchor_seen = total
        if self.rounds % self.every == 0:
            self._flush(record.t + 1, final=False)

    def on_batch(self, state: RoundState, summary: Dict[str, Any]) -> None:
        """Take the array fast path's whole-run totals as the counters.

        Its phase times fold into the histograms once."""
        self.rounds = summary["rounds"]
        self.billed_rounds = summary["billed"]
        self.moves = summary["moves"]
        self.idle = summary["idle"]
        self.reveals = summary["reveals"]
        self.reanchors = summary["reanchors"]
        phases = summary["phases"]
        self.on_phase_times(
            phases["select"], phases["apply"], phases["observe"]
        )

    def on_stop(self, state: RoundState, outcome: RunOutcome) -> None:
        """Flush the final cumulative ``round`` event and the gauges.

        Asynchronous runs publish their per-robot clock on the state
        (:class:`~repro.sim.scheduler.AsyncClock`); when present, its
        summary goes out as one ``clock`` event so trace readers
        (``repro tail``) can attribute wall time to the slowest robot.
        """
        self.billed_rounds = outcome.billed_rounds
        counters = self.registry.counter(
            "run_totals", "cumulative per-run engine counters"
        )
        for key, value in self.snapshot().items():
            if isinstance(value, (int, float)):
                counters.inc(float(value), field=key)
        self._flush(outcome.wall_rounds, final=True)
        clock = getattr(state, "clock", None)
        if clock is not None and hasattr(clock, "summary"):
            self.writer.emit(
                "clock",
                span_id=self.span_id,
                fingerprint=self.fingerprint,
                label=self.label,
                data=clock.summary(),
            )

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Flat cumulative counters (merged into orchestrator rows)."""
        return {
            "rounds": self.rounds,
            "billed_rounds": self.billed_rounds,
            "moves": self.moves,
            "blocked": self.blocked,
            "idle": self.idle,
            "reveals": self.reveals,
            "reanchors": self.reanchors,
            "select_s": round(self.select_s, 6),
            "apply_s": round(self.apply_s, 6),
            "observe_s": round(self.observe_s, 6),
        }

    def _flush(self, wall_round: int, final: bool) -> None:
        data = self.snapshot()
        data["wall_round"] = wall_round
        data["final"] = final
        self.writer.emit(
            "round",
            span_id=self.span_id,
            fingerprint=self.fingerprint,
            label=self.label,
            data=data,
        )


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabelSet",
    "Metric",
    "MetricsObserver",
    "MetricsRegistry",
]
