"""In-memory spans around the program's public layer calls.

:func:`install` wraps the entry points of each layer (scenario build and
fingerprint, the engine run, the result store, the serve pool's submit,
the telemetry observers and writer) so that, while a :class:`Tracer` is
active, every call records a span: name, start, duration, parent span
and the op it belongs to.  The engine's select/apply/observe split comes
from a :class:`~repro.perf.TimingObserver` passed into each run.  Spans
stay in memory and are written out as JSON lines when the run ends; a
layer's self time is its span's duration minus its children's.

Nothing here is imported by the untraced runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

#: Span names whose time is per-round work of the telemetry observers.
OBSERVER_SPAN = "obs.observers"


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self.active = False
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Per-round observer time and telemetry write time, accumulated
        #: without a span per call (they happen every engine round).
        self.observer_s = 0.0
        self.write_s = 0.0
        #: Where forked pool workers append their spans (sweep runs).
        self.child_path = ""

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, dur: float,
               parent: Optional[int] = None, **meta) -> int:
        """Append one finished span; ``parent`` defaults to the open span."""
        sid = next(self._ids)
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else 0
        self.spans.append({"id": sid, "parent": parent, "op": self.op,
                           "name": name, "start": start, "dur": dur, **meta})
        return sid

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; returns ``(result, span)``."""
        stack = self._stack()
        span = {"id": next(self._ids), "parent": stack[-1] if stack else 0,
                "op": self.op, "name": name, "start": perf_counter(),
                "dur": 0.0}
        stack.append(span["id"])
        try:
            return fn(*args, **kwargs), span
        finally:
            span["dur"] = perf_counter() - span["start"]
            stack.pop()
            self.spans.append(span)

    def reset(self) -> None:
        """Drop recorded spans (a forked worker starts from a clean slate)."""
        self.spans = []
        self._local = threading.local()
        self.observer_s = self.write_s = 0.0

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        data = "".join(json.dumps(span) + "\n" for span in self.spans)
        # One append-mode write, so pool children sharing a file do not
        # interleave their lines.
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, data.encode("utf-8"))
        finally:
            os.close(fd)


TRACER = Tracer()


def _spanned(name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not TRACER.active:
            return original(*args, **kwargs)
        return TRACER.call(name, original, *args, **kwargs)[0]
    return wrapper


def _traced_run(original):
    """``BuiltScenario.run`` with a passed-in timing observer and phases."""
    from repro.perf import TimingObserver

    @functools.wraps(original)
    def wrapper(self, observers=()):
        if not TRACER.active:
            return original(self, observers)
        timing = TimingObserver()
        observed_before = TRACER.observer_s
        row, span = TRACER.call("sim.run", original, self,
                                [timing, *observers])
        span.update(rounds=timing.rounds, reveals=timing.reveals)
        for phase, dur in (("sim.select", timing.select_s),
                           ("sim.apply", timing.apply_s),
                           ("sim.observe", timing.observe_s),
                           (OBSERVER_SPAN, TRACER.observer_s - observed_before)):
            if dur > 0:
                TRACER.record(phase, span["start"], dur, parent=span["id"])
        return row
    return wrapper


def _accumulated(original, attr: str):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not TRACER.active:
            return original(*args, **kwargs)
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            setattr(TRACER, attr, getattr(TRACER, attr) + perf_counter() - start)
    return wrapper


def _traced_submit(original):
    """``ScenarioPool.submit``: the enqueue time and the queue depth after."""
    @functools.wraps(original)
    def wrapper(self, spec, fingerprint):
        start = perf_counter()
        future = original(self, spec, fingerprint)
        if TRACER.active:
            TRACER.record("serve.submit", start, 0.0, key=fingerprint,
                          depth=self.depth)
        return future
    return wrapper


def _keyed_build(original):
    """``ScenarioSpec.build`` keyed by fingerprint (serve queue wait)."""
    @functools.wraps(original)
    def wrapper(self):
        if not TRACER.active:
            return original(self)
        built, span = TRACER.call("scenario.build", original, self)
        span["key"] = _FINGERPRINT(self)
        return built
    return wrapper


def _keyed_put(original):
    @functools.wraps(original)
    def wrapper(self, fingerprint, row):
        if not TRACER.active:
            return original(self, fingerprint, row)
        result, span = TRACER.call("orchestrator.store_put", original, self,
                                   fingerprint, row)
        span["key"] = fingerprint
        return result
    return wrapper


_FINGERPRINT = None
_INSTALLED = False


def install() -> Tracer:
    """Wrap the layer entry points (idempotent) and return the tracer."""
    global _FINGERPRINT, _INSTALLED
    if _INSTALLED:
        return TRACER
    from repro.obs.budget import BudgetObserver
    from repro.obs.metrics import MetricsObserver
    from repro.obs.writer import TelemetryWriter
    from repro.orchestrator.store import ResultStore
    from repro.scenario import BuiltScenario, ScenarioSpec
    from repro.serve.pool import ScenarioPool

    _FINGERPRINT = ScenarioSpec.fingerprint
    ScenarioSpec.fingerprint = _spanned("scenario.fingerprint",
                                        ScenarioSpec.fingerprint)
    ScenarioSpec.build = _keyed_build(ScenarioSpec.build)
    BuiltScenario.run = _traced_run(BuiltScenario.run)
    ResultStore.__init__ = _spanned("orchestrator.store_load",
                                    ResultStore.__init__)
    ResultStore.get = _spanned("orchestrator.store_get", ResultStore.get)
    ResultStore.refresh = _spanned("orchestrator.store_refresh",
                                   ResultStore.refresh)
    ResultStore.put = _keyed_put(ResultStore.put)
    ScenarioPool.submit = _traced_submit(ScenarioPool.submit)
    for cls in (MetricsObserver, BudgetObserver):
        cls.on_round = _accumulated(cls.on_round, "observer_s")
    TelemetryWriter.write = _accumulated(TelemetryWriter.write, "write_s")
    _INSTALLED = True
    return TRACER


def traced_run_jobspec(spec):
    """Pool-child worker: run one job under spans, hand them back by file.

    The child inherits the parent's tracer through fork; it drops the
    parent's spans, records its own, and appends them to the spans file
    the parent named before the sweep (``TRACER.child_path``).
    """
    from repro.orchestrator.jobspec import run_jobspec

    TRACER.reset()
    TRACER.op = _FINGERPRINT(spec)
    row, span = TRACER.call("worker", run_jobspec, spec)
    span["key"] = TRACER.op
    TRACER.dump(TRACER.child_path)
    return row


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Total self time (seconds) per span name."""
    child = defaultdict(float)
    for span in spans:
        if span["parent"]:
            child[span["parent"]] += span["dur"]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["dur"] - child.get(span["id"], 0.0)
    return dict(totals)


def counts(spans: List[Dict]) -> Dict[str, int]:
    """Number of spans per name."""
    out: Dict[str, int] = defaultdict(int)
    for span in spans:
        out[span["name"]] += 1
    return dict(out)


def load_spans(path: str) -> List[Dict]:
    """Read spans written by :meth:`Tracer.dump` (missing file: none)."""
    try:
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except FileNotFoundError:
        return []
