"""Fault-tolerant execution of sweep jobs.

Two layers:

* :func:`run_tasks` — a generic resilient pool.  Each call keeps up to
  ``max_workers`` worker processes alive and feeds them tasks over a
  pipe, one at a time, so a sweep of many small jobs pays for a fork per
  worker, not per job.  Isolation is per process, as before: a hanging
  job has its worker *killed* on timeout and a crashing job (segfault,
  ``os._exit``, OOM-kill) takes down only its own worker — never the
  sweep; either way the next task gets a freshly forked worker.  An
  ordinary exception leaves the worker running.  Failed attempts are
  retried with exponential backoff up to a bounded retry budget.
  ``max_workers <= 1`` runs inline (no processes, no timeout
  enforcement) for tests and fork-less platforms.
* :func:`run_jobspecs` — the content-addressed layer on top: consults a
  :class:`~repro.orchestrator.store.ResultStore` before running anything,
  deduplicates identical fingerprints within one sweep, and records every
  fresh result back into the store, which is what makes interrupted
  sweeps resumable.

Every state transition is reported to a
:class:`~repro.orchestrator.events.ProgressTracker`.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, replace as _dc_replace
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.reduction import ForkingPickler
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple,
)

from .events import ProgressTracker, SweepEvent
from .jobspec import run_jobspec
from .signals import DEFAULT_FLAG, ShutdownFlag
from .store import ResultStore

if TYPE_CHECKING:
    from ..scenario import ScenarioSpec

logger = logging.getLogger(__name__)

#: Upper bound on the default pool size (each worker is forked once per
#: ``run_tasks`` call; sweeps gain little beyond this on the benchmark
#: machines).
_MAX_DEFAULT_WORKERS = 8


def _default_workers() -> int:
    import os

    return max(1, min(os.cpu_count() or 1, _MAX_DEFAULT_WORKERS))


def _mp_context():
    """Prefer fork (cheap, inherits runtime-registered algorithms)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _worker_main(conn, worker: Callable[[Any], Any], inherited) -> None:
    """Worker-process loop: run payloads until told to stop.

    ``inherited`` holds the parent-side pipe ends this process got from
    the fork (its own and those of the workers started before it).  They
    are closed first: once only the parent holds the other end of each
    worker's pipe, a parent that dies reads as EOF in every worker.
    """
    for end in inherited:
        end.close()
    while True:
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):  # parent gone, or ^C
            break
        if kind == "stop":
            break
        try:
            reply = ("ok", worker(payload))
        except Exception as exc:  # isolation boundary: the worker lives on
            reply = ("err", _describe(exc))
        except BaseException as exc:  # SystemExit & co: report, then exit
            reply = ("exit", _describe(exc))
        try:
            data = ForkingPickler.dumps(reply)
        except Exception as exc:  # an unpicklable result fails its task
            data = ForkingPickler.dumps(("err", _describe(exc)))
        try:
            conn.send_bytes(data)
        except OSError:
            break
        if reply[0] == "exit":
            break
    conn.close()


@dataclass
class TaskOutcome:
    """Terminal state of one task submitted to :func:`run_tasks`."""

    index: int
    label: str
    status: str  # "done" | "failed"
    attempts: int
    elapsed: float
    result: Optional[Any] = None
    error: str = ""
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        """Whether the task produced a result."""
        return self.status == "done"


@dataclass
class _Pending:
    index: int
    payload: Any
    label: str
    attempt: int  # next attempt number, 1-based
    ready_at: float  # monotonic time before which it must not start


@dataclass
class _Worker:
    """One live worker process and the task it is running, if any."""

    process: Any
    conn: Any
    item: Optional[_Pending] = None
    started: float = 0.0


def _emit(tracker: Optional[ProgressTracker], **kwargs) -> None:
    if tracker is not None:
        tracker.emit(SweepEvent(**kwargs))


def _interrupted_outcome(index: int, label: str) -> TaskOutcome:
    """The terminal state of a task pre-empted by a shutdown request."""
    return TaskOutcome(
        index=index, label=label, status="failed", attempts=0,
        elapsed=0.0, error="interrupted by shutdown",
    )


class _SpanIds:
    """Maps a task index to its (trace_id, span_id) stamp for events."""

    def __init__(self, spans: Optional[Sequence[str]], trace_id: str):
        self.spans = list(spans) if spans is not None else None
        self.trace_id = trace_id

    def for_index(self, index: int) -> Dict[str, str]:
        span = self.spans[index] if self.spans is not None else ""
        return {"trace_id": self.trace_id, "span_id": span}


def run_tasks(
    payloads: Sequence[Any],
    worker: Callable[[Any], Any],
    *,
    labels: Optional[Sequence[str]] = None,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.1,
    tracker: Optional[ProgressTracker] = None,
    emit_queued: bool = True,
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    spans: Optional[Sequence[str]] = None,
    trace_id: str = "",
    stop: Optional[ShutdownFlag] = None,
) -> List[TaskOutcome]:
    """Run ``worker(payload)`` for every payload, resiliently.

    Parameters
    ----------
    payloads:
        Task inputs; ``worker`` and each payload must be picklable when
        ``max_workers > 1`` (workers run in separate processes and the
        payloads and results cross a pipe).
    max_workers:
        Worker processes, forked as tasks need them and reused from one
        task to the next until the call returns; the workers are stopped
        and joined before it does.  A worker runs one task at a time; a
        ``SystemExit``/``KeyboardInterrupt`` escaping the task is
        reported as its error and ends that worker.  ``<= 1`` runs
        inline in this process — fast for tiny jobs, but without timeout
        enforcement or crash isolation.  ``None`` picks
        ``min(cpu_count, 8)``.
    timeout:
        Per-*attempt* wall-clock budget in seconds; an attempt past it
        has its worker killed and counts as a failure (then retried, if
        budget remains).  A worker that dies or is killed is replaced by
        a fresh one for the next task.
    retries:
        Additional attempts allowed after the first (``1`` → at most two
        attempts per task).
    backoff:
        Base delay before attempt ``i+1``: ``backoff * 2**(i-1)`` seconds.
    on_outcome:
        Called with each terminal :class:`TaskOutcome` *as it settles*
        (completion order, not input order) — the cache layer uses this
        to persist results immediately, so an interrupted run keeps
        every job that finished before the interrupt.  With worker
        processes, each pass of the pool first takes every ready reply,
        then hands the freed workers their next tasks, and only then
        settles the replies in arrival order: ``on_outcome`` runs while
        the next jobs compute.  Replies already taken still settle if
        the hand-off raises (say, a second ^C).  A task's ``elapsed``
        runs from handing it to a worker to the receipt of its reply,
        so it never includes another task's ``on_outcome``.
    spans / trace_id:
        Telemetry correlation ids stamped into every emitted
        :class:`SweepEvent`: ``spans`` aligns with ``payloads`` (one
        span id per task), ``trace_id`` tags the whole call.  Both
        default to empty (no telemetry).
    stop:
        A :class:`~repro.orchestrator.signals.ShutdownFlag` polled
        between scheduling decisions (default: the process-wide flag
        that :func:`~repro.orchestrator.signals.graceful_shutdown`
        binds to SIGINT/SIGTERM).  Once set, no new attempt starts,
        running worker processes are terminated, idle ones are told to
        stop, all of them are reaped, and every
        task that never produced a result is returned as failed with
        an "interrupted by shutdown" error — results that settled
        before the interrupt are kept (and were already flushed via
        ``on_outcome``).

    Returns outcomes in input order; never raises for task failures.
    """
    labels = list(labels) if labels is not None else [
        f"task-{i}" for i in range(len(payloads))
    ]
    if len(labels) != len(payloads):
        raise ValueError("labels and payloads must have the same length")
    if spans is not None and len(spans) != len(payloads):
        raise ValueError("spans and payloads must have the same length")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    tracker_obj = tracker
    ids = _SpanIds(spans, trace_id)
    if emit_queued:
        for i, label in enumerate(labels):
            _emit(tracker_obj, kind="queued", label=label, **ids.for_index(i))

    if max_workers is None:
        max_workers = _default_workers()
    logger.info(
        "run_tasks: %d tasks on %d worker(s) (timeout=%s, retries=%d)",
        len(payloads), max_workers, timeout, retries,
    )
    stop = stop if stop is not None else DEFAULT_FLAG
    if max_workers <= 1:
        return _run_inline(
            payloads, worker, labels, retries, backoff, tracker_obj,
            on_outcome, ids, stop,
        )
    return _run_pooled(
        payloads, worker, labels, max_workers, timeout, retries, backoff,
        tracker_obj, on_outcome, ids, stop,
    )


def _run_inline(
    payloads: Sequence[Any],
    worker: Callable[[Any], Any],
    labels: Sequence[str],
    retries: int,
    backoff: float,
    tracker: Optional[ProgressTracker],
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    ids: Optional[_SpanIds] = None,
    stop: Optional[ShutdownFlag] = None,
) -> List[TaskOutcome]:
    ids = ids if ids is not None else _SpanIds(None, "")
    stop = stop if stop is not None else DEFAULT_FLAG
    outcomes: List[TaskOutcome] = []
    for index, payload in enumerate(payloads):
        label = labels[index]
        stamp = ids.for_index(index)
        if stop.is_set():
            outcome = _interrupted_outcome(index, label)
            _emit(tracker, kind="failed", label=label, detail=outcome.error,
                  **stamp)
            if on_outcome is not None:
                on_outcome(outcome)
            outcomes.append(outcome)
            continue
        error = ""
        outcome = None
        for attempt in range(1, retries + 2):
            _emit(tracker, kind="started", label=label, attempt=attempt,
                  **stamp)
            start = time.perf_counter()
            try:
                result = worker(payload)
            except Exception as exc:  # crash isolation, inline flavour
                error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                logger.warning("task %s attempt %d failed: %s",
                               label, attempt, error)
                if attempt <= retries:
                    _emit(
                        tracker, kind="retry", label=label,
                        attempt=attempt, detail=error, **stamp,
                    )
                    time.sleep(backoff * (2 ** (attempt - 1)))
                    continue
                outcome = TaskOutcome(
                    index=index, label=label, status="failed",
                    attempts=attempt, elapsed=elapsed, error=error,
                )
                _emit(
                    tracker, kind="failed", label=label,
                    attempt=attempt, elapsed=elapsed, detail=error, **stamp,
                )
                break
            elapsed = time.perf_counter() - start
            outcome = TaskOutcome(
                index=index, label=label, status="done",
                attempts=attempt, elapsed=elapsed, result=result,
            )
            _emit(
                tracker, kind="done", label=label,
                attempt=attempt, elapsed=elapsed, **stamp,
            )
            break
        assert outcome is not None
        if on_outcome is not None:
            on_outcome(outcome)
        outcomes.append(outcome)
    return outcomes


def _run_pooled(
    payloads: Sequence[Any],
    worker: Callable[[Any], Any],
    labels: Sequence[str],
    max_workers: int,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    tracker: Optional[ProgressTracker],
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    ids: Optional[_SpanIds] = None,
    stop: Optional[ShutdownFlag] = None,
) -> List[TaskOutcome]:
    ids = ids if ids is not None else _SpanIds(None, "")
    stop = stop if stop is not None else DEFAULT_FLAG
    ctx = _mp_context()
    outcomes: List[Optional[TaskOutcome]] = [None] * len(payloads)
    now = time.monotonic()
    pending = deque(
        _Pending(index=i, payload=p, label=labels[i], attempt=1, ready_at=now)
        for i, p in enumerate(payloads)
    )
    delayed: List[_Pending] = []
    running: List[_Worker] = []
    idle: List[_Worker] = []
    # Finished attempts not yet settled, in the order they arrived.
    received: Deque[Tuple[Any, ...]] = deque()

    def spawn() -> _Worker:
        parent_conn, child_conn = ctx.Pipe()
        inherited = [parent_conn] + [w.conn for w in running + idle]
        process = ctx.Process(
            target=_worker_main, args=(child_conn, worker, inherited),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def start(item: _Pending) -> None:
        slot = idle.pop() if idle else spawn()
        slot.item = item
        # Stamped before the send: the child may run the whole task
        # before this process is scheduled again.
        slot.started = time.monotonic()
        try:
            slot.conn.send(("run", item.payload))
        except OSError:  # the idle worker died under us
            retire(slot)
            detach(slot, "crashed", None, "worker process died "
                   f"(exitcode {slot.process.exitcode})")
            return
        except Exception as exc:  # an unpicklable payload fails its task
            idle.append(slot)
            detach(slot, "error", None, _describe(exc))
            return
        except BaseException:  # ^C mid-send: leave the worker to the reaper
            running.append(slot)
            raise
        running.append(slot)
        _emit(tracker, kind="started", label=item.label, attempt=item.attempt,
              **ids.for_index(item.index))

    def dispatch() -> None:
        """Start every pending task (and due retry) a worker can take."""
        if delayed:
            now = time.monotonic()
            still: List[_Pending] = []
            for item in delayed:
                (pending if item.ready_at <= now else still).append(item)
            delayed[:] = still
        while pending and len(running) < max_workers:
            start(pending.popleft())

    def retire(slot: _Worker) -> None:
        """Close, join and forget a worker that exited or was terminated."""
        if slot in running:
            running.remove(slot)
        slot.conn.close()
        slot.process.join(timeout=5)
        if slot.process.is_alive():  # pragma: no cover - last resort
            slot.process.kill()
            slot.process.join(timeout=5)

    def detach(slot: _Worker, status: str, result: Any, error: str,
               timed_out: bool = False) -> None:
        """Take a finished attempt off its worker; it settles later."""
        received.append((slot.item, time.monotonic() - slot.started,
                         status, result, error, timed_out))
        slot.item = None

    def settle(item: _Pending, elapsed: float, status: str, result: Any,
               error: str, timed_out: bool) -> None:
        """Record a finished attempt: success, retry, or final failure."""
        stamp = ids.for_index(item.index)
        if status == "done":
            outcome = TaskOutcome(
                index=item.index, label=item.label, status="done",
                attempts=item.attempt, elapsed=elapsed, result=result,
            )
            outcomes[item.index] = outcome
            _emit(tracker, kind="done", label=item.label,
                  attempt=item.attempt, elapsed=elapsed, **stamp)
            if on_outcome is not None:
                on_outcome(outcome)
            return
        logger.warning("task %s attempt %d %s: %s", item.label, item.attempt,
                       "timed out" if timed_out else "failed", error)
        if timed_out:
            _emit(tracker, kind="timeout", label=item.label,
                  attempt=item.attempt, elapsed=elapsed, detail=error, **stamp)
        if item.attempt <= retries:
            _emit(tracker, kind="retry", label=item.label,
                  attempt=item.attempt, detail=error, **stamp)
            delayed.append(
                _Pending(
                    index=item.index, payload=item.payload, label=item.label,
                    attempt=item.attempt + 1,
                    ready_at=time.monotonic() + backoff * (2 ** (item.attempt - 1)),
                )
            )
            return
        outcome = TaskOutcome(
            index=item.index, label=item.label, status="failed",
            attempts=item.attempt, elapsed=elapsed, error=error,
            timed_out=timed_out,
        )
        outcomes[item.index] = outcome
        _emit(tracker, kind="failed", label=item.label,
              attempt=item.attempt, elapsed=elapsed, detail=error, **stamp)
        if on_outcome is not None:
            on_outcome(outcome)

    def receive(ready: Sequence[Any]) -> None:
        """Take every ready reply; kill attempts past their timeout."""
        ready_set = set(ready)
        for slot in list(running):
            if slot.conn in ready_set:
                try:
                    kind, payload = slot.conn.recv()
                except (EOFError, OSError):
                    # Child died without reporting: crash isolation.
                    retire(slot)
                    detach(slot, "crashed", None, "worker process died "
                           f"(exitcode {slot.process.exitcode})")
                    continue
                if kind == "ok":
                    detach(slot, "done", payload, "")
                else:
                    detach(slot, "error", None, payload)
                if kind == "exit":
                    retire(slot)
                else:
                    running.remove(slot)
                    idle.append(slot)
            elif timeout is not None and (
                time.monotonic() - slot.started
            ) > timeout:
                slot.process.terminate()
                retire(slot)
                detach(slot, "timeout", None,
                       f"timed out after {timeout:.1f}s", timed_out=True)

    try:
        while pending or delayed or running:
            if stop.is_set():
                # Graceful drain: start nothing new, kill what's running
                # (the finally block reaps), report the rest interrupted.
                logger.warning(
                    "run_tasks: shutdown requested — terminating %d running, "
                    "dropping %d pending task(s)",
                    len(running), len(pending) + len(delayed),
                )
                break
            try:
                dispatch()
                if not running:
                    if delayed:
                        time.sleep(max(
                            0.0,
                            min(i.ready_at for i in delayed) - time.monotonic(),
                        ))
                    continue
                poll = 0.1
                if timeout is not None:
                    nearest = min(s.started + timeout for s in running)
                    poll = max(0.0, min(poll, nearest - time.monotonic()))
                receive(_conn_wait([s.conn for s in running], timeout=poll))
                # Freed workers get their next task before the replies
                # settle: persisting a result overlaps the next job.
                if not stop.is_set():
                    dispatch()
            finally:
                # Also on an exception (a second ^C mid-dispatch): every
                # received result still reaches ``on_outcome``.
                while received:
                    settle(*received.popleft())
    finally:
        for slot in running:
            slot.process.terminate()
        for slot in idle:
            try:
                slot.conn.send(("stop", None))
            except OSError:
                pass
        for slot in running + idle:
            retire(slot)

    # Tasks pre-empted by a shutdown request (still pending, delayed, or
    # terminated while running) settle as interrupted failures; every
    # result that finished before the interrupt is already in place.
    for index, outcome in enumerate(outcomes):
        if outcome is None:
            interrupted = _interrupted_outcome(index, labels[index])
            outcomes[index] = interrupted
            _emit(tracker, kind="failed", label=labels[index],
                  detail=interrupted.error, **ids.for_index(index))
            if on_outcome is not None:
                on_outcome(interrupted)

    assert all(outcome is not None for outcome in outcomes)
    return [outcome for outcome in outcomes if outcome is not None]


# ---------------------------------------------------------------------
# Content-addressed layer
# ---------------------------------------------------------------------

@dataclass
class JobOutcome:
    """Terminal state of one scenario spec in an orchestrated sweep."""

    spec: ScenarioSpec
    fingerprint: str
    status: str  # "done" | "cache-hit" | "failed"
    attempts: int
    elapsed: float
    row: Optional[Dict[str, object]] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        """Whether a result row is available (fresh or cached)."""
        return self.row is not None


def run_jobspecs(
    specs: Sequence[ScenarioSpec],
    *,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.1,
    tracker: Optional[ProgressTracker] = None,
    telemetry=None,
    stop: Optional[ShutdownFlag] = None,
) -> List[JobOutcome]:
    """Run a sweep of job specs through the cache and the resilient pool.

    For every spec: consult the store (a hit returns the cached row with
    the spec's display label patched in, simulating nothing); group the
    misses by fingerprint so duplicate jobs in one sweep run once; fan
    the unique misses over :func:`run_tasks`; insert fresh rows back into
    the store.  Outcomes come back in input order and job failures are
    *reported*, never raised — one pathological job cannot abort a sweep.

    ``telemetry`` (a :class:`repro.obs.TelemetryConfig`, or ``None``)
    switches the sweep onto the instrumented path: every spec gets a
    span id, workers run under :func:`repro.obs.run_telemetry_job`
    (engine rounds and theorem-budget margins stream into the shared
    JSONL trace), orchestrator :class:`SweepEvent` transitions are
    mirrored into the trace as ``span`` events, and the whole sweep is
    bracketed by a trace-level ``run_start``/``run_end`` pair.
    """
    if telemetry is None:
        return _run_jobspecs(
            specs, store=store, use_cache=use_cache, max_workers=max_workers,
            timeout=timeout, retries=retries, backoff=backoff, tracker=tracker,
            stop=stop,
        )

    from ..obs.schema import new_span_id

    tracker = tracker if tracker is not None else ProgressTracker()
    span_ids = [new_span_id() for _ in specs]
    writer = telemetry.open()
    original_sink = tracker.sink

    def sink(event: SweepEvent) -> None:
        if original_sink is not None:
            original_sink(event)
        stamped = event if event.trace_id else _dc_replace(
            event, trace_id=telemetry.trace_id
        )
        writer.write(stamped.to_telemetry())

    tracker.sink = sink
    writer.emit(
        "run_start",
        span_id=telemetry.trace_id,  # trace-level span: the sweep itself
        data={"jobs": len(specs)},
    )
    try:
        outcomes = _run_jobspecs(
            specs, store=store, use_cache=use_cache, max_workers=max_workers,
            timeout=timeout, retries=retries, backoff=backoff, tracker=tracker,
            telemetry=telemetry, span_ids=span_ids, stop=stop,
        )
        writer.emit(
            "run_end",
            span_id=telemetry.trace_id,
            data={
                "jobs": len(specs),
                "done": sum(1 for o in outcomes if o.status == "done"),
                "cache_hits": sum(
                    1 for o in outcomes if o.status == "cache-hit"
                ),
                "failed": sum(1 for o in outcomes if o.status == "failed"),
            },
        )
        return outcomes
    finally:
        tracker.sink = original_sink
        writer.close()


def _run_jobspecs(
    specs: Sequence[ScenarioSpec],
    *,
    store: Optional[ResultStore],
    use_cache: bool,
    max_workers: Optional[int],
    timeout: Optional[float],
    retries: int,
    backoff: float,
    tracker: Optional[ProgressTracker],
    telemetry=None,
    span_ids: Optional[List[str]] = None,
    stop: Optional[ShutdownFlag] = None,
) -> List[JobOutcome]:
    tracker = tracker if tracker is not None else ProgressTracker()
    trace_id = telemetry.trace_id if telemetry is not None else ""
    if span_ids is None:
        span_ids = [""] * len(specs)
    fingerprints = [spec.fingerprint() for spec in specs]
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    for i, (spec, fingerprint) in enumerate(zip(specs, fingerprints)):
        tracker.emit(SweepEvent(kind="queued", label=spec.label or spec.algorithm,
                                fingerprint=fingerprint,
                                trace_id=trace_id, span_id=span_ids[i]))

    # Cache lookups.
    misses: List[int] = []
    for i, (spec, fingerprint) in enumerate(zip(specs, fingerprints)):
        row = store.get(fingerprint) if (store is not None and use_cache) else None
        if row is not None:
            row["label"] = spec.label
            outcomes[i] = JobOutcome(
                spec=spec, fingerprint=fingerprint, status="cache-hit",
                attempts=0, elapsed=0.0, row=row,
            )
            tracker.emit(SweepEvent(kind="cache-hit",
                                    label=spec.label or spec.algorithm,
                                    fingerprint=fingerprint,
                                    trace_id=trace_id, span_id=span_ids[i]))
        else:
            misses.append(i)

    # Deduplicate identical jobs within the sweep.
    runners: List[int] = []  # indices that actually execute
    followers: Dict[str, List[int]] = {}
    first_for: Dict[str, int] = {}
    for i in misses:
        fingerprint = fingerprints[i]
        if fingerprint in first_for:
            followers.setdefault(fingerprint, []).append(i)
        else:
            first_for[fingerprint] = i
            runners.append(i)

    def persist(task: TaskOutcome) -> None:
        """Write each fresh result to the store *as it settles*, so a
        sweep interrupted mid-run keeps every job finished so far."""
        if not task.ok:
            return
        fingerprint = fingerprints[runners[task.index]]
        row = dict(task.result)
        if store is not None:
            store.put(fingerprint, row)
        tracker.add_rounds(int(row.get("rounds", 0)),
                           float(row.get("elapsed", 0.0)))

    if runners:
        # Workers are forked per call: load the run path here, once, not
        # in every worker of every batch.
        from ..scenario import preload

        preload()
    if telemetry is not None:
        from ..obs.runner import TelemetryJob, run_telemetry_job

        payloads: List[Any] = [
            TelemetryJob(spec=specs[i], config=telemetry, span_id=span_ids[i])
            for i in runners
        ]
        worker: Callable[[Any], Any] = run_telemetry_job
    else:
        payloads = [specs[i] for i in runners]
        worker = run_jobspec

    task_outcomes = run_tasks(
        payloads,
        worker,
        labels=[specs[i].label or specs[i].algorithm for i in runners],
        max_workers=max_workers,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        tracker=tracker,
        emit_queued=False,
        on_outcome=persist,
        spans=[span_ids[i] for i in runners],
        trace_id=trace_id,
        stop=stop,
    )

    for spec_index, task in zip(runners, task_outcomes):
        spec = specs[spec_index]
        fingerprint = fingerprints[spec_index]
        if task.ok:
            row = dict(task.result)
            outcomes[spec_index] = JobOutcome(
                spec=spec, fingerprint=fingerprint, status="done",
                attempts=task.attempts, elapsed=task.elapsed, row=row,
            )
        else:
            outcomes[spec_index] = JobOutcome(
                spec=spec, fingerprint=fingerprint, status="failed",
                attempts=task.attempts, elapsed=task.elapsed, error=task.error,
            )
        # Propagate to duplicates of this fingerprint.
        for dup_index in followers.get(fingerprint, []):
            dup_spec = specs[dup_index]
            base = outcomes[spec_index]
            dup_row = dict(base.row) if base.row is not None else None
            if dup_row is not None:
                dup_row["label"] = dup_spec.label
                tracker.emit(SweepEvent(
                    kind="cache-hit", label=dup_spec.label or dup_spec.algorithm,
                    fingerprint=fingerprint, detail="deduplicated within sweep",
                    trace_id=trace_id, span_id=span_ids[dup_index],
                ))
                outcomes[dup_index] = JobOutcome(
                    spec=dup_spec, fingerprint=fingerprint, status="cache-hit",
                    attempts=0, elapsed=0.0, row=dup_row,
                )
            else:
                tracker.emit(SweepEvent(
                    kind="failed", label=dup_spec.label or dup_spec.algorithm,
                    fingerprint=fingerprint, detail=base.error,
                    trace_id=trace_id, span_id=span_ids[dup_index],
                ))
                outcomes[dup_index] = JobOutcome(
                    spec=dup_spec, fingerprint=fingerprint, status="failed",
                    attempts=base.attempts, elapsed=0.0, error=base.error,
                )

    assert all(outcome is not None for outcome in outcomes)
    return [outcome for outcome in outcomes if outcome is not None]


__all__ = ["JobOutcome", "TaskOutcome", "run_jobspecs", "run_tasks"]
