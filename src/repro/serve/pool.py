"""The server's execution stage: a bounded queue in front of workers.

Cache misses are submitted here.  ``submit()`` either enqueues the
scenario and returns an :class:`asyncio.Future` for its result row, or
raises :class:`PoolSaturated` when the bounded queue is full — the
server turns that into an immediate 503, which is the backpressure
contract: a burst beyond capacity degrades into fast, honest refusals
instead of unbounded memory growth and timeout cascades.

Execution itself happens off the event loop, on the threads of a
dedicated executor — cheap, and fine for the pure-Python simulators.
A scenario that raises fails only its own request; threads cannot be
killed, so there is no per-scenario timeout.  Tests inject ``runner``
to fake execution entirely.

Completed rows are appended to the shared :class:`~repro.orchestrator.
store.ResultStore` *from the worker thread, before the future
resolves*, so by the time any waiter observes a result the row is
already answerable from the cache — there is no window in which a new
request for the same fingerprint would recompute.
"""

from __future__ import annotations

import asyncio
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Callable, Dict, List, Optional

from ..orchestrator.store import ResultStore
from ..scenario import ScenarioSpec, preload, run_scenario

logger = logging.getLogger(__name__)

__all__ = ["ExecutionFailed", "PoolJob", "PoolSaturated", "ScenarioPool"]


class PoolSaturated(Exception):
    """The bounded queue is full; the caller should answer 503."""


class ExecutionFailed(Exception):
    """The scenario ran and failed (it raised), or was drained unrun."""


@dataclass
class PoolJob:
    """One queued scenario: the spec, its future, and queue timing."""

    spec: ScenarioSpec
    fingerprint: str
    future: "asyncio.Future"
    enqueued_at: float = field(default_factory=monotonic)


class ScenarioPool:
    """Bounded-queue scenario executor feeding the shared store.

    Parameters
    ----------
    store:
        Result store rows are appended to as they settle (optional —
        tests may run storeless).
    workers:
        Concurrent executions (worker coroutines, each holding one
        executor thread while a scenario runs).
    queue_depth:
        Bound on queued-but-not-started jobs; beyond it ``submit``
        raises :class:`PoolSaturated`.
    runner:
        Test hook: a callable ``spec -> row`` replacing real execution.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        workers: int = 4,
        queue_depth: int = 64,
        runner: Optional[Callable[[ScenarioSpec], Dict[str, Any]]] = None,
    ):
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.store = store
        self.workers = workers
        self.queue_depth = queue_depth
        self._runner = runner or run_scenario
        self._queue: "asyncio.Queue[PoolJob]" = asyncio.Queue(
            maxsize=queue_depth
        )
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._tasks: List["asyncio.Task"] = []
        self._accepting = True
        #: Scenarios actually executed (the dedup test's ground truth).
        self.executions = 0
        self.failures = 0
        #: Jobs currently running on a worker (not counting queued).
        self.inflight = 0

    # -- queue state ---------------------------------------------------
    @property
    def depth(self) -> int:
        """Jobs queued and not yet picked up by a worker."""
        return self._queue.qsize()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Load the run path, then spawn the worker coroutines (idempotent).

        Loading here keeps the first request of each kind from paying
        for the imports.
        """
        if self._tasks:
            return
        preload()
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._worker(i)) for i in range(self.workers)
        ]

    def submit(self, spec: ScenarioSpec, fingerprint: str) -> "asyncio.Future":
        """Enqueue a scenario; the returned future resolves to its row.

        Raises :class:`PoolSaturated` when the queue is full or the pool
        is draining.
        """
        if not self._accepting:
            raise PoolSaturated("pool is draining")
        job = PoolJob(
            spec=spec,
            fingerprint=fingerprint,
            future=asyncio.get_running_loop().create_future(),
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            raise PoolSaturated(
                f"execution queue full ({self.queue_depth} deep)"
            ) from None
        return job.future

    async def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Stop accepting, finish queued work, stop workers.

        Returns whether the queue fully drained within ``timeout``
        (unfinished jobs' futures are failed either way).
        """
        self._accepting = False
        drained = True
        try:
            await asyncio.wait_for(self._queue.join(), timeout)
        except asyncio.TimeoutError:
            drained = False
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks = []
        while not self._queue.empty():  # jobs never picked up
            job = self._queue.get_nowait()
            if not job.future.done():
                job.future.set_exception(
                    ExecutionFailed("server drained before execution")
                )
            self._queue.task_done()
        self._executor.shutdown(wait=False)
        return drained

    # -- execution -----------------------------------------------------
    async def _worker(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            self.inflight += 1
            try:
                row = await loop.run_in_executor(
                    self._executor, self._execute_and_store, job.spec,
                    job.fingerprint,
                )
            except asyncio.CancelledError:
                if not job.future.done():
                    job.future.set_exception(
                        ExecutionFailed("server drained mid-execution")
                    )
                raise
            except Exception as exc:  # noqa: BLE001 - relayed to waiters
                self.failures += 1
                if not job.future.done():
                    job.future.set_exception(
                        exc if isinstance(exc, ExecutionFailed)
                        else ExecutionFailed(str(exc))
                    )
            else:
                if not job.future.done():
                    job.future.set_result(row)
            finally:
                self.inflight -= 1
                self._queue.task_done()

    def _execute_and_store(
        self, spec: ScenarioSpec, fingerprint: str
    ) -> Dict[str, Any]:
        """Run one scenario (worker thread) and persist its row."""
        self.executions += 1
        row = dict(self._runner(spec))
        if self.store is not None:
            # Store *before* the future resolves: waiters must never see
            # a result the cache cannot also answer.
            self.store.put(fingerprint, row)
        return row
