"""The scenario server: dedup, backpressure, cache-first serving.

:class:`ScenarioServer` owns the whole request path described in the
package docstring.  The transport is deliberately tiny — a hand-rolled
HTTP/1.1 responder (keep-alive, ``POST /run``, ``GET /healthz``,
``GET /stats``) — because the daemon serves trusted local benchmark
traffic, not the open internet.  It feeds :meth:`ScenarioServer.handle`,
which the unit tests also call directly.

Request outcome vocabulary (the ``source`` field):

``cache``
    Answered from the store's in-memory index.  On a miss the store is
    :meth:`~repro.orchestrator.store.ResultStore.refresh`-ed once —
    rows appended by concurrent sweeps become servable without a
    restart — and the lookup retried.
``dedup``
    Joined an identical in-flight computation (no pool submission).
``fresh``
    This request was the leader: it submitted to the pool and waited.

Telemetry: every request emits a ``request`` event; every
``snapshot_every`` requests (and at shutdown, tagged ``final``) the
server emits per-source ``latency`` percentile snapshots and a
``queue`` depth gauge.  ``repro tail --latency`` renders these.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal as _signal
from collections import deque
from time import monotonic, perf_counter
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..obs.resources import ResourceSampler
from ..obs.writer import NullWriter, TelemetryConfig
from ..orchestrator.store import ResultStore
from .dedup import InflightMap
from .pool import ExecutionFailed, PoolSaturated, ScenarioPool
from .protocol import (
    ProtocolError,
    ServeRequest,
    ServeResponse,
    keep_socket_reads_on_heap,
)

logger = logging.getLogger(__name__)

__all__ = ["ScenarioServer", "percentile"]

#: Latency samples retained per source for percentile snapshots.
_SAMPLE_WINDOW = 8192
_MAX_BODY = 4 * 1024 * 1024
_MAX_HEADER_LINES = 64


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples`` by nearest rank."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


class ScenarioServer:
    """One resident scenario-serving daemon (single event loop).

    Parameters
    ----------
    store:
        Shared result store; ``None`` disables caching (every request
        computes — useful only in tests).
    pool:
        Execution stage; built from ``workers``/``queue_depth`` when
        omitted.
    telemetry:
        A :class:`~repro.obs.writer.TelemetryConfig` to emit
        ``request``/``queue``/``latency`` events under (optional).
    snapshot_every:
        Emit latency/queue snapshots every N requests.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        pool: Optional[ScenarioPool] = None,
        *,
        workers: int = 4,
        queue_depth: int = 64,
        telemetry: Optional[TelemetryConfig] = None,
        snapshot_every: int = 500,
        label: str = "serve",
    ):
        self.store = store
        self.pool = pool or ScenarioPool(
            store, workers=workers, queue_depth=queue_depth
        )
        self.inflight = InflightMap()
        self.label = label
        self.snapshot_every = max(1, snapshot_every)
        self._telemetry = telemetry
        self._writer = NullWriter()
        self.draining = False
        self.started_at: Optional[float] = None
        self.requests = 0
        self.errors = 0
        # Process-lifetime resource bracket (started in start()) plus
        # cumulative per-job counters folded from fresh-execution rows.
        self._resources = ResourceSampler()
        self.job_cpu_sec = 0.0
        self.job_max_rss_kb = 0
        self.job_energy_j: Optional[float] = None
        self.by_source: Dict[str, int] = {}
        self.by_status: Dict[str, int] = {}
        self._latencies: Dict[str, Deque[float]] = {}
        self._listener: Optional["asyncio.base_events.Server"] = None
        self._drain_event: Optional["asyncio.Event"] = None

    # -- core request path --------------------------------------------
    async def handle(self, request: ServeRequest) -> ServeResponse:
        """Serve one parsed request end to end."""
        t0 = perf_counter()
        fingerprint = request.fingerprint
        if self.draining:
            return self._finish(request, ServeResponse.failure(
                "draining", "server is shutting down",
                request.request_id, fingerprint), t0)

        row = self._cache_lookup(fingerprint)
        if row is not None:
            return self._finish(request, ServeResponse(
                ok=True, source="cache", row=row,
                request_id=request.request_id, fingerprint=fingerprint), t0)

        leader, future = self.inflight.lease(fingerprint)
        if leader:
            try:
                pool_future = self.pool.submit(request.spec, fingerprint)
            except PoolSaturated as exc:
                self.inflight.fail(fingerprint, exc)
                return self._finish(request, ServeResponse.failure(
                    "saturated", str(exc),
                    request.request_id, fingerprint), t0)
            self._chain(pool_future, future)
        source = "fresh" if leader else "dedup"
        try:
            # shield: one client disconnecting must not cancel the shared
            # computation other waiters (and the store) depend on.
            row = await asyncio.shield(future)
        except PoolSaturated as exc:
            return self._finish(request, ServeResponse.failure(
                "saturated", str(exc), request.request_id, fingerprint), t0)
        except ExecutionFailed as exc:
            return self._finish(request, ServeResponse.failure(
                "execution_failed", str(exc),
                request.request_id, fingerprint), t0)
        finally:
            if leader:
                # The row is in the store by now (the pool persists
                # before resolving), so dropping the map entry cannot
                # open a recompute window.
                self.inflight.release(fingerprint)
        return self._finish(request, ServeResponse(
            ok=True, source=source, row=dict(row),
            request_id=request.request_id, fingerprint=fingerprint), t0)

    def _cache_lookup(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        if self.store is None:
            return None
        row = self.store.get(fingerprint)
        if row is None and self.store.refresh():
            row = self.store.get(fingerprint)
        return row

    @staticmethod
    def _chain(pool_future: "asyncio.Future",
               inflight_future: "asyncio.Future") -> None:
        """Relay the pool future's outcome onto the shared in-flight one."""
        def _relay(done: "asyncio.Future") -> None:
            if inflight_future.done():
                return
            exc = done.exception()
            if exc is not None:
                inflight_future.set_exception(exc)
            else:
                inflight_future.set_result(done.result())

        pool_future.add_done_callback(_relay)

    def _finish(
        self, request: ServeRequest, response: ServeResponse, t0: float
    ) -> ServeResponse:
        """Stamp latency, fold stats, emit telemetry, snapshot if due."""
        response.latency_ms = (perf_counter() - t0) * 1000.0
        self.requests += 1
        source = response.source or response.status
        self.by_source[source] = self.by_source.get(source, 0) + 1
        self.by_status[response.status] = (
            self.by_status.get(response.status, 0) + 1
        )
        if not response.ok:
            self.errors += 1
        if response.ok and response.source == "fresh" and response.row:
            self._fold_job_resources(response.row)
        bucket = self._latencies.get(source)
        if bucket is None:
            bucket = self._latencies[source] = deque(maxlen=_SAMPLE_WINDOW)
        bucket.append(response.latency_ms)
        self._writer.emit(
            "request",
            fingerprint=response.fingerprint,
            label=request.client,
            data={
                "client": request.client,
                "source": response.source,
                "status": response.status,
                "latency_ms": round(response.latency_ms, 3),
            },
        )
        if self.requests % self.snapshot_every == 0:
            self._emit_snapshots(final=False)
        return response

    def _fold_job_resources(self, row: Dict[str, Any]) -> None:
        """Accumulate one fresh execution's row-level resource columns.

        Cache/dedup hits are deliberately not billed — they cost the
        follower nothing; the leader's fresh execution already counted.
        """
        try:
            self.job_cpu_sec += float(row.get("cpu_sec", 0.0) or 0.0)
            self.job_max_rss_kb = max(
                self.job_max_rss_kb, int(row.get("max_rss_kb", 0) or 0)
            )
            energy = row.get("energy_j")
            if isinstance(energy, (int, float)):
                self.job_energy_j = (self.job_energy_j or 0.0) + float(energy)
        except (TypeError, ValueError):  # malformed foreign row
            logger.debug("unparsable resource columns in row", exc_info=True)

    def resource_stats(self) -> Dict[str, Any]:
        """Cumulative resource counters for ``/stats`` and telemetry."""
        return {
            "process": self._resources.peek().to_data(),
            "jobs": {
                "cpu_sec": round(self.job_cpu_sec, 6),
                "max_rss_kb": self.job_max_rss_kb,
                "energy_j": (
                    None if self.job_energy_j is None
                    else round(self.job_energy_j, 6)
                ),
            },
        }

    def _latency_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-source count and p50/p95/p99/max over the sample window."""
        summary = {}
        for source, bucket in sorted(self._latencies.items()):
            samples = list(bucket)
            summary[source] = {
                "count": len(samples),
                "p50_ms": round(percentile(samples, 50), 3),
                "p95_ms": round(percentile(samples, 95), 3),
                "p99_ms": round(percentile(samples, 99), 3),
                "max_ms": round(max(samples), 3) if samples else 0.0,
            }
        return summary

    def _emit_snapshots(self, final: bool) -> None:
        """Emit per-source ``latency`` percentiles and the ``queue`` gauge."""
        for source, snapshot in self._latency_summary().items():
            self._writer.emit("latency", label=self.label, data={
                "source": source, **snapshot, "final": final,
            })
        self._writer.emit("queue", label=self.label, data={
            "depth": self.pool.depth,
            "capacity": self.pool.queue_depth,
            "inflight": self.pool.inflight,
            "coalesced": self.inflight.coalesced,
            "final": final,
        })
        resources = self.resource_stats()
        self._writer.emit("resource", label=self.label, data={
            **resources["process"],
            "jobs": resources["jobs"],
            "final": final,
        })

    # -- stats ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot of the server's counters."""
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_s": (
                round(monotonic() - self.started_at, 3)
                if self.started_at is not None else 0.0
            ),
            "requests": self.requests,
            "errors": self.errors,
            "by_source": dict(self.by_source),
            "by_status": dict(self.by_status),
            "executions": self.pool.executions,
            "coalesced": self.inflight.coalesced,
            "queue": {
                "depth": self.pool.depth,
                "capacity": self.pool.queue_depth,
                "inflight": self.pool.inflight,
            },
            "store_entries": len(self.store) if self.store is not None else 0,
            "latency": self._latency_summary(),
            "resources": self.resource_stats(),
        }

    # -- lifecycle -----------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind the HTTP listener, start the pool, then start serving.

        Returns the bound ``(host, port)``; ``port=0`` binds an
        ephemeral port — tests read the real one from here.  The port is
        bound before anything else is opened, so an ``OSError`` (port
        taken, bad address) leaves no pool or telemetry writer behind.
        """
        keep_socket_reads_on_heap()
        self._listener = await asyncio.start_server(
            self._handle_http_connection, host=host, port=port,
            start_serving=False,
        )
        bound_host, bound_port = self._listener.sockets[0].getsockname()[:2]
        if self._telemetry is not None:
            self._writer = self._telemetry.open()
        self._resources.start()
        await self.pool.start()
        self._drain_event = asyncio.Event()
        self.started_at = monotonic()
        self._writer.emit(
            "run_start", span_id=self._writer.trace_id or "serve",
            label=self.label,
            data={"endpoint": f"http://{bound_host}:{bound_port}"},
        )
        await self._listener.start_serving()
        logger.info("serving on http://%s:%d", bound_host, bound_port)
        return bound_host, bound_port

    def request_drain(self, reason: str = "signal") -> None:
        """Flip into draining mode (idempotent, signal-handler safe)."""
        if not self.draining:
            logger.info("drain requested (%s)", reason)
            self.draining = True
        if self._drain_event is not None:
            self._drain_event.set()

    def install_signal_handlers(self) -> None:
        """Drain on SIGINT/SIGTERM where the loop supports it."""
        loop = asyncio.get_running_loop()
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, self.request_drain, _signal.Signals(sig).name
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix event loop

    async def serve_until_drained(self, drain_timeout: float = 30.0) -> None:
        """Block until a drain is requested, then shut down cleanly."""
        if self._drain_event is None:
            raise RuntimeError("call start() first")
        await self._drain_event.wait()
        await self.shutdown(drain_timeout)

    async def shutdown(self, drain_timeout: float = 30.0) -> None:
        """Stop the listener, drain the pool, flush telemetry."""
        self.draining = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        drained = await self.pool.drain(drain_timeout)
        self._emit_snapshots(final=True)
        self._writer.emit(
            "run_end", span_id=self._writer.trace_id or "serve",
            label=self.label,
            data={"requests": self.requests, "errors": self.errors,
                  "executions": self.pool.executions, "drained": drained},
        )
        self._writer.close()
        logger.info(
            "serve shut down: %d requests, %d errors, %d executions",
            self.requests, self.errors, self.pool.executions,
        )

    # -- HTTP transport ------------------------------------------------
    async def _handle_http_connection(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        try:
            while True:
                request = await self._read_http_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self.draining
                )
                status, payload = await self._route_http(
                    method, path, headers, body
                )
                await self._write_http_response(
                    writer, status, payload, keep_alive
                )
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError):
            pass
        except ValueError as exc:
            # Malformed request line/headers: answer 400 and hang up.
            try:
                await self._write_http_response(
                    writer, 400,
                    {"ok": False, "status": "bad_request", "error": str(exc)},
                    keep_alive=False,
                )
            except ConnectionError:
                pass
        finally:
            writer.close()

    @staticmethod
    async def _read_http_request(
        reader: "asyncio.StreamReader",
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line {line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ValueError("too many header lines")
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise ValueError(f"body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _route_http(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if method == "POST" and path == "/run":
            t0 = perf_counter()
            peer = headers.get("x-repro-client", "")
            try:
                request = ServeRequest.from_body(body, client=peer)
            except ProtocolError as exc:
                # Refused before a spec exists: counted all the same.
                response = self._finish(
                    _anonymous_request(peer),
                    ServeResponse.failure(exc.status, exc.message), t0,
                )
            else:
                response = await self.handle(request)
            return response.http_status, response.to_payload()
        if method == "GET" and path == "/healthz":
            status = 503 if self.draining else 200
            return status, {"status": "draining" if self.draining else "ok",
                            "requests": self.requests}
        if method == "GET" and path == "/stats":
            return 200, self.stats()
        return 404, {"ok": False, "status": "bad_request",
                     "error": f"no route for {method} {path}"}

    @staticmethod
    async def _write_http_response(
        writer: "asyncio.StreamWriter", status: int,
        payload: Dict[str, Any], keep_alive: bool,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


def _anonymous_request(client: str) -> ServeRequest:
    """A placeholder request for accounting of unparseable inputs."""
    request = ServeRequest.__new__(ServeRequest)
    object.__setattr__(request, "spec", None)
    object.__setattr__(request, "fingerprint", "")
    object.__setattr__(request, "client", client or "anonymous")
    object.__setattr__(request, "request_id", "")
    return request
