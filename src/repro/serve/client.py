"""Async HTTP client for the scenario server.

One :class:`ServeClient` holds one persistent keep-alive HTTP
connection and issues closed-loop requests over it.  The load generator
runs many of these concurrently; tests use a single one to talk to an
in-process server.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Any, Dict, Optional

from .protocol import PROTOCOL_VERSION, keep_socket_reads_on_heap

__all__ = ["ServeClient"]


class ServeClient:
    """One persistent connection to a running scenario server.

    Build with :meth:`http` (or the constructor), then ``await
    connect()`` or use it as an async context manager.
    ``run_scenario`` sends one request and awaits its response payload;
    requests on one client are sequential (closed loop) by design.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: str = "client",
        timeout: float = 60.0,
    ):
        self.host = host
        self.port = port
        self.name = name
        self.timeout = timeout
        self._reader: Optional["asyncio.StreamReader"] = None
        self._writer: Optional["asyncio.StreamWriter"] = None
        self._ids = itertools.count(1)

    @classmethod
    def http(cls, host: str, port: int, name: str = "client",
             timeout: float = 60.0) -> "ServeClient":
        """A keep-alive HTTP client for ``host:port``."""
        return cls(host, port, name=name, timeout=timeout)

    async def connect(self) -> "ServeClient":
        """Open the connection (idempotent); returns ``self``."""
        if self._writer is not None:
            return self
        keep_socket_reads_on_heap()
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # -- requests ------------------------------------------------------
    async def run_scenario(
        self, scenario: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Submit one scenario object; returns the response payload.

        ``scenario`` is the object form of ``ScenarioSpec.to_json()``
        (the schema field may be omitted — the server injects it).
        """
        envelope = {
            "v": PROTOCOL_VERSION,
            "scenario": scenario,
            "client": self.name,
            "id": f"{self.name}-{next(self._ids)}",
        }
        return await self._request_http("POST", "/run", envelope)

    async def get(self, path: str) -> Dict[str, Any]:
        """``GET`` a server endpoint (``/healthz``, ``/stats``)."""
        return await self._request_http("GET", path, None)

    # -- HTTP wire -----------------------------------------------------
    async def _request_http(
        self, method: str, path: str, payload: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        await self.connect()
        assert self._reader is not None and self._writer is not None
        body = (
            json.dumps(payload, separators=(",", ":")).encode("utf-8")
            if payload is not None else b""
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"X-Repro-Client: {self.name}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        return await asyncio.wait_for(
            self._read_http_response(), self.timeout
        )

    async def _read_http_response(self) -> Dict[str, Any]:
        assert self._reader is not None
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await self._reader.readexactly(length) if length else b""
        payload = json.loads(body.decode("utf-8")) if body else {}
        payload.setdefault("http_status", status)
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return payload
