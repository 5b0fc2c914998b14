"""The serve wire protocol: versioned request/response envelopes.

One request is one JSON object, the body of ``POST /run``::

    {"v": 1, "scenario": {...ScenarioSpec.to_json() object...},
     "client": "bench-3", "id": "req-17"}

``scenario`` is exactly the object form of
:meth:`~repro.scenario.ScenarioSpec.to_json`; the orchestrator schema
tag is injected when absent, and *rejected* when present but foreign —
a spec fingerprinted under another schema version would silently miss
the cache forever, so the server refuses it up front.

Responses mirror the envelope::

    {"ok": true, "status": "ok", "source": "cache", "row": {...},
     "latency_ms": 0.21, "id": "req-17"}

``source`` says how the row was produced (``cache`` / ``dedup`` /
``fresh``); error responses carry ``status`` in the error vocabulary
below plus a human-readable ``error`` string, and the HTTP status code
that status maps onto.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..orchestrator.jobspec import SCHEMA_VERSION
from ..scenario import ScenarioSpec

#: Envelope version; bump on incompatible request-shape changes.
PROTOCOL_VERSION = 1

#: Error statuses and the HTTP status code each maps onto.
ERROR_STATUS = {
    "bad_version": 400,
    "bad_request": 400,
    "bad_scenario": 400,
    "saturated": 503,
    "draining": 503,
    "execution_failed": 500,
}


class ProtocolError(Exception):
    """A request the server refuses, with its protocol status code."""

    def __init__(self, status: str, message: str):
        if status not in ERROR_STATUS:
            raise ValueError(f"unknown protocol error status {status!r}")
        super().__init__(message)
        self.status = status
        self.message = message


def parse_scenario(data: Mapping[str, Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a request's ``scenario`` object.

    The schema tag is injected when absent; a *foreign* tag is refused
    (it would fingerprint differently and never hit the cache).  Any
    validation failure surfaces as a ``bad_scenario`` protocol error.
    """
    if not isinstance(data, Mapping):
        raise ProtocolError("bad_scenario", "scenario must be a JSON object")
    payload = dict(data)
    schema = payload.setdefault("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ProtocolError(
            "bad_scenario",
            f"scenario schema {schema!r} != {SCHEMA_VERSION!r}",
        )
    try:
        return ScenarioSpec.from_json(json.dumps(payload))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError("bad_scenario", f"invalid scenario: {exc}") from exc


@dataclass(frozen=True)
class ServeRequest:
    """One parsed, validated request: the spec plus its envelope fields."""

    spec: ScenarioSpec
    fingerprint: str
    client: str = ""
    request_id: str = ""

    @classmethod
    def from_body(cls, body: bytes, client: str = "") -> "ServeRequest":
        """Parse a raw request body (raises :class:`ProtocolError`)."""
        try:
            payload = json.loads(body.decode("utf-8"))
        except ValueError as exc:  # includes UnicodeDecodeError
            raise ProtocolError(
                "bad_request", f"invalid JSON body: {exc}"
            ) from exc
        return cls.from_payload(payload, client=client)

    @classmethod
    def from_payload(cls, payload: Any, client: str = "") -> "ServeRequest":
        """Parse a decoded request envelope (raises :class:`ProtocolError`).

        ``client`` is the transport's fallback identity (peer name) used
        when the envelope does not carry its own ``client`` field.
        """
        if not isinstance(payload, Mapping):
            raise ProtocolError("bad_request", "request must be a JSON object")
        version = payload.get("v", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                "bad_version",
                f"protocol version {version!r} != {PROTOCOL_VERSION}",
            )
        if "scenario" not in payload:
            raise ProtocolError("bad_request", "request needs a 'scenario' field")
        spec = parse_scenario(payload["scenario"])
        return cls(
            spec=spec,
            fingerprint=spec.fingerprint(),
            client=str(payload.get("client") or client or "anonymous"),
            request_id=str(payload.get("id", "")),
        )


@dataclass
class ServeResponse:
    """One response envelope."""

    ok: bool
    status: str = "ok"
    source: str = ""
    row: Optional[Dict[str, Any]] = None
    error: str = ""
    latency_ms: float = 0.0
    request_id: str = ""
    fingerprint: str = ""

    @property
    def http_status(self) -> int:
        """The HTTP status code this response maps onto."""
        return 200 if self.ok else ERROR_STATUS.get(self.status, 500)

    @classmethod
    def failure(
        cls, status: str, error: str, request_id: str = "", fingerprint: str = ""
    ) -> "ServeResponse":
        """An error response in the protocol vocabulary."""
        return cls(
            ok=False,
            status=status,
            error=error,
            request_id=request_id,
            fingerprint=fingerprint,
        )

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-object form written back to the client."""
        payload: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "ok": self.ok,
            "status": self.status,
            "latency_ms": round(self.latency_ms, 3),
        }
        if self.source:
            payload["source"] = self.source
        if self.row is not None:
            payload["row"] = self.row
        if self.error:
            payload["error"] = self.error
        if self.request_id:
            payload["id"] = self.request_id
        if self.fingerprint:
            payload["fingerprint"] = self.fingerprint
        return payload


def keep_socket_reads_on_heap() -> None:
    """Make this process's socket reads allocate from the heap.

    asyncio reads each socket with ``recv(256 KiB)``.  glibc serves a
    block that large with mmap, two page faults and munmap on every
    read, until the process has once freed a larger block (its dynamic
    mmap threshold).  A lean server or client may never free one: a
    send/recv pair of a 300-byte message then took 12.8 us instead of
    1.3 us, and serve-mixed's median latency rose by a sixth.  Freeing
    one 512 KiB buffer raises the threshold above the read size.  The
    server calls this before it accepts connections and the client
    before it opens one.
    """
    bytearray(512 * 1024)


__all__ = [
    "ERROR_STATUS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeRequest",
    "ServeResponse",
    "keep_socket_reads_on_heap",
    "parse_scenario",
]
