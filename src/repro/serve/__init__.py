"""Exploration as a service: a long-running scenario server.

``python -m repro serve`` keeps one process resident with the
content-addressed result store mapped in memory, and answers
:class:`~repro.scenario.ScenarioSpec` requests over HTTP.  The request
path is::

    HTTP -> protocol parse -> store lookup -> in-flight dedup map
         -> bounded queue -> worker threads -> store append -> response

Three properties make it a *server* rather than a remote ``repro run``:

* **dedup** — N concurrent requests for the same fingerprint cause
  exactly one computation (:class:`~repro.serve.dedup.InflightMap`);
  the other N-1 await the leader's future.
* **backpressure** — cache misses enter a bounded queue
  (:class:`~repro.serve.pool.ScenarioPool`); when it is full the server
  answers ``saturated`` (HTTP 503) immediately instead of melting down.
* **warm-path speed** — repeat scenarios are answered from the store's
  in-memory index (a dict lookup) without touching the queue, so warm
  p99 latency is microseconds-to-milliseconds, not a pool round-trip.

``python -m repro load`` is the closed-loop load generator used by the
CI smoke job and the acceptance benchmarks; ``repro tail --latency``
renders the ``request``/``queue``/``latency`` telemetry the server
emits.
"""

from .client import ServeClient
from .dedup import InflightMap
from .load import LoadReport, default_payloads, run_load
from .pool import ExecutionFailed, PoolSaturated, ScenarioPool
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServeRequest,
    ServeResponse,
)
from .server import ScenarioServer

__all__ = [
    "PROTOCOL_VERSION",
    "ExecutionFailed",
    "InflightMap",
    "LoadReport",
    "PoolSaturated",
    "ProtocolError",
    "ScenarioPool",
    "ScenarioServer",
    "ServeClient",
    "ServeRequest",
    "ServeResponse",
    "default_payloads",
    "run_load",
]
