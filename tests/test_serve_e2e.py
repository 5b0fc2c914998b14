"""End-to-end serving tests: real sockets, load harness, telemetry, CLI."""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.obs import TelemetryConfig, load_trace
from repro.obs.tail import render, summarize
from repro.orchestrator import ResultStore, TreeSpec
from repro.scenario import ScenarioSpec
from repro.serve import (
    ScenarioPool,
    ScenarioServer,
    ServeClient,
    default_payloads,
    run_load,
)


def fake_row(spec):
    return {"rounds": 3, "kind": spec.kind}


def spec_payload(seed=0):
    spec = ScenarioSpec(
        kind="tree", algorithm="bfdn",
        substrate=TreeSpec.named("comb", 30, seed=seed),
        k=2, seed=seed,
    )
    return json.loads(spec.to_json())


def src_env():
    """The environment for a subprocess that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


async def start_server(tmp_path, **kwargs):
    store = ResultStore(tmp_path / "cache")
    kwargs.setdefault("pool", ScenarioPool(store, workers=2, runner=fake_row))
    server = ScenarioServer(store, **kwargs)
    return server, await server.start("127.0.0.1", 0)


class TestHttpTransport:
    def test_run_healthz_stats_over_keepalive(self, tmp_path):
        async def scenario():
            server, (host, port) = await start_server(tmp_path)
            async with ServeClient.http(host, port, name="t1") as client:
                first = await client.run_scenario(spec_payload())
                second = await client.run_scenario(spec_payload())
                health = await client.get("/healthz")
                stats = await client.get("/stats")
            assert first["ok"] and first["source"] == "fresh"
            assert second["ok"] and second["source"] == "cache"
            assert first["id"] == "t1-1" and second["id"] == "t1-2"
            assert health["status"] == "ok"
            assert stats["requests"] == 2
            assert stats["executions"] == 1
            await server.shutdown(5)

        asyncio.run(scenario())

    def test_bad_requests_get_4xx_not_disconnect(self, tmp_path):
        async def scenario():
            server, (host, port) = await start_server(tmp_path)
            async with ServeClient.http(host, port) as client:
                missing = await client.run_scenario({"not": "a spec"})
                assert missing["http_status"] == 400
                assert missing["status"] == "bad_scenario"
                # The connection survives a protocol error (keep-alive).
                good = await client.run_scenario(spec_payload())
                assert good["ok"]
            assert server.errors == 1
            await server.shutdown(5)

        asyncio.run(scenario())

    def test_invalid_json_body_counted_not_fatal(self, tmp_path):
        async def scenario():
            server, (host, port) = await start_server(tmp_path)
            async with ServeClient.http(host, port) as client:
                body = b"this is not json"
                client._writer.write(
                    b"POST /run HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                    % (len(body), body)
                )
                bad = await client._read_http_response()
                assert bad["http_status"] == 400
                assert bad["status"] == "bad_request"
                # The keep-alive connection still serves a good request.
                good = await client.run_scenario(spec_payload())
                assert good["ok"]
            stats = server.stats()
            assert stats["requests"] == 2
            assert stats["errors"] == 1
            assert stats["by_status"] == {"bad_request": 1, "ok": 1}
            await server.shutdown(5)

        asyncio.run(scenario())

    def test_unknown_route_is_404(self, tmp_path):
        async def scenario():
            server, (host, port) = await start_server(tmp_path)
            async with ServeClient.http(host, port) as client:
                payload = await client.get("/nope")
            assert payload["http_status"] == 404
            await server.shutdown(5)

        asyncio.run(scenario())


class TestLoadHarness:
    def test_cold_then_warm_pass(self, tmp_path):
        async def scenario():
            server, (host, port) = await start_server(tmp_path)
            payloads = [spec_payload(seed) for seed in range(4)]

            def make(i):
                return ServeClient.http(host, port, name=f"lc{i}")

            cold = await run_load(make, payloads, clients=4, requests=40)
            warm = await run_load(make, payloads, clients=4, requests=40)
            assert cold.total == warm.total == 40
            assert cold.errors == 0 and warm.errors == 0
            assert server.pool.executions == 4  # one per distinct payload
            assert warm.by_source == {"cache": 40}
            assert warm.hit_rate == 1.0
            assert cold.hit_rate >= (40 - 4) / 40
            report_lines = warm.render()
            assert any("hit rate: 100.0%" in line for line in report_lines)
            await server.shutdown(5)

        asyncio.run(scenario())

    def test_default_payloads_mix_kinds_deterministically(self):
        batch = default_payloads(distinct=6, n=200)
        assert len(batch) == 6
        kinds = [p["kind"] for p in batch]
        assert set(kinds) == {"tree", "graph", "game"}
        again = default_payloads(distinct=6, n=200)
        assert batch == again  # same batch → second pass can cache-hit

    def test_failed_responses_counted_as_errors(self, tmp_path):
        async def scenario():
            def boom(spec):
                raise RuntimeError("scenario exploded")

            server, (host, port) = await start_server(
                tmp_path, pool=ScenarioPool(workers=2, runner=boom)
            )

            def make(i):
                return ServeClient.http(host, port, name="same-client")

            report = await run_load(
                make, [spec_payload()], clients=4, requests=30
            )
            assert report.errors > 0
            assert report.by_status.get("execution_failed", 0) == report.errors
            await server.shutdown(5)

        asyncio.run(scenario())


class TestServeTelemetry:
    def test_trace_has_request_queue_latency_events(self, tmp_path):
        async def scenario():
            config = TelemetryConfig.create(str(tmp_path / "tel"))
            server, (host, port) = await start_server(
                tmp_path, telemetry=config, snapshot_every=5
            )
            async with ServeClient.http(host, port, name="tele") as client:
                for _ in range(12):
                    await client.run_scenario(spec_payload())
            await server.shutdown(5)
            events = load_trace(str(tmp_path / "tel"))
            kinds = {ev.event for ev in events}
            assert {"run_start", "request", "queue", "latency",
                    "run_end"} <= kinds
            requests = [ev for ev in events if ev.event == "request"]
            assert len(requests) == 12
            assert requests[0].data["source"] == "fresh"
            assert all(ev.data["status"] == "ok" for ev in requests)
            finals = [ev for ev in events
                      if ev.event == "latency" and ev.data.get("final")]
            assert finals, "shutdown must flush a final latency snapshot"
            return events

        events = asyncio.run(scenario())
        summary = summarize(events)
        assert summary.serving.requests == 12
        assert summary.serving.errors == 0
        assert "cache" in summary.serving.percentiles
        text = "\n".join(render(summary, latency=True))
        assert "serving: 12 requests" in text
        assert "p50ms" in text
        assert "queue: depth" in text
        # No bogus OPEN spans from span-less request events.
        assert "OPEN" not in text

    def test_tail_without_latency_flag_omits_section(self, tmp_path):
        async def scenario():
            config = TelemetryConfig.create(str(tmp_path / "tel"))
            server, (host, port) = await start_server(tmp_path, telemetry=config)
            async with ServeClient.http(host, port) as client:
                await client.run_scenario(spec_payload())
            await server.shutdown(5)

        asyncio.run(scenario())
        summary = summarize(load_trace(str(tmp_path / "tel")))
        text = "\n".join(render(summary, latency=False))
        assert "serving:" not in text


class TestServeBindFailure:
    def test_port_taken_exits_2_with_one_line(self, tmp_path, capsys):
        from repro.cli import main

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            code = main([
                "serve", "--port", str(port),
                "--cache-dir", str(tmp_path / "cache"),
                "--telemetry", str(tmp_path / "tel"),
            ])
        assert code == 2
        out = capsys.readouterr().out
        assert out.startswith(f"serve: cannot bind 127.0.0.1:{port}: ")
        assert "serving http" not in out
        # Nothing was opened before the bind failed: no trace written.
        assert not list(tmp_path.glob("tel/*"))


@pytest.mark.slow
class TestServeCli:
    """The real daemon: subprocess, real scenarios, signal drain."""

    def _env(self):
        return src_env()

    def test_serve_load_twice_then_sigint(self, tmp_path):
        env = self._env()
        log = tmp_path / "serve.log"
        with open(log, "w") as log_handle:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0",
                    "--cache-dir", str(tmp_path / "cache"),
                    "--telemetry", str(tmp_path / "tel"),
                    "--jobs", "2", "--snapshot-every", "10",
                ],
                env=env, stdout=log_handle, stderr=subprocess.STDOUT,
            )
        try:
            port = None
            for _ in range(100):
                text = log.read_text() if log.exists() else ""
                for line in text.splitlines():
                    if line.startswith("serving http://"):
                        port = int(line.split(":")[2].split()[0])
                if port is not None:
                    break
                time.sleep(0.1)
            assert port is not None, log.read_text()

            load_cmd = [
                sys.executable, "-m", "repro", "load",
                "--port", str(port), "--clients", "8", "--requests", "40",
                "--distinct", "4", "-n", "120",
            ]
            cold = subprocess.run(
                load_cmd, env=env, capture_output=True, text=True, timeout=120
            )
            assert cold.returncode == 0, cold.stdout + cold.stderr
            warm = subprocess.run(
                load_cmd + ["--min-hit-rate", "0.9"],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert warm.returncode == 0, warm.stdout + warm.stderr
            assert "hit rate: 100.0%" in warm.stdout
            assert " 0 errors" in warm.stdout

            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        out = log.read_text()
        assert "served 80 requests (0 errors" in out

        tail = subprocess.run(
            [sys.executable, "-m", "repro", "tail",
             str(tmp_path / "tel"), "--latency"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert tail.returncode == 0, tail.stdout + tail.stderr
        assert "serving: 80 requests" in tail.stdout


#: Runs in a fresh interpreter: starts a server (argv[1] == "server") or
#: connects a client to a bare listener ("client"), then reports whether
#: glibc mapped any of eight blocks the size of asyncio's socket read
#: (``mallinfo2().hblks`` counts mmap'd blocks).  glibc maps a block only
#: when the heap has no room for it, so eight are taken, and all are
#: held: freeing a mapped one would itself raise the mmap threshold.
READ_BUFFER_PROBE = r"""
import asyncio, ctypes, json, sys

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

try:
    mallinfo2 = ctypes.CDLL(None).mallinfo2
except AttributeError:
    print(json.dumps(None))
    sys.exit()
mallinfo2.restype = MallInfo2

from repro.serve import ScenarioServer, ServeClient

def mapped_read_buffers(held):
    before = mallinfo2().hblks
    held.extend(bytearray(256 * 1024) for _ in range(8))
    return mallinfo2().hblks > before

async def open_side(side):
    if side == "server":
        server = ScenarioServer(None, workers=1)
        await server.start("127.0.0.1", 0)
        await server.shutdown(5)
    else:
        listener = await asyncio.start_server(
            lambda reader, writer: writer.close(), "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        client = ServeClient("127.0.0.1", port)
        await client.connect()
        await client.close()
        listener.close()
        await listener.wait_closed()

held = []
before = mapped_read_buffers(held)
asyncio.run(open_side(sys.argv[1]))
print(json.dumps([before, mapped_read_buffers(held)]))
"""


@pytest.mark.parametrize("side", ["server", "client"])
def test_socket_reads_stay_on_the_heap(side):
    # Mapping and unmapping every 256 KiB read buffer made serve-mixed's
    # median latency a sixth slower; see keep_socket_reads_on_heap.
    out = subprocess.run(
        [sys.executable, "-c", READ_BUFFER_PROBE, side],
        env=src_env(), capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    probe = json.loads(out.splitlines()[-1])
    if probe is None or not probe[0]:
        pytest.skip("the allocator does not map 256 KiB blocks here")
    assert probe == [True, False]
