"""Unit tests for the serving layer: protocol, dedup, pool, core."""

import asyncio
import json
import threading

import pytest

from repro.orchestrator import ResultStore, TreeSpec
from repro.scenario import ScenarioSpec
from repro.serve import (
    InflightMap,
    PoolSaturated,
    ProtocolError,
    ScenarioPool,
    ScenarioServer,
    ServeRequest,
    ServeResponse,
)
from repro.serve.server import percentile


def small_spec(seed=0, label=""):
    return ScenarioSpec(
        kind="tree", algorithm="bfdn",
        substrate=TreeSpec.named("comb", 30, seed=seed),
        k=2, seed=seed, label=label,
    )


def spec_payload(seed=0, **extra):
    payload = json.loads(small_spec(seed=seed).to_json())
    payload.update(extra)
    return payload


def fake_row(spec):
    return {"rounds": 7, "label": spec.label, "kind": spec.kind}


class TestProtocol:
    def test_parse_valid_payload(self):
        request = ServeRequest.from_payload(
            {"v": 1, "scenario": spec_payload(3), "client": "c1", "id": "r9"}
        )
        assert request.client == "c1"
        assert request.request_id == "r9"
        assert request.fingerprint == small_spec(seed=3).fingerprint()

    def test_schema_injected_when_absent(self):
        scenario = spec_payload(1)
        del scenario["schema"]
        request = ServeRequest.from_payload({"scenario": scenario})
        assert request.fingerprint == small_spec(seed=1).fingerprint()

    def test_foreign_schema_rejected(self):
        scenario = spec_payload(1, schema="other-schema-v9")
        with pytest.raises(ProtocolError) as err:
            ServeRequest.from_payload({"scenario": scenario})
        assert err.value.status == "bad_scenario"

    def test_missing_scenario_is_bad_request(self):
        with pytest.raises(ProtocolError) as err:
            ServeRequest.from_payload({"v": 1})
        assert err.value.status == "bad_request"

    def test_wrong_version_rejected(self):
        with pytest.raises(ProtocolError) as err:
            ServeRequest.from_payload({"v": 99, "scenario": spec_payload()})
        assert err.value.status == "bad_version"

    def test_invalid_scenario_field_values(self):
        scenario = spec_payload(algorithm="no-such-algorithm")
        with pytest.raises(ProtocolError) as err:
            ServeRequest.from_payload({"scenario": scenario})
        assert err.value.status == "bad_scenario"

    def test_client_falls_back_to_transport_peer(self):
        request = ServeRequest.from_payload(
            {"scenario": spec_payload()}, client="peer-7"
        )
        assert request.client == "peer-7"

    def test_response_http_status_mapping(self):
        assert ServeResponse(ok=True).http_status == 200
        assert ServeResponse.failure("bad_request", "x").http_status == 400
        assert ServeResponse.failure("saturated", "x").http_status == 503
        assert ServeResponse.failure("draining", "x").http_status == 503
        assert ServeResponse.failure("execution_failed", "x").http_status == 500

    def test_response_payload_roundtrip(self):
        response = ServeResponse(
            ok=True, source="cache", row={"rounds": 3},
            request_id="r1", fingerprint="abc",
        )
        payload = json.loads(json.dumps(response.to_payload()))
        assert payload["ok"] is True
        assert payload["source"] == "cache"
        assert payload["row"] == {"rounds": 3}
        assert payload["id"] == "r1"

    def test_label_does_not_change_fingerprint(self):
        a = ServeRequest.from_payload({"scenario": spec_payload(label="x")})
        b = ServeRequest.from_payload({"scenario": spec_payload(label="y")})
        assert a.fingerprint == b.fingerprint


class TestInflightMap:
    def test_leader_then_followers_share_future(self):
        async def scenario():
            inflight = InflightMap()
            leader, fut1 = inflight.lease("fp")
            follower, fut2 = inflight.lease("fp")
            assert leader and not follower
            assert fut1 is fut2
            assert inflight.coalesced == 1 and inflight.leases == 1
            fut1.set_result({"ok": 1})
            assert await fut2 == {"ok": 1}
            inflight.release("fp")
            assert "fp" not in inflight

        asyncio.run(scenario())

    def test_fail_propagates_to_all_waiters(self):
        async def scenario():
            inflight = InflightMap()
            _, fut = inflight.lease("fp")
            inflight.lease("fp")
            inflight.fail("fp", PoolSaturated("full"))
            with pytest.raises(PoolSaturated):
                await fut
            assert len(inflight) == 0

        asyncio.run(scenario())


class TestPercentile:
    def test_empty_and_single(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0

    def test_rank_interpolation(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == pytest.approx(50.0, abs=1.0)
        assert percentile(samples, 99) == pytest.approx(99.0, abs=1.0)
        assert percentile(samples, 100) == 100.0


class TestScenarioPool:
    def test_executes_and_persists_before_resolving(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path)
            pool = ScenarioPool(store, workers=1, runner=fake_row)
            await pool.start()
            spec = small_spec(label="p1")
            fingerprint = spec.fingerprint()
            row = await pool.submit(spec, fingerprint)
            assert row["rounds"] == 7
            assert store.get(fingerprint)["rounds"] == 7
            assert pool.executions == 1
            await pool.drain(5)

        asyncio.run(scenario())

    def test_saturation_raises(self):
        async def scenario():
            gate = threading.Event()
            pool = ScenarioPool(
                workers=1, queue_depth=1,
                runner=lambda spec: gate.wait(10) and {} or {},
            )
            await pool.start()
            first = pool.submit(small_spec(0), "fp0")
            await asyncio.sleep(0.05)  # worker picks up fp0, queue empty
            second = pool.submit(small_spec(1), "fp1")  # fills the queue
            with pytest.raises(PoolSaturated):
                pool.submit(small_spec(2), "fp2")
            gate.set()
            await asyncio.gather(first, second)
            assert pool.executions == 2
            await pool.drain(5)

        asyncio.run(scenario())

    def test_failure_propagates(self):
        async def scenario():
            def boom(spec):
                raise RuntimeError("scenario exploded")

            pool = ScenarioPool(workers=1, runner=boom)
            await pool.start()
            from repro.serve import ExecutionFailed

            with pytest.raises(ExecutionFailed):
                await pool.submit(small_spec(), "fp")
            assert pool.failures == 1
            await pool.drain(5)

        asyncio.run(scenario())

    def test_drain_fails_unstarted_jobs(self):
        async def scenario():
            gate = threading.Event()
            pool = ScenarioPool(
                workers=1, queue_depth=4,
                runner=lambda spec: gate.wait(10) and {} or {},
            )
            await pool.start()
            running = pool.submit(small_spec(0), "fp0")
            await asyncio.sleep(0.05)
            queued = pool.submit(small_spec(1), "fp1")
            drainer = asyncio.get_event_loop().create_task(pool.drain(5))
            await asyncio.sleep(0.05)
            with pytest.raises(PoolSaturated):
                pool.submit(small_spec(2), "fp2")  # draining refuses
            gate.set()
            assert await drainer
            await running
            await queued  # had time to run during drain

        asyncio.run(scenario())


class TestServerHandle:
    """The core request path, driven directly (no transport)."""

    def request(self, seed=0, client="t"):
        return ServeRequest.from_payload(
            {"scenario": spec_payload(seed), "client": client}
        )

    def test_miss_then_hit(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path)
            server = ScenarioServer(
                store, pool=ScenarioPool(store, workers=1, runner=fake_row)
            )
            await server.pool.start()
            first = await server.handle(self.request())
            second = await server.handle(self.request())
            assert first.ok and first.source == "fresh"
            assert second.ok and second.source == "cache"
            assert server.pool.executions == 1
            assert second.row["rounds"] == 7
            await server.pool.drain(5)

        asyncio.run(scenario())

    def test_concurrent_identical_requests_execute_once(self, tmp_path):
        """The dedup acceptance test: N waiters, one computation."""
        async def scenario():
            gate = threading.Event()
            started = threading.Event()

            def slow_runner(spec):
                started.set()
                assert gate.wait(10)
                return fake_row(spec)

            store = ResultStore(tmp_path)
            server = ScenarioServer(
                store, pool=ScenarioPool(store, workers=2, runner=slow_runner)
            )
            await server.pool.start()
            tasks = [
                asyncio.get_event_loop().create_task(
                    server.handle(self.request(client=f"c{i}"))
                )
                for i in range(8)
            ]
            while not started.is_set():  # leader reached the runner
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)  # let the other 7 coalesce
            gate.set()
            responses = await asyncio.gather(*tasks)
            assert all(r.ok for r in responses)
            assert server.pool.executions == 1
            sources = sorted(r.source for r in responses)
            assert sources.count("fresh") == 1
            assert sources.count("dedup") == 7
            assert server.inflight.coalesced == 7
            assert len(server.inflight) == 0
            await server.pool.drain(5)

        asyncio.run(scenario())

    def test_saturation_maps_to_503(self, tmp_path):
        async def scenario():
            gate = threading.Event()
            store = ResultStore(tmp_path)
            pool = ScenarioPool(
                store, workers=1, queue_depth=1,
                runner=lambda spec: gate.wait(10) and fake_row(spec)
                or fake_row(spec),
            )
            server = ScenarioServer(store, pool=pool)
            await pool.start()
            loop = asyncio.get_event_loop()
            t0 = loop.create_task(server.handle(self.request(0)))
            await asyncio.sleep(0.05)
            t1 = loop.create_task(server.handle(self.request(1)))
            await asyncio.sleep(0.05)
            refused = await server.handle(self.request(2))
            assert not refused.ok
            assert refused.status == "saturated"
            assert refused.http_status == 503
            # The refused fingerprint left no in-flight residue.
            assert len(server.inflight) == 0 or "fp" not in server.inflight
            gate.set()
            done = await asyncio.gather(t0, t1)
            assert all(r.ok for r in done)
            await pool.drain(5)

        asyncio.run(scenario())

    def test_draining_refuses_new_requests(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path)
            server = ScenarioServer(
                store, pool=ScenarioPool(store, workers=1, runner=fake_row)
            )
            await server.pool.start()
            server.request_drain("test")
            refused = await server.handle(self.request())
            assert refused.status == "draining"
            assert refused.http_status == 503
            await server.pool.drain(5)

        asyncio.run(scenario())

    def test_execution_failure_maps_to_500(self, tmp_path):
        async def scenario():
            def boom(spec):
                raise RuntimeError("bad scenario")

            store = ResultStore(tmp_path)
            server = ScenarioServer(
                store, pool=ScenarioPool(store, workers=1, runner=boom)
            )
            await server.pool.start()
            response = await server.handle(self.request())
            assert not response.ok
            assert response.status == "execution_failed"
            assert response.http_status == 500
            assert "bad scenario" in response.error
            # A failure leaves no in-flight residue: a retry recomputes.
            assert len(server.inflight) == 0
            await server.pool.drain(5)

        asyncio.run(scenario())

    def test_store_refresh_serves_foreign_rows(self, tmp_path):
        """Rows appended by another process become servable on miss."""
        async def scenario():
            mine = ResultStore(tmp_path)
            server = ScenarioServer(
                mine, pool=ScenarioPool(mine, workers=1, runner=fake_row)
            )
            await server.pool.start()
            spec = small_spec(seed=9)
            theirs = ResultStore(tmp_path)  # a concurrent sweep's handle
            theirs.put(spec.fingerprint(), {"rounds": 42})
            response = await server.handle(ServeRequest.from_payload(
                {"scenario": json.loads(spec.to_json())}
            ))
            assert response.ok and response.source == "cache"
            assert response.row["rounds"] == 42
            assert server.pool.executions == 0
            await server.pool.drain(5)

        asyncio.run(scenario())

    def test_stats_shape(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path)
            server = ScenarioServer(
                store, pool=ScenarioPool(store, workers=1, runner=fake_row)
            )
            await server.pool.start()
            await server.handle(self.request())
            await server.handle(self.request())
            stats = server.stats()
            assert stats["requests"] == 2
            assert stats["errors"] == 0
            assert stats["by_source"] == {"fresh": 1, "cache": 1}
            assert stats["executions"] == 1
            assert stats["queue"]["capacity"] == server.pool.queue_depth
            assert "cache" in stats["latency"]
            await server.pool.drain(5)

        asyncio.run(scenario())


class TestWarmCacheLatency:
    def test_warm_p99_under_10ms(self, tmp_path):
        """Acceptance: repeat scenarios answer in single-digit millis."""
        async def scenario():
            store = ResultStore(tmp_path)
            server = ScenarioServer(
                store, pool=ScenarioPool(store, workers=1, runner=fake_row)
            )
            await server.pool.start()
            request = ServeRequest.from_payload(
                {"scenario": spec_payload(), "client": "warm"}
            )
            await server.handle(request)  # fill the cache
            latencies = []
            for _ in range(300):
                response = await server.handle(request)
                assert response.source == "cache"
                latencies.append(response.latency_ms)
            assert percentile(latencies, 99) < 10.0
            await server.pool.drain(5)

        asyncio.run(scenario())
