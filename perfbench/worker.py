"""One workload process: set up, report ready, run the timed phase.

Started by ``run.py``; not meant to be run by hand.  Protocol on
stdout: ``@@READY`` once set-up is done (the parent times set-up up to
this line), then the process waits for ``go`` or ``stop`` on stdin;
after the timed phase it prints ``@@RESULT <json>`` with the end-to-end
figures and, in traced runs, the per-layer table.

``--prefill`` instead fills the serve workload's store and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from time import perf_counter
from typing import Dict, List

import checks
import specs as specgen

HERE = os.path.dirname(os.path.abspath(__file__))

#: Nominal seconds per explore pass and sweep jobs per second, used to
#: turn ``--seconds`` into a fixed amount of work, so a seed's inputs and
#: the traced run's counts are the same on every host.
EXPLORE_PASS_S = 0.7
SWEEP_JOBS_PER_S = 80
#: Jobs per ``run_jobspecs`` call: one window of about half a second
#: (see ``_quiet``).
SWEEP_BATCH = 40

#: serve-mixed: open-loop rate (about half the closed-loop capacity of a
#: 2-core host), share of the run spent open-loop, closed-loop requests
#: per second of run, size of the pre-filled hit set, requests per mix
#: block, closed-loop chunks and open-loop windows.
SERVE_RATE = 900.0
SERVE_OPEN_SHARE = 0.7
SERVE_SAT_PER_S = 300
SERVE_HIT_SET = 160
MIX_BLOCK = 40
SAT_CHUNKS = 7
OPEN_WINDOWS = 20
#: The generator fell behind when its p99 send lag exceeds this (several
#: inter-arrival intervals at ``SERVE_RATE``).
LAG_LIMIT_MS = 10.0

WORKERS = max(1, min(2, os.cpu_count() or 1))


def _rusage_cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb(*whos) -> float:
    return max(resource.getrusage(w).ru_maxrss for w in whos) / 1024.0


def _tail(latencies: List[float]):
    """Highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    # With ten samples or fewer there is no such percentile: use the max.
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    pct = 100.0 * rank / max(1, len(ordered) - 1)
    return ordered[rank], pct, len(ordered)


def _quiet(windows, key=lambda w: w[2] / w[0]):
    """The quarter of the timed windows with the lowest ``key`` (at least 3).

    A window is one ``(ops, rounds, wall_s, cpu_s, latencies_ms)`` tuple:
    an explore pass, a sweep batch, a slice of the serve schedule.  On a
    shared host a neighbour's load only ever slows a window, and it comes
    and goes within seconds: the quarter of windows that ran best (by
    default, least wall time per op) measures the program, the rest
    mostly the neighbours.
    """
    ordered = sorted(windows, key=key)
    return ordered[:max(min(3, len(ordered)), -(-len(ordered) // 4))]


def _summary(windows, rss_mb):
    """End-to-end figures over the ops of ``windows``."""
    ops = sum(w[0] for w in windows)
    wall = sum(w[2] for w in windows)
    latencies = [ms for w in windows for ms in w[4]]
    tail, pct, n = _tail(latencies)
    return {
        "ops_per_s": ops / wall,
        "rounds_per_s": sum(w[1] for w in windows) / wall,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "tail_pct": pct,
        "samples": n,
        "cpu_s_per_op": sum(w[3] for w in windows) / ops,
        "peak_rss_mb": rss_mb,
    }


class Workload:
    """Set-up, warm-up and timed phase of one workload."""

    def __init__(self, args):
        self.args = args
        self.tmp = args.tmp
        self.pins = checks.load_pins()
        self.tracer = None
        self.failures: List[str] = []
        if args.trace:
            import tracing

            self.tracer = tracing.install()

    def check(self, spec, row) -> bool:
        reason = checks.check_row(spec, row, self.pins)
        if reason:
            self.failures.append(f"{spec.label}: {reason}")
        return not reason

    def span(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)[0]

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------
# explore-telemetry: inline through run_telemetry_job, no store, no pool
# ---------------------------------------------------------------------

class Explore(Workload):
    def setup(self) -> None:
        from repro.obs import TelemetryConfig

        self.config = TelemetryConfig.create(os.path.join(self.tmp, "telemetry"))

    def op(self, spec, config):
        from repro.obs import TelemetryJob, run_telemetry_job

        built = spec.build()
        job = TelemetryJob(spec=spec, config=config)
        return self.span("obs.job", run_telemetry_job, job, built=built)

    def warm(self) -> None:
        from repro.obs import TelemetryConfig

        config = TelemetryConfig.create(os.path.join(self.tmp, "warm"))
        for spec in specgen.explore_pass(-1, 0, size=64):
            self.op(spec, config)

    def timed(self) -> Dict:
        passes = max(1, round(self.args.seconds / EXPLORE_PASS_S))
        todo = [specgen.explore_pass(self.args.seed, p) for p in range(passes)]
        rows, latencies, windows = [], [], []
        if self.tracer is not None:
            self.tracer.active = True
        for batch in todo:
            cpu0, start = time.process_time(), perf_counter()
            for spec in batch:
                t0 = perf_counter()
                if self.tracer is not None:
                    self.tracer.op = len(rows) + 1
                rows.append(self.span("op", self.op, spec, self.config))
                latencies.append((perf_counter() - t0) * 1000.0)
            windows.append((len(batch), sum(r["rounds"] for r in rows[-len(batch):]),
                            perf_counter() - start, time.process_time() - cpu0,
                            latencies[-len(batch):]))
        if self.tracer is not None:
            self.tracer.active = False
        flat = [spec for batch in todo for spec in batch]
        ok = [self.check(spec, row) for spec, row in zip(flat, rows)]
        out = _summary(_quiet(windows), _peak_rss_mb(resource.RUSAGE_SELF))
        out.update(attempted=len(flat), failed=ok.count(False))
        if self.tracer is not None:
            out["layers"] = self.layers(sum(latencies) / 1000.0)
        return out

    def layers(self, op_wall_s: float) -> Dict:
        self.tracer.dump(os.path.join(self.tmp, "spans.jsonl"))
        lines = 0
        with open(self.config.path, "rb") as handle:
            for _ in handle:
                lines += 1
        return layer_table(self.tracer.spans, op_wall_s, extra={
            "obs.events": lines,
            "obs.trace_bytes": os.path.getsize(self.config.path),
            "obs.write_s": self.tracer.write_s,
        })


# ---------------------------------------------------------------------
# sweep-cold-small: run_jobspecs(max_workers=2) into a fresh store
# ---------------------------------------------------------------------

class Sweep(Workload):
    def setup(self) -> None:
        from repro.orchestrator import ResultStore, run_jobspecs  # noqa: F401

        started = perf_counter()
        self.store = ResultStore(os.path.join(self.tmp, "store"))
        self.store_load_s = perf_counter() - started

    def warm(self) -> None:
        from repro.orchestrator import ResultStore, run_jobspecs

        # Inline first, so the engine's lazy imports happen here and not
        # in every forked job (as in a ``repro sweep`` process).
        warm_store = ResultStore(os.path.join(self.tmp, "warm-store"))
        gen = specgen.sweep_jobs(-1)
        for workers in (1, WORKERS):
            run_jobspecs([next(gen) for _ in range(10)],
                         store=warm_store, max_workers=workers)

    def timed(self) -> Dict:
        from repro.orchestrator import run_jobspecs
        import repro.orchestrator.executor as executor

        jobs = max(SWEEP_BATCH, round(self.args.seconds * SWEEP_JOBS_PER_S))
        gen = specgen.sweep_jobs(self.args.seed)
        todo = [next(gen) for _ in range(jobs)]
        if self.tracer is not None:
            import tracing

            self.tracer.child_path = os.path.join(self.tmp, "child-spans.jsonl")
            executor.run_jobspec = tracing.traced_run_jobspec
            self.tracer.active = True
        outcomes, batch_starts, windows = [], [], []
        start = perf_counter()
        for i in range(0, len(todo), SWEEP_BATCH):
            batch = todo[i:i + SWEEP_BATCH]
            cpu0 = (_rusage_cpu(resource.RUSAGE_SELF)
                    + _rusage_cpu(resource.RUSAGE_CHILDREN))
            batch_start = perf_counter()
            batch_starts.append((batch_start, len(batch)))
            done = run_jobspecs(batch, store=self.store, max_workers=WORKERS)
            windows.append((
                len(batch), sum(o.row["rounds"] for o in done if o.row),
                perf_counter() - batch_start,
                _rusage_cpu(resource.RUSAGE_SELF)
                + _rusage_cpu(resource.RUSAGE_CHILDREN) - cpu0,
                [o.elapsed * 1000.0 for o in done]))
            outcomes.extend(done)
        wall = perf_counter() - start
        if self.tracer is not None:
            self.tracer.active = False
        ok = [self.check(spec, o.row) for spec, o in zip(todo, outcomes)]
        out = _summary(_quiet(windows), _peak_rss_mb(
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        out.update(attempted=len(todo), failed=ok.count(False))
        if self.tracer is not None:
            out["layers"] = self.layers(outcomes, batch_starts, wall)
        return out

    def layers(self, outcomes, batch_starts, wall) -> Dict:
        """Job ops rebuilt from the children's spans and the parent's puts."""
        import tracing

        children = tracing.load_spans(self.tracer.child_path)
        parent = self.tracer.spans
        puts = {s["key"]: s["dur"] for s in parent
                if s["name"] == "orchestrator.store_put"}
        entry = {s["key"]: s for s in children if s["name"] == "worker"}
        by_job: Dict[str, List[Dict]] = {}
        for span in children:
            by_job.setdefault(span["op"], []).append(span)
        spans: List[Dict] = []
        waits = []
        batch_of = []
        for start, size in batch_starts:
            batch_of.extend([start] * size)
        for index, (outcome, batch_start) in enumerate(zip(outcomes, batch_of), 1):
            worker = entry.get(outcome.fingerprint)
            if worker is None:
                raise RuntimeError(f"no spans from the worker of job {index}")
            put = puts.get(outcome.fingerprint, 0.0)
            op_id = f"job{index}"
            spans.append({"id": op_id, "parent": 0, "op": index, "name": "op",
                          "start": worker["start"],
                          "dur": outcome.elapsed + put})
            spans.append({"id": f"{op_id}.d", "parent": op_id, "op": index,
                          "name": "orchestrator.dispatch", "start": batch_start,
                          "dur": max(0.0, outcome.elapsed - worker["dur"])})
            spans.append({"id": f"{op_id}.p", "parent": op_id, "op": index,
                          "name": "orchestrator.store_put", "start": 0.0,
                          "dur": put})
            waits.append(worker["start"] - batch_start)
            # Children fork the same id counter: namespace ids by job.
            for span in by_job[outcome.fingerprint]:
                spans.append(dict(
                    span, op=index, id=f"{op_id}:{span['id']}",
                    parent=(op_id if span["name"] == "worker"
                            else f"{op_id}:{span['parent']}")))
        with open(os.path.join(self.tmp, "spans.jsonl"), "w") as handle:
            handle.writelines(json.dumps(s) + "\n" for s in spans + parent)
        op_wall = sum(o.elapsed for o in outcomes) + sum(puts.values())
        busy = sum(o.elapsed for o in outcomes) / (WORKERS * wall)
        outside = tracing.counts(parent)
        return layer_table(spans, op_wall, extra={
            "orchestrator.queue_wait_ms": 1000.0 * statistics.mean(waits),
            "orchestrator.busy_ratio": busy,
            "orchestrator.store_get.count": outside.get("orchestrator.store_get", 0),
            "orchestrator.store_get_s": tracing.self_times(parent).get(
                "orchestrator.store_get", 0.0),
            "scenario.fingerprint.count": outside.get("scenario.fingerprint", 0)
            + tracing.counts(children).get("scenario.fingerprint", 0),
            "orchestrator.store_load_s": self.store_load_s,
            "orchestrator.store_hit_ratio": 0.0,
        })


# ---------------------------------------------------------------------
# serve-mixed: a repro serve daemon, open-loop load over 2 connections
# ---------------------------------------------------------------------

def _payload(spec) -> Dict:
    return json.loads(spec.to_json())


class Serve(Workload):
    def setup(self) -> None:
        from repro.serve import ServeClient

        self.spans_path = os.path.join(self.tmp, f"server-spans-{os.getpid()}.jsonl")
        command = [sys.executable, os.path.join(HERE, "serve_main.py"),
                   self.spans_path if self.tracer is not None else "-",
                   "--host", "127.0.0.1", "--port", "0",
                   "--cache-dir", os.path.join(self.args.tmp, "store"),
                   "--jobs", str(WORKERS)]
        self.server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        if WORKERS > 1:
            # Server and generator on their own cores: otherwise where the
            # scheduler happens to put them moves capacity by half.
            os.sched_setaffinity(self.server.pid, {0})
            os.sched_setaffinity(0, {1})
        for line in self.server.stdout:
            if line.startswith("serving http://"):
                host, port = line.split()[1][len("http://"):].split(":")
                break
        else:
            raise RuntimeError("server exited before it was ready")
        self.clients = [ServeClient.http(host, int(port), name=f"gen-{i}")
                        for i in range(WORKERS)]
        self.loop = asyncio.new_event_loop()
        for client in self.clients:
            self.loop.run_until_complete(client.connect())

    def close(self) -> None:
        """Close the connections, drain the server and wait for it."""
        loop = getattr(self, "loop", None)
        if loop is not None and not loop.is_closed():
            for client in self.clients:
                loop.run_until_complete(client.close())
            loop.close()
        server = getattr(self, "server", None)
        if server is not None and server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        if server is not None:
            server.stdout.close()

    def mix(self, rng, hits, fresh_rng, count):
        """``count`` requests as (spec, payload) pairs.

        Every block of ``MIX_BLOCK`` requests holds exactly one never-seen
        scenario and one back-to-back duplicate pair of another, at
        seeded positions; the rest are cache hits.
        """
        out = []
        while len(out) < count:
            block = [rng.choice(hits) for _ in range(MIX_BLOCK - 3)]
            block.insert(rng.randrange(len(block) + 1),
                         specgen.never_seen(fresh_rng))
            pair = rng.randrange(len(block) + 1)
            block[pair:pair] = [specgen.never_seen(fresh_rng)] * 2
            for i, spec in enumerate(block):
                if i == pair + 1:
                    out.append(out[-1])  # the duplicate reuses the payload
                else:
                    out.append((spec, _payload(spec)))
        return out[:count]

    async def _send(self, idle, spec, payload):
        client = await idle.get()
        try:
            sent = perf_counter()
            try:
                response = await client.run_scenario(payload)
            except (ConnectionError, asyncio.TimeoutError) as exc:
                response = {"ok": False, "error": str(exc)}
            return spec, response, sent, perf_counter()
        finally:
            idle.put_nowait(client)

    async def _closed(self, requests):
        idle = asyncio.Queue()
        for client in self.clients:
            idle.put_nowait(client)
        return await asyncio.gather(*(self._send(idle, s, p) for s, p in requests))

    async def _open(self, requests, rate):
        idle = asyncio.Queue()
        for client in self.clients:
            idle.put_nowait(client)
        tasks, dues, lags, cpu = [], [], [], []
        size = -(-len(requests) // OPEN_WINDOWS)
        start = perf_counter() + 0.01
        for i, (spec, payload) in enumerate(requests):
            if i % size == 0:
                cpu.append(self._server_cpu())
            due = start + i / rate
            if i and requests[i - 1][1] is payload:
                due = dues[-1]  # a back-to-back duplicate shares its due time
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, perf_counter() - due))
            dues.append(due)
            tasks.append(asyncio.ensure_future(self._send(idle, spec, payload)))
        results = await asyncio.gather(*tasks)
        cpu.append(self._server_cpu())
        return results, dues, lags, cpu

    def warm(self) -> None:
        rng = random.Random("serve-warm")
        hits = specgen.serve_hit_set(self.args.seed, SERVE_HIT_SET)
        self.loop.run_until_complete(self._closed(
            self.mix(rng, hits, random.Random("serve-warm-fresh"), 200)))

    def _server_cpu(self) -> float:
        with open(f"/proc/{self.server.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def _server_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def timed(self) -> Dict:
        seed, seconds = self.args.seed, self.args.seconds
        rng = random.Random(f"serve-mix-{seed}")
        fresh = random.Random(f"serve-fresh-{seed}")
        hits = specgen.serve_hit_set(seed, SERVE_HIT_SET)
        open_reqs = self.mix(rng, hits, fresh,
                             round(SERVE_RATE * seconds * SERVE_OPEN_SHARE))
        sat_reqs = self.mix(rng, hits, fresh,
                            round(SERVE_SAT_PER_S * seconds))
        # The generator keeps every response for the checks; a collector
        # pass over that growing heap would stall it mid-schedule.
        gc.disable()
        before = self.loop.run_until_complete(self.clients[0].get("/stats"))
        window = perf_counter()
        results, dues, lags, cpu = self.loop.run_until_complete(
            self._open(open_reqs, SERVE_RATE))
        window = (window, perf_counter())
        # Closed-loop capacity: the median over SAT_CHUNKS back-to-back
        # chunks, so one long GIL convoy does not set the figure.
        sat, rates = [], []
        size = -(-len(sat_reqs) // SAT_CHUNKS)
        for i in range(0, len(sat_reqs), size):
            chunk_start = perf_counter()
            chunk = self.loop.run_until_complete(self._closed(sat_reqs[i:i + size]))
            chunk_wall = perf_counter() - chunk_start
            rates.append(len(chunk) / chunk_wall)
            sat.extend(chunk)
        gc.enable()
        after = self.loop.run_until_complete(self.clients[0].get("/stats"))
        stats = {key: after[key] - before[key]
                 for key in ("executions", "coalesced", "requests", "errors")}
        rss = self._server_rss_mb()
        self.close()

        ok = [r.get("ok") and self.check(s, r.get("row"))
              for s, r, _, _ in results + sat]
        latencies = [(done - due) * 1000.0
                     for (_, _, _, done), due in zip(results, dues)]
        # OPEN_WINDOWS equal slices of the schedule, each from its first
        # due time to its last response, with the server CPU between
        # them; the quarter with the lowest median latency is reported.
        # Latency is taken per window: a tail pooled over windows would
        # sit beyond the p99 of the fresh requests and follow a handful.
        size = -(-len(results) // OPEN_WINDOWS)
        windows = []
        for w, i in enumerate(range(0, len(results), size)):
            part = results[i:i + size]
            windows.append((
                len(part),
                sum(r["row"]["rounds"] for _, r, _, _ in part if r.get("ok")),
                max(done for _, _, _, done in part) - dues[i],
                cpu[w + 1] - cpu[w],
                latencies[i:i + size]))
        quiet = _quiet(windows, key=lambda w: statistics.median(w[4]))
        out = _summary(quiet, rss)
        out["latency_p50_ms"] = statistics.median(
            statistics.median(w[4]) for w in quiet)
        out["latency_tail_ms"] = statistics.median(_tail(w[4])[0] for w in quiet)
        out["tail_pct"], out["samples"] = _tail(quiet[0][4])[1], len(quiet[0][4])
        out["capacity_rps"] = statistics.median(rates)
        lags_ms = sorted(1000.0 * lag for lag in lags)
        out["lag_p99_ms"] = lags_ms[int(0.99 * (len(lags_ms) - 1))]
        out["late_ratio"] = sum(lag > 1.0 for lag in lags_ms) / len(lags_ms)
        out["valid"] = out["lag_p99_ms"] <= LAG_LIMIT_MS
        out["rate"] = SERVE_RATE
        out.update(attempted=len(ok), failed=ok.count(False))
        if self.tracer is not None:
            out["layers"] = self.layers(results, window, stats)
        return out

    def layers(self, results, window, stats) -> Dict:
        import tracing

        lo, hi = window
        spans = [s for s in tracing.load_spans(self.spans_path)
                 if lo <= s["start"] <= hi]
        with open(os.path.join(self.tmp, "spans.jsonl"), "w") as handle:
            handle.writelines(json.dumps(s) + "\n" for s in spans)
        server = tracing.self_times(spans)
        rtt = sum(done - sent for _, _, sent, done in results)
        handle = {"cache": [], "fresh": [], "dedup": []}
        for _, response, _, _ in results:
            if response.get("ok"):
                handle[response["source"]].append(response["latency_ms"] / 1000.0)
        handled = sum(sum(v) for v in handle.values())
        submits = {s["key"]: s["start"] for s in spans if s["name"] == "serve.submit"}
        queue_wait = sum(max(0.0, s["start"] - submits[s["key"]]) for s in spans
                         if s["name"] == "scenario.build" and s["key"] in submits)
        nested = sum(v for name, v in server.items()
                     if name != "scenario.fingerprint") + queue_wait
        fingerprint = server.get("scenario.fingerprint", 0.0)
        layers = dict(server)
        layers["serve.queue_wait"] = queue_wait
        layers["serve.handle"] = handled - nested
        layers["serve.transport"] = rtt - handled - fingerprint
        counted = tracing.counts(spans)
        sim = [s for s in spans if s["name"] == "sim.run"]
        extra = {
            "serve.handle_ms." + source: 1000.0 * statistics.mean(v) if v else 0.0
            for source, v in handle.items()
        }
        extra.update({
            "serve.queue_depth_max": max([s["depth"] for s in spans
                                          if s["name"] == "serve.submit"] or [0]),
            "serve.executions": stats["executions"],
            "serve.coalesced": stats["coalesced"],
            "serve.rejected": stats["errors"],
            "scenario.fingerprint.count": counted.get("scenario.fingerprint", 0),
            "orchestrator.store_get.count": counted.get("orchestrator.store_get", 0),
            "orchestrator.store_refresh.count": counted.get(
                "orchestrator.store_refresh", 0),
            "orchestrator.store_put.count": counted.get("orchestrator.store_put", 0),
            "orchestrator.store_load_s": sum(
                s["dur"] for s in tracing.load_spans(self.spans_path)
                if s["name"] == "orchestrator.store_load"),
            "orchestrator.store_hit_ratio": len(handle["cache"]) / len(results),
            "sim.rounds": sum(s.get("rounds", 0) for s in sim),
            "sim.reveals": sum(s.get("reveals", 0) for s in sim),
        })
        return summarise(layers, len(results), rtt, extra)


def layer_table(spans, op_wall_s: float, extra: Dict) -> Dict:
    """Per-layer self times of a span tree whose roots are ``op`` spans."""
    import tracing

    layers = tracing.self_times(spans)
    sim = [s for s in spans if s["name"] == "sim.run"]
    extra = dict(extra)
    extra.setdefault("sim.rounds", sum(s.get("rounds", 0) for s in sim))
    extra.setdefault("sim.reveals", sum(s.get("reveals", 0) for s in sim))
    counted = tracing.counts(spans)
    for name in ("scenario.fingerprint", "orchestrator.store_put"):
        extra.setdefault(f"{name}.count", counted.get(name, 0))
    return summarise(layers, counted["op"], op_wall_s, extra)


def summarise(layers: Dict[str, float], ops: int, op_wall_s: float,
              extra: Dict) -> Dict:
    """Seconds of self time per layer, the ops and wall they split, extras."""
    uncovered = layers.pop("op", 0.0) + layers.pop("worker", 0.0)
    return {"self_s": layers, "ops": ops, "op_wall_s": op_wall_s,
            "uncovered_s": uncovered, "extra": extra}


WORKLOADS = {
    "explore-telemetry": Explore,
    "sweep-cold-small": Sweep,
    "serve-mixed": Serve,
}


def prefill(args) -> None:
    """Fill the serve workload's store (the benchmark's own work)."""
    from repro.orchestrator import ResultStore
    from repro.scenario import run_scenario

    store = ResultStore(os.path.join(args.tmp, "prefilled"))
    for spec in specgen.serve_hit_set(args.seed, SERVE_HIT_SET):
        store.put(spec.fingerprint(), run_scenario(spec))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--prefill", action="store_true")
    args = parser.parse_args(argv)
    if args.prefill:
        prefill(args)
        return 0
    workload = WORKLOADS[args.workload](args)
    try:
        workload.setup()
        print("@@READY", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        workload.warm()
        result = workload.timed()
        result["failures"] = workload.failures[:20]
        print("@@RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
