"""The repo's benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload explore-telemetry --seed 0 --seconds 30 --trace 0

Workloads (why each exists is recorded in ``BENCHMARK.json``):

* ``explore-telemetry``  large tree/graph scenarios, inline, one process,
  each through ``run_telemetry_job`` with a JSONL trace;
* ``sweep-cold-small``   small distinct jobs through ``run_jobspecs``
  with a 2-process pool into a fresh store;
* ``serve-mixed``        a ``repro serve`` daemon under an open-loop
  request schedule, then a closed-loop saturation phase.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics
(self-time shares of op wall time, exact counts, coverage and tracing
overhead); the full per-layer table goes to stderr.  Every output row
is checked (``checks.py``); a wrong row counts as a failed operation.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is driven only from outside, through its public entry
points; all temporary state lives under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("explore-telemetry", "sweep-cold-small", "serve-mixed")

#: Environment variables that change the program's behaviour; a run
#: with any of them set would not measure the default system.
GUARDED_ENV = ("REPRO_NO_RESOURCE_SAMPLING", "REPRO_EXPERIMENT_SCALE",
               "REPRO_CACHE_DIR")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Wall-clock limit for one workload process.
PROCESS_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("rounds_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: (name, unit).  ``.share`` is the layer's self time
#: over the total wall time of the timed ops.
PER_LAYER = (
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("scenario.build.share", "ratio"),
    ("scenario.fingerprint.share", "ratio"),
    ("scenario.fingerprint.count", "count"),
    ("sim.select.share", "ratio"),
    ("sim.apply.share", "ratio"),
    ("sim.observe.share", "ratio"),
    ("sim.run_other.share", "ratio"),
    ("sim.rounds", "count"),
    ("sim.reveals", "count"),
    ("orchestrator.dispatch.share", "ratio"),
    ("orchestrator.busy_ratio", "ratio"),
    ("orchestrator.store_put.share", "ratio"),
    ("orchestrator.store_put.count", "count"),
    ("orchestrator.store_get.share", "ratio"),
    ("orchestrator.store_get.count", "count"),
    ("orchestrator.store_refresh.count", "count"),
    ("orchestrator.store_hit_ratio", "ratio"),
    ("orchestrator.store_load.setup_share", "ratio"),
    ("serve.handle.share", "ratio"),
    ("serve.transport.share", "ratio"),
    ("serve.capacity_rps", "1/s"),
    ("serve.queue_wait.share", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.executions", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("obs.share", "ratio"),
    ("obs.write.share", "ratio"),
    ("obs.events", "count"),
    ("obs.trace_bytes", "bytes"),
    ("load.late_ratio", "ratio"),
)

#: Layer self-time entries behind each ``.share`` metric.
SHARES = {
    "scenario.build.share": ("scenario.build",),
    "scenario.fingerprint.share": ("scenario.fingerprint",),
    "sim.select.share": ("sim.select",),
    "sim.apply.share": ("sim.apply",),
    "sim.observe.share": ("sim.observe",),
    "sim.run_other.share": ("sim.run",),
    "orchestrator.dispatch.share": ("orchestrator.dispatch",),
    "orchestrator.store_put.share": ("orchestrator.store_put",),
    "orchestrator.store_get.share": ("orchestrator.store_get",
                                     "orchestrator.store_refresh"),
    "serve.handle.share": ("serve.handle",),
    "serve.transport.share": ("serve.transport",),
    "serve.queue_wait.share": ("serve.queue_wait",),
    "obs.share": ("obs.job", "obs.observers"),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def environment_stamp() -> Dict:
    """What the figures were measured on."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _read_until(process, prefix: str) -> str:
    for line in process.stdout:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise RuntimeError(f"workload process exited (code {process.wait()}) "
                       f"before printing {prefix.strip()}")


def _kill_group(process) -> None:
    """Kill whatever is left of a workload process and its children."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_workload(args, tmp: str, trace: int) -> Dict:
    """Set up ``SETUPS`` times (median), run the last set-up's timed phase.

    Each call works in a fresh directory under ``tmp``: a cold sweep
    needs an empty store, and the serve mix's never-seen scenarios must
    not be in the pre-filled one.
    """
    base = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)]
    env = _env()
    run_tmp = os.path.join(tmp, f"trace{trace}")
    os.makedirs(run_tmp)
    if args.workload == "serve-mixed":
        prefilled = os.path.join(tmp, "prefilled")
        if not os.path.isdir(prefilled):
            subprocess.run(base + ["--tmp", tmp, "--prefill"], env=env,
                           check=True, timeout=PROCESS_TIMEOUT_S)
        shutil.copytree(prefilled, os.path.join(run_tmp, "store"))
    setups: List[float] = []
    for attempt in range(SETUPS):
        started = perf_counter()
        # Its own process group, so the serve daemon it starts goes too.
        process = subprocess.Popen(base + ["--tmp", run_tmp], env=env,
                                   stdin=subprocess.PIPE,
                                   stdout=subprocess.PIPE, text=True,
                                   start_new_session=True)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, (process,))
        watchdog.start()
        try:
            _read_until(process, "@@READY")
            setups.append(perf_counter() - started)
            last = attempt == SETUPS - 1
            process.stdin.write("go\n" if last else "stop\n")
            process.stdin.flush()
            result = json.loads(_read_until(process, "@@RESULT")) if last else None
            if process.wait() != 0:
                raise RuntimeError(f"workload process failed ({process.returncode})")
        finally:
            watchdog.cancel()
            _kill_group(process)
            process.wait()
            process.stdin.close()
            process.stdout.close()
    result["setup_s"] = statistics.median(setups)
    result["spans"] = os.path.join(run_tmp, "spans.jsonl")
    return result


def per_layer(traced: Dict, untraced: Dict) -> Dict[str, float]:
    layers = traced["layers"]
    self_s, extra = layers["self_s"], layers["extra"]
    wall = layers["op_wall_s"]
    out = {name: sum(self_s.get(part, 0.0) for part in parts) / wall
           for name, parts in SHARES.items()}
    out["trace.coverage_ratio"] = 1.0 - layers["uncovered_s"] / wall
    # serve-mixed's ops_per_s is pinned to the offered rate: compare its
    # closed-loop capacity instead.
    out["trace.overhead_ratio"] = (
        untraced.get("capacity_rps", untraced["ops_per_s"])
        / traced.get("capacity_rps", traced["ops_per_s"]))
    out["obs.write.share"] = extra.get("obs.write_s", 0.0) / wall
    out["orchestrator.store_get.share"] += extra.get(
        "orchestrator.store_get_s", 0.0) / wall
    out["orchestrator.store_load.setup_share"] = (
        extra.get("orchestrator.store_load_s", 0.0) / traced["setup_s"])
    out["load.late_ratio"] = traced.get("late_ratio", 0.0)
    out["serve.capacity_rps"] = untraced.get("capacity_rps", 0.0)
    for name, _ in PER_LAYER:
        if name not in out:
            out[name] = float(extra.get(name, 0))
    return out


def print_layer_table(traced: Dict) -> None:
    """The per-layer table in ms per op, for people (stderr)."""
    layers = traced["layers"]
    ops = layers["ops"]
    log(f"per-layer self time over {ops} ops "
        f"({layers['op_wall_s']:.3f} s of op wall time):")
    for name, seconds in sorted(layers["self_s"].items()):
        log(f"  {name:32s} {1000.0 * seconds / ops:10.4f} ms/op "
            f"{seconds / layers['op_wall_s']:8.2%}")
    log(f"  {'(uncovered)':32s} {1000.0 * layers['uncovered_s'] / ops:10.4f} ms/op")
    for name, value in sorted(layers["extra"].items()):
        log(f"  {name:32s} {value:14.4f}")


def print_end_to_end(result: Dict) -> None:
    """All end-to-end figures with units, for people (stderr)."""
    failed_ratio = result["failed"] / result["attempted"]
    log(f"setup_s          {result['setup_s']:.4f} s (median of {SETUPS})")
    log(f"ops_per_s        {result['ops_per_s']:.2f} 1/s")
    log(f"rounds_per_s     {result['rounds_per_s']:.1f} 1/s")
    log(f"latency_p50_ms   {result['latency_p50_ms']:.4f} ms")
    log(f"latency_tail_ms  {result['latency_tail_ms']:.4f} ms "
        f"(p{result['tail_pct']:.1f} of {result['samples']} samples, "
        f"10 beyond it)")
    log(f"cpu_s_per_op     {result['cpu_s_per_op']:.6f} s")
    log(f"peak_rss_mb      {result['peak_rss_mb']:.1f} MB")
    log(f"failed_ratio     {failed_ratio:.4f} "
        f"({result['failed']} of {result['attempted']})")
    if "rate" in result:
        log(f"capacity_rps     {result['capacity_rps']:.1f} 1/s (closed loop, "
            f"median of chunks)")
        log(f"open-loop rate   {result['rate']:.0f} req/s; generator lag p99 "
            f"{result['lag_p99_ms']:.3f} ms")
        if not result["valid"]:
            log("INVALID RUN: the load generator fell behind its schedule; "
                "its latencies are not evidence of a regression")
    for failure in result.get("failures", []):
        log(f"FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        log(f"perfbench: no program source under {os.path.join(ROOT, 'src')}")
        return 2
    guarded = [name for name in GUARDED_ENV if name in os.environ]
    if guarded:
        log(f"perfbench: refusing to run with {', '.join(guarded)} set")
        return 2
    stamp = environment_stamp()
    log("environment: " + json.dumps(stamp, sort_keys=True))

    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir)
    try:
        result = run_workload(args, tmp, trace=0)
        print_end_to_end(result)
        metrics = {name: {"value": float(result[name]), "unit": unit}
                   for name, unit in END_TO_END}
        if args.trace:
            traced = run_workload(args, tmp, trace=1)
            print_layer_table(traced)
            shutil.copy(traced["spans"],
                        os.path.join(workdir, f"spans-{args.workload}.jsonl"))
            values = per_layer(traced, result)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER}
            result["failed"] += traced["failed"]
            result["attempted"] += traced["attempted"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
