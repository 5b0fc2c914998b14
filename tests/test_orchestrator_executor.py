"""Executor tests: caching, resume, deduplication and fault tolerance."""

import multiprocessing
import os
import time

import pytest

from repro import registry
from repro.orchestrator import (
    ProgressTracker,
    ResultStore,
    ShutdownFlag,
    TreeSpec,
    run_jobspecs,
    run_tasks,
)
from repro.orchestrator.executor import _run_pooled
from repro.scenario import ScenarioSpec
from repro.sim.engine import ExplorationAlgorithm

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="fault injection relies on fork inheriting the registry"
)


class CrashingAlgorithm(ExplorationAlgorithm):
    """Kills its worker process outright (simulates a segfault/OOM-kill)."""

    name = "crasher"

    def select_moves(self, expl, movable):
        os._exit(23)


class HangingAlgorithm(ExplorationAlgorithm):
    """Never makes progress (simulates a wedged job)."""

    name = "hanger"

    def select_moves(self, expl, movable):
        time.sleep(300)
        return {}


@pytest.fixture
def fault_algorithms():
    """Temporarily register crash/hang algorithms under the shared registry."""
    registry.ALGORITHMS["crasher"] = CrashingAlgorithm
    registry.ALGORITHMS["hanger"] = HangingAlgorithm
    try:
        yield
    finally:
        registry.ALGORITHMS.pop("crasher", None)
        registry.ALGORITHMS.pop("hanger", None)


def grid(ks=(2, 3), family="comb", n=60, **overrides):
    base = dict(algorithm="bfdn", compute_bounds=False)
    base.update(overrides)
    return [
        ScenarioSpec(
            kind="tree",
            substrate=TreeSpec.named(family, n),
            k=k,
            label=f"{family}-k{k}",
            **base,
        )
        for k in ks
    ]


#: Row columns that measure the run (time, resources), not its result.
_MEASURED = {"elapsed", "rounds_per_sec", "max_rss_kb", "energy_j"}


def _stable(row):
    return {
        key: value for key, value in row.items()
        if key not in _MEASURED and not key.startswith("cpu_")
    }


def sweep_scenarios():
    """Every sweep algorithm on a few families, async-cte stochastic."""
    specs = []
    for i, algorithm in enumerate(
        ("bfdn", "cte", "tree-mining", "potential-cte", "async-cte")
    ):
        for family in ("random", "spider"):
            async_kind = algorithm == "async-cte"
            specs.append(ScenarioSpec(
                kind="async-tree" if async_kind else "tree",
                algorithm=algorithm,
                substrate=TreeSpec.named(family, 120, seed=i),
                k=4,
                seed=i,
                speed="stochastic" if async_kind else None,
                label=f"{algorithm}/{family}",
            ))
    return specs


class TestCaching:
    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = ProgressTracker()
        first = run_jobspecs(grid(), store=store, max_workers=0, tracker=cold)
        assert [o.status for o in first] == ["done", "done"]
        assert cold.counts["cache-hit"] == 0

        warm = ProgressTracker()
        second = run_jobspecs(grid(), store=store, max_workers=0, tracker=warm)
        assert [o.status for o in second] == ["cache-hit", "cache-hit"]
        # Zero re-simulation on a warm cache: nothing started, no rounds.
        assert warm.counts["started"] == 0
        assert warm.counts["done"] == 0
        assert warm.rounds_total == 0
        assert warm.hit_rate() == 1.0
        for a, b in zip(first, second):
            assert a.row["rounds"] == b.row["rounds"]

    def test_no_store_always_simulates(self):
        tracker = ProgressTracker()
        run_jobspecs(grid(), store=None, max_workers=0, tracker=tracker)
        assert tracker.counts["cache-hit"] == 0
        assert tracker.counts["done"] == 2

    def test_use_cache_false_bypasses_lookup(self, tmp_path):
        store = ResultStore(tmp_path)
        run_jobspecs(grid(), store=store, max_workers=0)
        tracker = ProgressTracker()
        run_jobspecs(
            grid(), store=store, max_workers=0, use_cache=False, tracker=tracker
        )
        assert tracker.counts["cache-hit"] == 0
        assert tracker.counts["done"] == 2

    def test_cache_hit_patches_label(self, tmp_path):
        store = ResultStore(tmp_path)
        run_jobspecs(grid(), store=store, max_workers=0)
        relabelled = [
            ScenarioSpec(
                kind=s.kind,
                algorithm=s.algorithm,
                substrate=s.substrate,
                k=s.k,
                label=f"new-{s.k}",
            )
            for s in grid()
        ]
        out = run_jobspecs(relabelled, store=store, max_workers=0)
        assert [o.status for o in out] == ["cache-hit", "cache-hit"]
        assert [o.row["label"] for o in out] == ["new-2", "new-3"]

    def test_duplicates_within_sweep_run_once(self):
        specs = grid(ks=(2, 2, 2))
        tracker = ProgressTracker()
        out = run_jobspecs(specs, max_workers=0, tracker=tracker)
        assert tracker.counts["done"] == 1
        assert [o.status for o in out] == ["done", "cache-hit", "cache-hit"]
        assert len({o.row["rounds"] for o in out}) == 1


class TestWorkerSeam:
    """The executor resolves ``run_jobspec`` at dispatch time.

    A wrapper patched over ``repro.orchestrator.executor.run_jobspec``
    (as an external tracer does) must see every job of a batch, and the
    worker must keep living at ``repro.orchestrator.jobspec``.
    """

    def test_patched_worker_runs_every_job(self, monkeypatch):
        from repro.orchestrator import executor, jobspec
        from repro.scenario import run_scenario

        calls = []

        def counting(spec):
            calls.append(spec)
            return jobspec.run_jobspec(spec)

        monkeypatch.setattr(executor, "run_jobspec", counting)
        specs = [
            ScenarioSpec(
                kind="tree",
                algorithm=algorithm,
                substrate=jobspec.TreeSpec.named("comb", 40, seed=1),
                k=3,
                label=algorithm,
            )
            for algorithm in ("bfdn", "cte")
        ]
        outcomes = run_jobspecs(specs, max_workers=0)
        assert calls == specs
        assert [_stable(o.row) for o in outcomes] == [
            _stable(run_scenario(spec)) for spec in specs
        ]


class TestResume:
    def test_interrupted_sweep_resumes_where_it_stopped(self, tmp_path):
        full = grid(ks=(2, 3, 4, 5))
        # "Interrupt" after half the grid...
        store = ResultStore(tmp_path)
        run_jobspecs(full[:2], store=store, max_workers=0)
        # ...crash leaves a truncated line behind...
        with (tmp_path / "results.jsonl").open("a") as handle:
            handle.write('{"schema": "trunc')
        # ...then the re-run only simulates the missing half.
        tracker = ProgressTracker()
        out = run_jobspecs(
            full, store=ResultStore(tmp_path), max_workers=0, tracker=tracker
        )
        assert [o.status for o in out] == [
            "cache-hit", "cache-hit", "done", "done",
        ]
        assert tracker.counts["done"] == 2
        assert tracker.hit_rate() == 0.5


class TestFaultTolerance:
    def test_inline_retry_then_succeed(self):
        calls = {"count": 0}

        def flaky(payload):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient")
            return payload * 10

        tracker = ProgressTracker()
        out = run_tasks(
            [7], flaky, max_workers=0, retries=2, backoff=0.0, tracker=tracker
        )
        assert out[0].ok and out[0].result == 70
        assert out[0].attempts == 2
        assert tracker.counts["retry"] == 1

    def test_inline_exhausts_retries(self):
        def broken(payload):
            raise ValueError("always")

        out = run_tasks([1, 2], broken, max_workers=0, retries=1, backoff=0.0)
        assert [o.status for o in out] == ["failed", "failed"]
        assert all(o.attempts == 2 for o in out)
        assert "always" in out[0].error

    @needs_fork
    def test_crashing_job_never_aborts_the_sweep(self, fault_algorithms):
        specs = grid(ks=(2, 3)) + grid(ks=(2,), algorithm="crasher")
        tracker = ProgressTracker()
        out = run_jobspecs(
            specs, max_workers=2, retries=1, backoff=0.01, tracker=tracker
        )
        assert [o.status for o in out] == ["done", "done", "failed"]
        assert out[2].attempts == 2  # retried once, then reported failed
        assert "died" in out[2].error
        assert tracker.counts["retry"] == 1
        assert tracker.counts["failed"] == 1

    @needs_fork
    def test_hanging_job_is_killed_and_marked(self, fault_algorithms):
        specs = grid(ks=(2,), algorithm="hanger") + grid(ks=(2, 3))
        tracker = ProgressTracker()
        start = time.monotonic()
        out = run_jobspecs(
            specs,
            max_workers=3,
            timeout=0.5,
            retries=0,
            backoff=0.01,
            tracker=tracker,
        )
        assert time.monotonic() - start < 30
        assert out[0].status == "failed"
        assert "timed out" in out[0].error
        assert [o.status for o in out[1:]] == ["done", "done"]
        assert tracker.counts["timeout"] == 1

    @needs_fork
    def test_pooled_results_match_inline(self):
        # One reused worker runs many jobs: no per-process state may leak
        # from one job's row into the next.
        specs = grid(ks=(2, 3, 4)) + sweep_scenarios()
        inline = run_jobspecs(specs, max_workers=0)
        pooled = run_jobspecs(specs, max_workers=2)
        assert all(o.status == "done" for o in inline + pooled)
        for spec, a, b in zip(specs, inline, pooled):
            assert a.row["fingerprint"] == spec.fingerprint()
            assert _stable(a.row) == _stable(b.row)


class TestStreamingPersistence:
    def test_on_outcome_fires_as_tasks_settle(self):
        seen = []
        run_tasks(
            [1, 2, 3], _square, max_workers=0,
            on_outcome=lambda o: seen.append(o.result),
        )
        assert seen == [1, 4, 9]

    @needs_fork
    def test_on_outcome_fires_in_pooled_mode(self):
        seen = []
        run_tasks(
            [1, 2, 3], _square, max_workers=2,
            on_outcome=lambda o: seen.append(o.result),
        )
        assert sorted(seen) == [1, 4, 9]  # completion order, all present

    @needs_fork
    def test_freed_worker_starts_its_next_task_before_the_last_settles(self):
        # A pool of one worker: task 1 must be under way while task 0's
        # result is persisted, not after.
        tracker = ProgressTracker()
        started_at_settle = {}

        def on_outcome(outcome):
            started_at_settle[outcome.index] = [
                e.label for e in tracker.events if e.kind == "started"
            ]

        out = _run_pooled(
            [1, 2, 3], _square, ["t0", "t1", "t2"], max_workers=1,
            timeout=None, retries=0, backoff=0.0, tracker=tracker,
            on_outcome=on_outcome, stop=ShutdownFlag(),
        )
        assert [o.result for o in out] == [1, 4, 9]
        assert "t1" in started_at_settle[0]
        assert "t2" in started_at_settle[1]
        assert not multiprocessing.active_children()

    @needs_fork
    def test_received_results_settle_when_the_next_dispatch_raises(self):
        # A second ^C can raise out of the next payload's pickling; the
        # result already received must still reach ``on_outcome``.
        seen = []
        with pytest.raises(KeyboardInterrupt):
            _run_pooled(
                [1, _InterruptOnPickle(), 3], _square, ["t0", "t1", "t2"],
                max_workers=1, timeout=None, retries=0, backoff=0.0,
                tracker=None, on_outcome=lambda o: seen.append(o.result),
                stop=ShutdownFlag(),
            )
        assert seen == [1]
        assert not multiprocessing.active_children()

    def test_successes_persist_even_when_a_later_job_fails(self, tmp_path):
        # An interrupted/partially-failing sweep must keep every job
        # that finished: results stream into the store as they settle.
        from repro import registry

        class Broken:
            """Raises before the first round."""

            name = "broken"

            def attach(self, expl):
                raise RuntimeError("kaboom")

        registry.ALGORITHMS["broken-stream"] = Broken
        try:
            store = ResultStore(tmp_path)
            specs = grid(ks=(2, 3)) + grid(ks=(2,), algorithm="broken-stream")
            out = run_jobspecs(
                specs, store=store, max_workers=0, retries=0, backoff=0.0
            )
            assert [o.status for o in out] == ["done", "done", "failed"]
            assert len(store) == 2
            for outcome in out[:2]:
                assert outcome.fingerprint in store
        finally:
            registry.ALGORITHMS.pop("broken-stream", None)


class TestRunTasks:
    def test_order_preserved(self):
        out = run_tasks(list(range(6)), _square, max_workers=0)
        assert [o.result for o in out] == [0, 1, 4, 9, 16, 25]

    @needs_fork
    def test_pooled_order_preserved(self):
        out = run_tasks(list(range(6)), _square, max_workers=3)
        assert [o.result for o in out] == [0, 1, 4, 9, 16, 25]

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            run_tasks([1], _square, labels=["a", "b"])

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_tasks([1], _square, retries=-1)


def _square(x):
    """Top-level worker (picklable for pooled runs)."""
    return x * x


def _pid(_):
    return os.getpid()


class _InterruptOnPickle:
    """A payload whose pickling raises ``KeyboardInterrupt`` (a ^C)."""

    def __reduce__(self):
        raise KeyboardInterrupt


def _faulty(payload):
    """Record this worker's pid, then fail as ``payload`` says."""
    kind, path = payload
    with open(path, "w") as handle:
        handle.write(str(os.getpid()))
    if kind == "crash":
        os._exit(7)
    if kind == "hang":
        time.sleep(60)
    if kind == "exit":
        raise SystemExit(3)
    raise ValueError("ordinary failure")


def _pid_or_fault(payload):
    return _pid(payload) if payload is None else _faulty(payload)


def _timed_sleep(seconds):
    """Sleep; report the worker's own run span and its end (epoch s)."""
    start = time.perf_counter()
    time.sleep(seconds)
    return time.perf_counter() - start, time.time()


def _alive(pid):
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


@needs_fork
class TestWorkerReuse:
    def test_workers_serve_many_tasks(self):
        out = run_tasks([None] * 12, _pid, max_workers=2)
        assert all(o.ok for o in out)
        assert len({o.result for o in out}) <= 2
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("kind, error", [
        ("crash", "worker process died (exitcode 7)"),
        ("hang", "timed out after 1.0s"),
        ("exit", "SystemExit: 3"),
    ])
    def test_faulted_worker_is_replaced(self, tmp_path, kind, error):
        path = str(tmp_path / "faulted.pid")
        payloads = [(kind, path)] + [None] * 8
        out = run_tasks(payloads, _pid_or_fault, max_workers=2,
                        timeout=1.0, retries=0)
        assert out[0].status == "failed" and out[0].error == error
        assert out[0].timed_out == (kind == "hang")
        assert all(o.ok for o in out[1:])
        pids = {o.result for o in out[1:]}
        with open(path) as handle:
            assert int(handle.read()) not in pids
        assert len(pids) <= 2
        assert not multiprocessing.active_children()

    def test_ordinary_exception_keeps_the_worker(self, tmp_path):
        path = str(tmp_path / "raised.pid")
        out = run_tasks([("raise", path)] + [None] * 11, _pid_or_fault,
                        max_workers=2, retries=0)
        assert out[0].error == "ValueError: ordinary failure"
        assert all(o.ok for o in out[1:])
        with open(path) as handle:
            raiser = int(handle.read())
        # A replacement worker would make a third pid.
        assert len({raiser} | {o.result for o in out[1:]}) <= 2

    def test_unpicklable_payload_fails_only_its_task(self):
        import threading

        out = run_tasks([threading.Lock(), None, None], _pid, max_workers=2,
                        retries=0)
        assert out[0].status == "failed" and "pickle" in out[0].error
        assert all(o.ok for o in out[1:])
        assert not multiprocessing.active_children()

    def test_returns_promptly_and_reaps_every_worker(self):
        out = run_tasks([0.2] * 6, _timed_sleep, max_workers=2)
        returned = time.time()
        assert all(o.ok for o in out)
        assert returned - max(o.result[1] for o in out) < 1.0
        assert not multiprocessing.active_children()

    def test_elapsed_covers_the_workers_own_span(self):
        out = run_tasks([0.0, 0.01, 0.0, 0.02] * 5, _timed_sleep,
                        max_workers=2)
        for outcome in out:
            assert outcome.elapsed >= outcome.result[0]


_ORPHAN_SCRIPT = """
import os, sys, time
from repro.orchestrator import run_tasks

def nap(path):
    with open(path, "a") as handle:
        print(os.getpid(), file=handle)
    time.sleep(0.3)

run_tasks([sys.argv[1]] * 200, nap, max_workers=3)
"""


@needs_fork
def test_workers_exit_when_the_parent_is_killed(tmp_path):
    import signal
    import subprocess
    import sys

    pids_file = tmp_path / "pids"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT, str(pids_file)], env=env
    )
    try:
        deadline = time.monotonic() + 30.0
        pids = set()
        while len(pids) < 3:
            assert proc.poll() is None, "run_tasks returned too early"
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.05)
            if pids_file.exists():
                pids = {int(p) for p in pids_file.read_text().split()}
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    deadline = time.monotonic() + 5.0
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in pids if _alive(pid)]


class TestEvents:
    def test_event_stream_shape(self):
        tracker = ProgressTracker()
        run_jobspecs(grid(), max_workers=0, tracker=tracker)
        kinds = [event.kind for event in tracker.events]
        assert kinds == ["queued", "queued", "started", "done", "started", "done"]
        assert tracker.bar().endswith("2/2")
        assert "2/2 jobs" in tracker.summary()

    def test_as_rows_renders_with_ascii_tooling(self):
        from repro.analysis import render_table

        tracker = ProgressTracker()
        run_jobspecs(grid(), max_workers=0, tracker=tracker)
        table = render_table(tracker.as_rows())
        assert "queued" in table and "done" in table

    def test_sink_receives_events(self):
        seen = []
        tracker = ProgressTracker(sink=seen.append)
        run_jobspecs(grid(ks=(2,)), max_workers=0, tracker=tracker)
        assert [event.kind for event in seen] == ["queued", "started", "done"]

    def test_unknown_kind_rejected(self):
        from repro.orchestrator import SweepEvent

        with pytest.raises(ValueError):
            SweepEvent(kind="exploded")
