"""Graceful SIGINT/SIGTERM shutdown of sweeps and the worker pool."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.orchestrator import (
    INTERRUPT_EXIT_CODE,
    ResultStore,
    ShutdownFlag,
    TreeSpec,
    graceful_shutdown,
    run_jobspecs,
    run_tasks,
)
from repro.scenario import ScenarioSpec


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


def _trip_later(flag, delay):
    timer = threading.Timer(delay, flag.request, args=("test",))
    timer.daemon = True
    timer.start()
    return timer


class TestRunTasksStopFlag:
    def test_preset_flag_runs_nothing(self):
        flag = ShutdownFlag()
        flag.request("preset")
        calls = []
        outcomes = run_tasks(
            [1, 2, 3], calls.append, max_workers=1, stop=flag
        )
        assert calls == []
        assert all(o.status == "failed" for o in outcomes)
        assert all(o.error == "interrupted by shutdown" for o in outcomes)

    def test_inline_stops_between_tasks(self):
        flag = ShutdownFlag()

        def worker(payload):
            flag.request("after first")
            return payload

        outcomes = run_tasks([1, 2, 3], worker, max_workers=1, stop=flag)
        assert outcomes[0].ok
        assert [o.status for o in outcomes[1:]] == ["failed", "failed"]

    def test_pooled_drains_without_orphans(self):
        flag = ShutdownFlag()
        started = time.monotonic()
        _trip_later(flag, 0.6)
        outcomes = run_tasks(
            [0.3, 0.3, 5.0, 5.0, 5.0, 5.0],
            _sleepy,
            max_workers=2,
            stop=flag,
        )
        elapsed = time.monotonic() - started
        assert elapsed < 4.0, "drain must not wait for the slow tasks"
        assert len(outcomes) == 6
        done = [o for o in outcomes if o.ok]
        interrupted = [o for o in outcomes if not o.ok]
        assert done and interrupted
        assert all(o.error == "interrupted by shutdown" for o in interrupted)
        # Every worker process was reaped: no live children remain.
        import multiprocessing

        assert not multiprocessing.active_children()

    def test_partial_results_flushed_to_store(self, tmp_path):
        class TripAfter(ShutdownFlag):
            """Reports "set" from the N-th poll onward."""

            def __init__(self, polls):
                super().__init__()
                self._budget = polls

            def is_set(self):
                self._budget -= 1
                if self._budget < 0:
                    self.request("mid-sweep")
                return super().is_set()

        specs = [
            ScenarioSpec(kind="tree", algorithm="bfdn",
                         substrate=TreeSpec.named("comb", 40, seed=s),
                         k=2, label=f"s{s}")
            for s in range(4)
        ]
        store = ResultStore(tmp_path)
        outcomes = run_jobspecs(
            specs, store=store, max_workers=1, stop=TripAfter(2)
        )
        done = [o for o in outcomes if o.ok]
        failed = [o for o in outcomes if not o.ok]
        assert done and failed
        assert all(o.error == "interrupted by shutdown" for o in failed)
        # Results that settled before the trip were flushed as they
        # settled; re-running resumes from them as cache hits.
        resumed = run_jobspecs(specs, store=store, max_workers=1, retries=0)
        assert all(o.ok for o in resumed)
        assert sum(o.status == "cache-hit" for o in resumed) >= len(done)


class TestGracefulShutdownContext:
    def test_signal_sets_flag_without_raising(self):
        with graceful_shutdown() as flag:
            assert not flag.is_set()
            os.kill(os.getpid(), signal.SIGINT)
            # The handler runs synchronously in the main thread.
            assert flag.is_set()
            assert flag.reason == "SIGINT"
        assert not flag.is_set()  # re-armed on exit

    def test_second_signal_raises_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with graceful_shutdown():
                os.kill(os.getpid(), signal.SIGINT)
                os.kill(os.getpid(), signal.SIGINT)

    def test_handlers_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_shutdown():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


@pytest.mark.slow
class TestSweepCliSignal:
    def test_sigint_drains_sweep_and_flushes_cache(self, tmp_path):
        cache = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), "..", "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        # Sixteen jobs of 40k nodes keep two workers busy for several
        # seconds even on a fast host, so the signal lands mid-sweep.
        seeds = [str(s) for s in range(16)]
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "sweep",
                "--algorithms", "bfdn", "--trees", "random",
                "-n", "40000", "-k", "2", "--seeds", *seeds,
                "--jobs", "2", "--cache-dir", str(cache),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        # The sweep opens its store just before it binds the signal
        # handlers; wait for that rather than guessing the import time.
        deadline = time.monotonic() + 30.0
        while not cache.exists():
            assert proc.poll() is None, proc.communicate()[0]
            assert time.monotonic() < deadline, "sweep never opened its store"
            time.sleep(0.05)
        time.sleep(1.0)  # let at least one job start
        proc.send_signal(signal.SIGINT)
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            pytest.fail("sweep did not drain within 30s of SIGINT")
        assert proc.returncode == INTERRUPT_EXIT_CODE, out
        assert "interrupted" in out
        # The store is readable and holds only whole rows.
        store = ResultStore(cache)
        assert store.skipped_lines == 0
