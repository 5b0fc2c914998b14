"""End-to-end telemetry: writers, the worker-pool boundary, SweepEvents."""

import pytest

from repro.obs import (
    TelemetryConfig,
    TelemetryEvent,
    TelemetryJob,
    TelemetryWriter,
    load_trace,
    run_telemetry_job,
    validate_events,
)
from repro.obs.writer import telemetry_path
from repro.orchestrator import (
    ProgressTracker,
    ResultStore,
    SweepEvent,
    TreeSpec,
    run_jobspecs,
)
from repro.scenario import ScenarioSpec


class TestWriter:
    def test_events_append_as_jsonl(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetryWriter(path) as writer:
            writer.emit("run_start", span_id="a")
            writer.emit("run_end", span_id="a")
        events = load_trace(path)
        assert [ev.event for ev in events] == ["run_start", "run_end"]
        assert events[0].seq < events[1].seq
        assert validate_events(events) is None

    def test_corrupt_line_is_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(str(path), "aa" * 8) as writer:
            writer.emit("run_start", span_id="a")
        path.write_bytes(path.read_bytes() + b'{"torn...\n')
        events = load_trace(str(path))
        assert len(events) == 1

    def test_config_resolves_dir_vs_file(self, tmp_path):
        assert telemetry_path("x/y.jsonl", "t1") == "x/y.jsonl"
        assert telemetry_path("x", "t1").endswith("trace-t1.jsonl")
        config = TelemetryConfig.create(str(tmp_path))
        assert config.path.startswith(str(tmp_path))
        assert config.trace_id in config.path

    def test_config_rejects_bad_round_every(self):
        with pytest.raises(ValueError, match="round_every"):
            TelemetryConfig(path="x.jsonl", trace_id="t", round_every=0)


class TestRunTelemetryJob:
    def test_single_job_brackets_and_annotates_row(self, tmp_path):
        config = TelemetryConfig.create(str(tmp_path), round_every=10)
        spec = ScenarioSpec("tree", "bfdn", TreeSpec.named("comb", 40, seed=1), 3)
        job = TelemetryJob(spec=spec, config=config)
        row = run_telemetry_job(job)
        assert row["trace_id"] == config.trace_id
        assert row["span_id"] == job.span_id
        assert row["violations"] == 0
        assert row["margin_theorem1"] > 0
        assert row["obs_moves"] > 0
        events = load_trace(str(tmp_path))
        assert validate_events(events) is None
        kinds = [ev.event for ev in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "round" in kinds and "budget" in kinds
        assert all(ev.trace_id == config.trace_id for ev in events)
        assert all(ev.span_id == job.span_id for ev in events)


class TestPoolBoundary:
    def test_ids_survive_worker_processes(self, tmp_path):
        # Two workers, four jobs: every telemetry event written from
        # inside the pool must still carry the sweep's trace id and its
        # job's span id, and the correlation must match the result rows.
        config = TelemetryConfig.create(str(tmp_path / "tel"), round_every=25)
        tree = TreeSpec.named("comb", 50, seed=2)
        specs = [
            ScenarioSpec("tree", "bfdn", tree, k, seed=s, label=f"job-{k}-{s}")
            for k in (2, 3)
            for s in (0, 1)
        ]
        store = ResultStore(tmp_path / "cache")
        tracker = ProgressTracker()
        outcomes = run_jobspecs(
            specs,
            store=store,
            max_workers=2,
            tracker=tracker,
            telemetry=config,
        )
        assert all(o.ok for o in outcomes)
        row_spans = {o.row["span_id"] for o in outcomes}
        assert len(row_spans) == 4
        assert all(o.row["trace_id"] == config.trace_id for o in outcomes)

        events = load_trace(str(tmp_path / "tel"))
        assert validate_events(events) is None
        assert all(ev.trace_id == config.trace_id for ev in events)
        per_round = [ev for ev in events if ev.event in ("round", "budget")]
        assert per_round
        assert all(ev.span_id for ev in per_round)
        assert {ev.span_id for ev in per_round} == row_spans
        # Orchestrator transitions are mirrored into the same stream...
        span_events = [ev for ev in events if ev.event == "span"]
        assert {ev.data["kind"] for ev in span_events} >= {"queued", "done"}
        # ...and the sweep itself is bracketed at trace level.
        trace_level = [ev for ev in events if ev.span_id == config.trace_id]
        assert [ev.event for ev in trace_level] == ["run_start", "run_end"]
        assert trace_level[1].data["jobs"] == 4

    def test_cache_hits_still_bracket_the_sweep(self, tmp_path):
        config = TelemetryConfig.create(str(tmp_path / "tel"))
        spec = ScenarioSpec("tree", "bfdn", TreeSpec.named("comb", 30, seed=1), 2)
        store = ResultStore(tmp_path / "cache")
        run_jobspecs([spec], store=store, max_workers=1, telemetry=config)
        second = TelemetryConfig.create(str(tmp_path / "tel"))
        tracker = ProgressTracker()
        run_jobspecs(
            [spec], store=store, max_workers=1, tracker=tracker,
            telemetry=second,
        )
        assert tracker.counts["cache-hit"] == 1
        events = [
            ev for ev in load_trace(str(tmp_path / "tel"))
            if ev.trace_id == second.trace_id
        ]
        starts = [ev for ev in events if ev.event == "run_start"]
        ends = [ev for ev in events if ev.event == "run_end"]
        assert len(starts) >= 1 and len(ends) >= 1


class TestSweepEventTelemetry:
    def test_round_trip(self):
        original = SweepEvent(
            kind="retry",
            label="job-1",
            fingerprint="f" * 12,
            attempt=2,
            elapsed=1.25,
            detail="TimeoutError",
            trace_id="t" * 16,
            span_id="s" * 12,
        )
        restored = SweepEvent.from_telemetry(original.to_telemetry())
        assert restored == original

    def test_to_telemetry_requires_trace_id(self):
        with pytest.raises(ValueError, match="trace_id"):
            SweepEvent(kind="done").to_telemetry()

    def test_from_telemetry_rejects_other_events(self):
        ev = TelemetryEvent(event="round", trace_id="t")
        with pytest.raises(ValueError, match="span"):
            SweepEvent.from_telemetry(ev)


class TestProgressTrackerGuards:
    def test_rates_are_zero_before_any_work(self):
        tracker = ProgressTracker()
        assert tracker.hit_rate() == 0.0
        assert tracker.rounds_per_sec() == 0.0
        assert tracker.wall_time() >= 0.0

    def test_negative_contributions_are_dropped(self):
        tracker = ProgressTracker()
        tracker.add_rounds(100, 0.5)
        tracker.add_rounds(-50, 0.1)
        tracker.add_rounds(10, -1.0)
        assert tracker.rounds_total == 100
        assert tracker.sim_seconds == 0.5
        assert tracker.rounds_per_sec() == pytest.approx(200.0)

    def test_zero_sim_seconds_does_not_divide(self):
        tracker = ProgressTracker()
        tracker.add_rounds(100, 0.0)
        assert tracker.rounds_per_sec() == 0.0
