"""The engine-attached MetricsObserver."""

import pytest

from repro.obs import (
    MetricsObserver,
    NullWriter,
    TelemetryWriter,
    read_events,
)
from repro.registry import make_algorithm, make_tree
from repro.sim import Simulator


def _run(observer, n=40, k=3, alg="bfdn"):
    tree = make_tree("comb", n, seed=1)
    result = Simulator(
        tree, make_algorithm(alg), k, observers=[observer]
    ).run()
    return result


class TestMetricsObserver:
    def test_counts_full_run(self):
        obs = MetricsObserver(every=10)
        result = _run(obs)
        snap = obs.snapshot()
        # The engine also shows observers the terminal quiescent round,
        # which wall_rounds may not bill.
        assert snap["rounds"] in (result.wall_rounds, result.wall_rounds + 1)
        assert snap["billed_rounds"] == result.rounds
        assert snap["moves"] == result.metrics.total_moves
        assert snap["reveals"] == result.metrics.reveals
        assert snap["moves"] > 0 and snap["reveals"] > 0

    def test_flushes_round_events_with_span_ids(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetryWriter(path, "deadbeef00000000") as writer:
            obs = MetricsObserver(
                writer=writer, span_id="abc123", label="demo", every=5
            )
            _run(obs)
        events = list(read_events(path))
        assert events, "expected periodic round events"
        assert all(ev.event == "round" for ev in events)
        assert all(ev.span_id == "abc123" for ev in events)
        assert all(ev.trace_id == "deadbeef00000000" for ev in events)
        # The terminal flush is marked final and carries the cumulative
        # counters, so the last event alone reconstructs the run.
        assert events[-1].data["final"] is True
        assert events[-1].data["rounds"] == obs.rounds

    def test_phase_times_accumulate(self):
        obs = MetricsObserver()
        _run(obs, n=25)
        assert obs.select_s >= 0 and obs.apply_s >= 0 and obs.observe_s >= 0

    def test_reattach_resets_run_counters(self):
        obs = MetricsObserver()
        _run(obs, n=30)
        first = obs.snapshot()
        _run(obs, n=30)
        second = obs.snapshot()
        # Same seeded run after a reset: every deterministic counter
        # matches (wall times are measurements, not counters).
        timing = {"select_s", "apply_s", "observe_s"}
        for key in first.keys() - timing:
            assert second[key] == first[key]

    def test_rejects_bad_every(self):
        with pytest.raises(ValueError, match="every"):
            MetricsObserver(every=0)

    def test_null_writer_is_default(self):
        assert isinstance(MetricsObserver().writer, NullWriter)
