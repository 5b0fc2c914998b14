"""Tests for the perf subsystem: timing observer, bench suite, snapshots."""

import copy
import json

import pytest

from repro.cli import main
from repro.core import BFDN
from repro.perf import (
    PINNED_SUITE,
    BenchCase,
    SnapshotError,
    TimingObserver,
    compare_snapshots,
    default_snapshot_path,
    load_snapshot,
    run_case,
    run_suite,
    select_cases,
    validate_snapshot,
    write_snapshot,
)
from repro.orchestrator import TreeSpec
from repro.registry import make_tree
from repro.scenario import ScenarioSpec
from repro.sim import Simulator
from repro.sim.runloop import RoundLog
from repro.trees import generators as gen

QUICK_CASE = "bfdn/random-n300-k4"


def tiny_snapshot():
    """A real (but fast) snapshot for IO/compare tests."""
    return run_suite(repeats=1, only=[QUICK_CASE])


class TestTimingObserver:
    def run_once(self, timing):
        tree = gen.complete_ary(2, 4)
        res = Simulator(tree, BFDN(), 4, observers=[timing]).run()
        return tree, res

    def test_snapshot_fields(self):
        timing = TimingObserver()
        tree, res = self.run_once(timing)
        snap = timing.snapshot()
        assert snap["billed_rounds"] == res.rounds
        assert snap["reveals"] == tree.n - 1
        assert snap["elapsed"] > 0
        assert snap["rounds_per_sec"] > 0
        assert set(snap["phases"]) == {"select", "apply", "observe"}
        fractions = snap["phase_fractions"]
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert snap["stop_reason"] is not None

    def test_reused_across_runs_resets(self):
        timing = TimingObserver()
        self.run_once(timing)
        first = timing.snapshot()
        self.run_once(timing)
        second = timing.snapshot()
        # Counters reflect one run, not two accumulated.
        assert second["rounds"] == first["rounds"]
        assert second["reveals"] == first["reveals"]

    def test_engine_skips_clock_without_opt_in(self):
        class Silent(TimingObserver):
            wants_phase_timing = False

        timing = Silent()
        self.run_once(timing)
        snap = timing.snapshot()
        assert snap["elapsed"] > 0  # run clock still ticks
        assert snap["phases"] == {"select": 0.0, "apply": 0.0, "observe": 0.0}

    def test_scenario_row_timer_reads_no_phase_clock(self, monkeypatch):
        # A scenario row reads only the run clock and the counters of
        # ``BuiltScenario.run``'s own timer; per-round phase timing goes
        # to a timer the caller passes in, and to no other.
        calls = []
        monkeypatch.setattr(
            TimingObserver, "on_phase_times",
            lambda self, *phases: calls.append(self),
        )
        passed = TimingObserver()
        spec = ScenarioSpec(
            kind="tree", algorithm="cte", k=4,
            substrate=TreeSpec.named("random", 200, seed=1),
        )
        row = spec.build().run(observers=[passed])
        assert row["elapsed"] > 0 and row["rounds_per_sec"] > 0
        assert row["backend"] == "reference"
        assert calls and all(timer is passed for timer in calls)

    @pytest.mark.parametrize("family", ["random", "star", "comb"])
    def test_counters_agree_across_loops(self, family):
        # A plain BFDN run takes the array fast path (one batch summary);
        # a per-round observer pins the same run to the reference loop.
        # Both must count rounds — the final unbilled quiescent round
        # included — billed rounds and reveals alike.
        tree = make_tree(family, 300, seed=1)
        fast, ref = TimingObserver(), TimingObserver()
        Simulator(tree, BFDN(), 4, observers=[fast]).run()
        Simulator(tree, BFDN(), 4, observers=[ref, RoundLog()]).run()
        assert (fast.backend, ref.backend) == ("array", "reference")
        fast_snap, ref_snap = fast.snapshot(), ref.snapshot()
        for key in ("rounds", "billed_rounds", "reveals"):
            assert fast_snap[key] == ref_snap[key], key


class TestSuiteSelection:
    def test_quick_subset(self):
        quick = select_cases(quick=True)
        assert quick and all(c.quick for c in quick)
        assert len(quick) < len(PINNED_SUITE)

    def test_only_filter(self):
        assert [c.name for c in select_cases(only=[QUICK_CASE])] == [QUICK_CASE]

    def test_unknown_only_rejected(self):
        with pytest.raises(ValueError, match="unknown bench case"):
            select_cases(only=["nope"])

    def test_suite_names_unique(self):
        names = [c.name for c in PINNED_SUITE]
        assert len(names) == len(set(names))

    def test_suite_covers_every_kind(self):
        assert {c.kind for c in PINNED_SUITE} == {
            "tree", "checked", "graph", "game", "async-tree"
        }


class TestRunCase:
    def test_repeats_recorded_best_kept(self):
        case = BenchCase(QUICK_CASE, "tree", "random", 300, 4, quick=True)
        result = run_case(case, repeats=2)
        assert len(result["elapsed_all"]) == 2
        assert result["elapsed"] == min(result["elapsed_all"])
        assert result["rounds"] > 0 and result["reveals"] == 299

    def test_bad_repeats_rejected(self):
        case = PINNED_SUITE[0]
        with pytest.raises(ValueError):
            run_case(case, repeats=0)

    def test_unknown_kind_rejected(self):
        case = BenchCase("x", "warp", "random", 10, 2)
        with pytest.raises(ValueError, match="unknown bench case kind"):
            run_case(case)


class TestSnapshotValidation:
    def test_run_suite_produces_valid_snapshot(self):
        snap = tiny_snapshot()
        validate_snapshot(snap)  # must not raise
        assert snap["schema"] == "repro-bench-v1"
        assert [c["name"] for c in snap["cases"]] == [QUICK_CASE]

    def test_rejects_non_dict(self):
        with pytest.raises(SnapshotError):
            validate_snapshot([])

    def test_rejects_wrong_schema_tag(self):
        snap = tiny_snapshot()
        snap["schema"] = "repro-bench-v999"
        with pytest.raises(SnapshotError, match="schema tag"):
            validate_snapshot(snap)

    def test_rejects_missing_case_field(self):
        snap = tiny_snapshot()
        del snap["cases"][0]["elapsed"]
        with pytest.raises(SnapshotError, match="missing field 'elapsed'"):
            validate_snapshot(snap)

    def test_rejects_wrong_field_type(self):
        snap = tiny_snapshot()
        snap["cases"][0]["rounds"] = "fast"
        with pytest.raises(SnapshotError, match="field 'rounds'"):
            validate_snapshot(snap)

    def test_rejects_duplicate_names(self):
        snap = tiny_snapshot()
        snap["cases"].append(copy.deepcopy(snap["cases"][0]))
        with pytest.raises(SnapshotError, match="duplicate case name"):
            validate_snapshot(snap)

    def test_rejects_missing_phase(self):
        snap = tiny_snapshot()
        del snap["cases"][0]["phases"]["apply"]
        with pytest.raises(SnapshotError, match="phases missing 'apply'"):
            validate_snapshot(snap)

    def test_rejects_empty_cases(self):
        snap = tiny_snapshot()
        snap["cases"] = []
        with pytest.raises(SnapshotError, match="non-empty"):
            validate_snapshot(snap)


class TestSnapshotIO:
    def test_write_load_roundtrip(self, tmp_path):
        snap = tiny_snapshot()
        path = tmp_path / "bench.json"
        write_snapshot(snap, str(path))
        assert load_snapshot(str(path)) == snap

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SnapshotError, match="not valid JSON"):
            load_snapshot(str(path))

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(SnapshotError):
            write_snapshot({"schema": "nope"}, str(tmp_path / "x.json"))

    def test_default_path_shape(self):
        assert default_snapshot_path().startswith("BENCH_")
        assert default_snapshot_path().endswith(".json")

    def test_committed_baselines_are_valid(self):
        import glob

        paths = glob.glob("benchmarks/BENCH_*.json")
        assert paths, "committed BENCH snapshots missing"
        for path in paths:
            load_snapshot(path)


class TestCompare:
    def test_identical_snapshots_clean(self):
        snap = tiny_snapshot()
        lines, regressions = compare_snapshots(snap, snap)
        assert not regressions
        assert any(QUICK_CASE in line for line in lines)

    def test_regression_flagged_beyond_threshold(self):
        old = tiny_snapshot()
        new = copy.deepcopy(old)
        new["cases"][0]["elapsed"] = old["cases"][0]["elapsed"] * 1.5
        lines, regressions = compare_snapshots(old, new, threshold=0.2)
        assert len(regressions) == 1
        delta = regressions[0]
        assert delta.name == QUICK_CASE
        assert delta.ratio == pytest.approx(1.5, rel=1e-3)
        assert any("REGRESSION" in line for line in lines)

    def test_threshold_is_respected(self):
        old = tiny_snapshot()
        new = copy.deepcopy(old)
        new["cases"][0]["elapsed"] = old["cases"][0]["elapsed"] * 1.5
        _, regressions = compare_snapshots(old, new, threshold=0.6)
        assert not regressions

    def test_improvement_reported_not_flagged(self):
        old = tiny_snapshot()
        new = copy.deepcopy(old)
        new["cases"][0]["elapsed"] = old["cases"][0]["elapsed"] / 2
        lines, regressions = compare_snapshots(old, new)
        assert not regressions
        assert any("improved" in line for line in lines)

    def test_new_and_removed_cases_never_fail(self):
        old = tiny_snapshot()
        new = copy.deepcopy(old)
        new["cases"][0] = dict(new["cases"][0], name="bfdn/other")
        lines, regressions = compare_snapshots(old, new)
        assert not regressions
        assert any("new case" in line for line in lines)
        assert any("removed" in line for line in lines)


class TestBenchCLI:
    def run_quickest(self, tmp_path, name="snap.json"):
        path = tmp_path / name
        code = main(
            ["bench", "--only", QUICK_CASE, "--repeats", "1", "--out", str(path)]
        )
        return code, path

    def test_run_writes_snapshot(self, tmp_path, capsys):
        code, path = self.run_quickest(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert QUICK_CASE in out
        snap = json.loads(path.read_text())
        validate_snapshot(snap)

    def test_compare_identical_exits_zero(self, tmp_path, capsys):
        _, path = self.run_quickest(tmp_path)
        assert main(["bench", "--compare", str(path), str(path)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_regression_exits_one(self, tmp_path, capsys):
        _, path = self.run_quickest(tmp_path)
        snap = json.loads(path.read_text())
        snap["cases"][0]["elapsed"] *= 2
        slower = tmp_path / "slower.json"
        slower.write_text(json.dumps(snap))
        assert main(["bench", "--compare", str(path), str(slower)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_unreadable_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bench", "--compare", str(bad), str(bad)]) == 2

    def test_unknown_only_exits_two(self, capsys):
        assert main(["bench", "--only", "nope", "--repeats", "1"]) == 2

    def test_profile_mode(self, capsys):
        assert main(["bench", "--profile", "--only", QUICK_CASE]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
