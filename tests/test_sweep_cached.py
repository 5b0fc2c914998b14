"""Tests for the orchestrated sweep path (``run_sweep_cached``)."""

from repro.analysis import run_sweep_cached
from repro.baselines.offline import offline_lower_bound, offline_split_runtime
from repro.core import BFDN
from repro.sim import Simulator
from repro.orchestrator import ResultStore, TreeSpec
from repro.trees import generators as gen


class TestRecords:
    def test_matches_inline_run_sweep(self):
        tree = gen.comb(8, 3)
        ks = (2, 4)
        run = run_sweep_cached(["bfdn"], [("comb", tree)], ks)
        assert not run.failures
        assert [r.rounds for r in run.records] == [
            Simulator(tree, BFDN(), k).run().rounds for k in ks
        ]
        assert [r.lower_bound for r in run.records] == [
            offline_lower_bound(tree.n, tree.depth, k) for k in ks
        ]
        assert [r.offline_split for r in run.records] == [
            offline_split_runtime(tree, k) for k in ks
        ]

    def test_records_expose_overhead_and_ratio(self):
        run = run_sweep_cached(["bfdn"], [("path", gen.path(30))], (2,))
        record = run.records[0]
        assert record.overhead == record.rounds - 2 * record.n / record.k
        assert record.ratio > 0

    def test_accepts_tree_specs_for_compact_fingerprints(self, tmp_path):
        store = ResultStore(tmp_path)
        workloads = [("random", TreeSpec.named("random", 100))]
        first = run_sweep_cached(
            ["bfdn", "cte"], workloads, (2, 4), store=store
        )
        assert first.tracker.counts["done"] == 4
        second = run_sweep_cached(
            ["bfdn", "cte"], workloads, (2, 4), store=store
        )
        assert second.tracker.counts["done"] == 0
        assert second.tracker.hit_rate() == 1.0
        assert [r.rounds for r in second.records] == [
            r.rounds for r in first.records
        ]

    def test_mixed_team_sizes_and_labels(self):
        run = run_sweep_cached(
            ["bfdn"],
            [("a", gen.star(20)), ("b", gen.path(20))],
            (2, 3),
        )
        assert [(r.tree_label, r.k) for r in run.records] == [
            ("a", 2), ("a", 3), ("b", 2), ("b", 3),
        ]


class TestRowsRoundtrip:
    def test_rows_serialise_through_results_io(self, tmp_path):
        from repro.analysis import load_rows, save_rows

        run = run_sweep_cached(["bfdn"], [("star", gen.star(25))], (2,))
        rows = [r.as_row() for r in run.records]
        path = tmp_path / "sweep.csv"
        save_rows(rows, path)
        assert load_rows(path)[0]["rounds"] == rows[0]["rounds"]
