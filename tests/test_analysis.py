"""Tests for the sweep harness and text reporting."""

import pytest

from repro.analysis import render_markdown_table, render_table, run_sweep_cached
from repro.trees import generators as gen


def sweep_records(algorithms, workloads, team_sizes):
    """Records of an inline, uncached sweep that must not lose a job."""
    run = run_sweep_cached(algorithms, workloads, team_sizes)
    assert not run.failures
    return run.records


class TestSweep:
    def test_records_complete(self):
        # cte's shared reveal is its registry default.
        workloads = [("star", gen.star(20)), ("path", gen.path(20))]
        records = sweep_records(["bfdn", "cte"], workloads, team_sizes=(1, 2))
        assert len(records) == 2 * 2 * 2
        for rec in records:
            assert rec.complete and rec.all_home
            assert rec.rounds >= rec.lower_bound * 0 and rec.rounds > 0
            assert rec.ratio > 0

    def test_overhead_definition(self):
        records = sweep_records(["bfdn"], [("star", gen.star(30))], (2,))
        rec = records[0]
        assert rec.overhead == pytest.approx(rec.rounds - 2 * rec.n / rec.k)

    def test_bfdn_within_bound_in_records(self):
        records = sweep_records(
            ["bfdn"],
            gen.standard_families(4, "small")[:6],
            team_sizes=(2, 4),
        )
        for rec in records:
            assert rec.rounds <= rec.bfdn_bound

    def test_as_row_keys(self):
        records = sweep_records(["bfdn"], [("s", gen.star(10))], (2,))
        row = records[0].as_row()
        for key in ("algorithm", "tree", "n", "D", "k", "rounds", "overhead"):
            assert key in row


class TestReport:
    def test_render_table_alignment(self):
        rows = [
            {"a": 1, "b": "xy"},
            {"a": 222, "b": "z"},
        ]
        out = render_table(rows)
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])
        # "a" is all-numeric: header and cells right-align to width 3.
        assert lines[0].startswith("  a")
        assert lines[2].startswith("  1")
        assert lines[3].startswith("222")
        # "b" is text: left-aligned.
        assert lines[2].endswith("xy")
        assert lines[3].endswith("z ")

    def test_render_table_floats_right_aligned(self):
        rows = [
            {"rate": 9.5, "name": "x"},
            {"rate": 12345.25, "name": "y"},
        ]
        lines = render_table(rows).splitlines()
        assert lines[2].startswith("    9.50")
        assert lines[3].startswith("12345.25")

    def test_render_table_bools_are_text(self):
        rows = [{"ok": True}, {"ok": False}]
        lines = render_table(rows).splitlines()
        # bools read as text, so the column left-aligns.
        assert lines[2].startswith("True ")

    def test_render_markdown_table(self):
        rows = [
            {"algorithm": "bfdn", "n": 100, "rate": 1.5},
            {"algorithm": "cte", "n": 2000, "rate": 22.25},
        ]
        out = render_markdown_table(rows)
        lines = out.splitlines()
        assert lines[0].startswith("| algorithm |")
        # Numeric columns carry the right-alignment marker.
        assert lines[1].count(":") == 2
        assert all(line.startswith("|") and line.endswith("|") for line in lines)
        # Diff-friendly: every line the same width.
        assert len({len(line) for line in lines}) == 1

    def test_render_markdown_table_empty(self):
        assert render_markdown_table([]) == "(no rows)"

    def test_render_table_empty(self):
        assert render_table([]) == "(no rows)"

    def test_render_table_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        out = render_table(rows, columns=["b"])
        assert "a" not in out.splitlines()[0]
