"""Tests for result persistence (CSV/JSON round trips)."""

import pytest

from repro.analysis.results_io import (
    load_rows,
    rows_from_csv,
    rows_to_csv,
    save_rows,
)

ROWS = [
    {"tree": "star", "k": 4, "rounds": 128, "ratio": 1.97, "ok": True},
    {"tree": "comb", "k": 8, "rounds": 689, "ratio": 6.44, "ok": False},
]


class TestCsv:
    def test_roundtrip_types(self):
        restored = rows_from_csv(rows_to_csv(ROWS))
        assert restored == ROWS

    def test_empty(self):
        assert rows_to_csv([]) == ""
        assert rows_from_csv("") == []

    def test_header_order(self):
        text = rows_to_csv(ROWS)
        assert text.splitlines()[0] == "tree,k,rounds,ratio,ok"

    def test_heterogeneous_rows_union_columns(self):
        # Merged sweeps where some algorithms emit extra metric columns
        # must serialise: fieldnames are the union across all rows, in
        # first-seen order, with missing cells left empty.
        rows = [
            {"tree": "star", "k": 4, "rounds": 128},
            {"tree": "comb", "k": 8, "rounds": 689, "reanchors": 17},
            {"tree": "path", "k": 2, "rounds": 40, "cache": True},
        ]
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == "tree,k,rounds,reanchors,cache"
        restored = rows_from_csv(text)
        assert restored[1]["reanchors"] == 17
        assert restored[2]["cache"] is True
        assert restored[0]["reanchors"] == ""


class TestFiles:
    def test_save_load_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        save_rows(ROWS, path)
        assert load_rows(path) == ROWS

    def test_save_load_json(self, tmp_path):
        path = tmp_path / "out.json"
        save_rows(ROWS, path)
        assert load_rows(path) == ROWS

    def test_rejects_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError):
            save_rows(ROWS, tmp_path / "out.txt")
        with pytest.raises(ValueError):
            load_rows(tmp_path / "out.txt")


class TestWithSweepRecords:
    def test_sweep_rows_roundtrip(self, tmp_path):
        from repro.analysis import run_sweep_cached
        from repro.trees import generators as gen

        records = run_sweep_cached(["bfdn"], [("star", gen.star(20))], (2,)).records
        rows = [r.as_row() for r in records]
        path = tmp_path / "sweep.csv"
        save_rows(rows, path)
        restored = load_rows(path)
        assert restored[0]["rounds"] == rows[0]["rounds"]
        assert restored[0]["algorithm"] == "bfdn"
