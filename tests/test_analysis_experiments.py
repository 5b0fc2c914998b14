"""Tests for the experiment registry."""

import pytest

from repro.analysis import EXPERIMENTS, run_experiment


class TestRegistry:
    def test_all_ids_present(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 16)}

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_case_insensitive(self):
        out = run_experiment("e3")
        assert out.startswith("== E3")

    @pytest.mark.parametrize(
        "exp_id", ["E2", "E3", "E4", "E5", "E7", "E10", "E11", "E12"]
    )
    def test_quick_experiments_produce_tables(self, exp_id):
        out = run_experiment(exp_id)
        assert out.startswith(f"== {exp_id}")
        assert out.count("\n") >= 3  # header + table

    def test_e1_draws_chart(self):
        out = run_experiment("E1")
        assert "Figure 1 regions" in out
        assert "cells won" in out

    def test_e3_simulated_matches_dp(self):
        out = run_experiment("E3")
        for line in out.splitlines()[3:]:
            fields = line.split()
            if len(fields) >= 3 and fields[0].isdigit():
                assert fields[1] == fields[2], line  # simulated == DP


class TestArchiveDriver:
    def test_tiny_archive_writes_html_report(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, REPRO_EXPERIMENT_SCALE="tiny")
        env.pop("REPRO_CACHE_DIR", None)
        proc = subprocess.run(
            [sys.executable, str(root / "tools" / "run_experiments.py"),
             str(tmp_path), "--no-cache"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        page = (tmp_path / "report.html").read_text()
        assert page.count("<div class='experiment'>") == len(EXPERIMENTS) == 15
        for exp_id in EXPERIMENTS:
            assert f"<h2>{exp_id}" in page, exp_id
        chart = (tmp_path / "figure1_k40.svg").read_text()
        assert chart in page
        assert "k=1099511627776" in chart
        assert "FAILED" not in page
