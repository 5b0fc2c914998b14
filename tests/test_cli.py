"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.algorithm == "bfdn"
        assert args.k == 8

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--algorithm", "nope"])


class TestCommands:
    def test_explore(self, capsys):
        assert main(["explore", "-n", "60", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "rounds" in out and "Theorem 1 bound" in out

    @pytest.mark.parametrize("algo", ["bfdn", "bfdn-wr", "bfdn-ell2", "cte", "dfs"])
    def test_explore_all_algorithms(self, algo, capsys):
        assert main(["explore", "--algorithm", algo, "-n", "40", "-k", "4"]) == 0

    @pytest.mark.parametrize(
        "tree", ["random", "path", "star", "caterpillar", "spider", "comb", "deep"]
    )
    def test_explore_all_trees(self, tree, capsys):
        assert main(["explore", "--tree", tree, "-n", "40", "-k", "3"]) == 0

    def test_compare(self, capsys):
        assert main(["compare", "--algorithms", "bfdn", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "algorithm" in out and "bfdn" in out

    def test_figure1(self, capsys):
        assert main(["figure1", "--log2-k", "10", "--resolution", "8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1 regions" in out

    def test_game(self, capsys):
        assert main(["game", "-k", "8", "--delta", "4"]) == 0
        out = capsys.readouterr().out
        assert "DP optimum" in out

    def test_demo(self, capsys):
        assert main(["demo", "-n", "8", "-k", "2", "--rounds", "3"]) == 0
        out = capsys.readouterr().out
        assert "round 0" in out

    def test_mission(self, capsys):
        assert main(["mission", "--tree", "star", "-n", "60", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "explored" in out and "efficiency" in out

    def test_mission_write_read(self, capsys):
        assert main(
            ["mission", "--tree", "star", "-n", "60", "-k", "4", "--write-read"]
        ) == 0

    def test_experiment_command(self, capsys):
        assert main(["experiment", "E3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== E3")


class TestSweepCommand:
    ARGS = [
        "sweep", "--algorithms", "bfdn", "--trees", "path",
        "-n", "50", "-k", "2", "--jobs", "0",
    ]

    def test_sweep_without_cache(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "bfdn" in out and "0 cache hits" in out

    def test_sweep_warm_cache_is_all_hits(self, tmp_path, capsys):
        cached = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(cached) == 0
        capsys.readouterr()
        assert main(cached + ["--resume", "--min-hit-rate", "0.95"]) == 0
        out = capsys.readouterr().out
        assert "1 cache hits" in out and "0 simulated" in out

    def test_sweep_min_hit_rate_fails_cold(self, tmp_path, capsys):
        args = self.ARGS + [
            "--cache-dir", str(tmp_path / "cache"), "--min-hit-rate", "0.95",
        ]
        assert main(args) == 1
        assert "below required" in capsys.readouterr().out

    def test_sweep_no_cache_flag_bypasses_store(self, tmp_path, capsys):
        cached = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(cached) == 0
        capsys.readouterr()
        assert main(cached + ["--no-cache"]) == 0
        assert "0 cache hits" in capsys.readouterr().out

    def test_sweep_resume_requires_existing_cache(self, tmp_path, capsys):
        missing = self.ARGS + [
            "--cache-dir", str(tmp_path / "nope"), "--resume",
        ]
        assert main(missing) == 2
        assert "nothing to resume" in capsys.readouterr().out
        assert main(self.ARGS + ["--resume"]) == 2

    def test_sweep_writes_rows(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        assert main(self.ARGS + ["--out", str(out_path)]) == 0
        from repro.analysis import load_rows

        rows = load_rows(out_path)
        assert rows and rows[0]["algorithm"] == "bfdn"

    def test_sweep_multiple_seeds_label_workloads(self, capsys):
        args = [
            "sweep", "--algorithms", "bfdn", "--trees", "random",
            "-n", "40", "-k", "2", "--seeds", "0", "1", "--jobs", "0",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "random-n40-s0" in out and "random-n40-s1" in out


class TestExploreBounds:
    """``explore`` prints the budgets the scenario is monitored against."""

    @staticmethod
    def _explore(capsys, *argv):
        assert main(["explore", "-n", "80", "-k", "4", *argv]) == 0
        out = capsys.readouterr().out
        tree_line = next(li for li in out.splitlines() if li.startswith("tree:"))
        fields = dict(f.split("=") for f in tree_line.split()[1:])
        return out, int(fields["n"]), int(fields["D"])

    def test_cte_has_no_proven_bound(self, capsys):
        out, _, _ = self._explore(capsys, "--algorithm", "cte")
        assert "Theorem 1 bound" not in out
        assert "no proven bound applies to cte" in out

    def test_potential_cte_prints_its_limit(self, capsys):
        from repro.bounds import potential_cte_bound

        out, n, depth = self._explore(capsys, "--algorithm", "potential-cte")
        limit = potential_cte_bound(n, depth, 4)
        assert f"empirical bound: {limit:.0f} (potential-cte:" in out
        assert "Theorem 1 bound" not in out

    def test_async_cte_prints_its_limit_and_source(self, capsys):
        from repro.bounds import async_cte_bound

        out, n, depth = self._explore(
            capsys, "--algorithm", "async-cte", "--speed", "unit"
        )
        limit = async_cte_bound(n, depth, 4)
        assert f"empirical bound: {limit:.0f} (async-cte:" in out


class TestClosedPipe:
    # About 150 kB of frames: more than a 64 KiB pipe buffer holds, so the
    # command is still writing when the reader goes away.
    ARGV = [sys.executable, "-m", "repro", "demo", "-n", "200", "-k", "4",
            "--rounds", "100"]

    @staticmethod
    def _env():
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return env

    def test_reader_closing_early_exits_quietly(self):
        full = subprocess.run(self.ARGV, env=self._env(), capture_output=True,
                              timeout=120)
        assert len(full.stdout) > 64 * 1024
        with subprocess.Popen(self.ARGV, env=self._env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(16)
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 0
        assert "Traceback" not in stderr
