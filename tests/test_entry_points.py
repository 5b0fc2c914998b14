"""Registry entry points for graph exploration and the urn game.

With the four run loops behind one round engine, the orchestrator can
sweep all of them: ``graph-bfdn`` (Proposition 9) and ``urn-game``
(Theorem 3) are registered entry points that ``python -m repro sweep``
dispatches alongside the tree algorithms, with the same content-addressed
cache.
"""

import pytest

from repro.cli import main
from repro.orchestrator import ResultStore, TreeSpec, run_jobspecs
from repro.orchestrator.jobspec import run_jobspec
from repro.registry import (
    ENTRY_POINTS,
    GAME_FAMILY,
    GRAPHS,
    make_graph,
    workload_kind,
)
from repro.scenario import ScenarioSpec


def job(algorithm, substrate, k, **kwargs):
    """A scenario of the kind the registry assigns to ``algorithm``."""
    return ScenarioSpec(
        kind=workload_kind(algorithm),
        algorithm=algorithm,
        substrate=substrate,
        k=k,
        **kwargs,
    )


class TestRegistry:
    def test_workload_kinds(self):
        assert workload_kind("bfdn") == "tree"
        assert workload_kind("graph-bfdn") == "graph"
        assert workload_kind("urn-game") == "game"

    def test_workload_kind_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            workload_kind("nope")

    def test_entry_point_names_do_not_shadow_algorithms(self):
        from repro.registry import ALGORITHMS

        assert not set(ENTRY_POINTS) & set(ALGORITHMS)

    def test_make_graph_is_deterministic(self):
        a = make_graph("maze", 40, seed=3)
        b = make_graph("maze", 40, seed=3)
        assert sorted(a.edges()) == sorted(b.edges())
        assert a.n >= 40

    def test_braided_family_has_cycles(self):
        g = make_graph("braided", 40, seed=0)
        assert g.num_edges >= g.n  # a tree would have n - 1

    def test_make_graph_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            make_graph("torus", 40)


class TestSpecs:
    def test_named_accepts_graph_and_game_families(self):
        for family in list(GRAPHS) + [GAME_FAMILY]:
            spec = TreeSpec.named(family, 30)
            assert spec.family == family

    def test_named_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown tree family"):
            TreeSpec.named("hexgrid", 30)

    def test_jobspec_accepts_entry_points(self):
        spec = job("graph-bfdn", TreeSpec.named("maze", 30), k=2)
        assert spec.fingerprint() != job(
            "urn-game", TreeSpec.named(GAME_FAMILY, 30), k=2
        ).fingerprint()

    def test_jobspec_still_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            job("warp-drive", TreeSpec.named("random", 30), k=2)


class TestWorkers:
    def test_graph_job_row(self):
        spec = job(
            "graph-bfdn",
            TreeSpec.named("braided", 36, seed=4),
            k=3,
            label="bm",
            compute_bounds=True,
        )
        row = run_jobspec(spec)
        graph = make_graph("braided", 36, seed=4)
        assert row["n"] == graph.num_edges
        assert row["depth"] == graph.radius
        assert row["complete"] and row["all_home"]
        assert row["rounds"] <= row["bfdn_bound"] * 3  # sanity, not tight

    def test_graph_job_requires_named_family(self):
        from repro.registry import make_tree

        tree_spec = TreeSpec.from_tree(make_tree("path", 5))
        with pytest.raises(ValueError, match="named graph family"):
            run_jobspec(job("graph-bfdn", tree_spec, k=2))

    def test_game_job_respects_theorem3(self):
        spec = job(
            "urn-game",
            TreeSpec.named(GAME_FAMILY, 16),  # n is Delta
            k=16,
            compute_bounds=True,
        )
        row = run_jobspec(spec)
        # Balanced player vs greedy adversary: Theorem 3's guarantee.
        assert row["rounds"] <= row["bfdn_bound"]
        assert row["complete"]
        assert row["n"] == 16 and row["depth"] == 16

    def test_entry_point_jobs_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [
            job("graph-bfdn", TreeSpec.named("maze", 25), k=2, compute_bounds=True),
            job("urn-game", TreeSpec.named(GAME_FAMILY, 8), k=8, compute_bounds=True),
        ]
        first = run_jobspecs(specs, store=store)
        second = run_jobspecs(specs, store=store)
        assert all(o.ok for o in first + second)
        assert all(o.status == "cache-hit" for o in second)
        assert [o.row for o in first] == [o.row for o in second]


class TestSweepCLI:
    def test_mixed_kind_sweep(self, capsys):
        code = main([
            "sweep",
            "--algorithms", "bfdn", "graph-bfdn", "urn-game",
            "--trees", "comb", "maze", GAME_FAMILY,
            "-n", "40", "-k", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "graph-bfdn" in out and "urn-game" in out and "bfdn" in out

    def test_sweep_skips_kind_without_workloads(self, capsys):
        code = main([
            "sweep", "--algorithms", "graph-bfdn", "--trees", "comb",
            "-n", "40", "-k", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "skipping graph-bfdn" in out

    def test_explore_observers(self, capsys):
        code = main([
            "explore", "--tree", "comb", "-n", "40", "-k", "3",
            "--observe", "trace,metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "replay-validated" in out
        assert "working depth monotone: True" in out

    def test_explore_rejects_unknown_observer(self):
        with pytest.raises(SystemExit, match="unknown round observer"):
            main(["explore", "-n", "20", "--observe", "sparkles"])
