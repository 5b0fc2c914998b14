"""Tests for the multiprocess sweep runner (:func:`run_jobspecs`)."""

import pytest

from repro.core import BFDN
from repro.orchestrator import TreeSpec, run_jobspecs
from repro.registry import ALGORITHMS
from repro.scenario import ScenarioSpec
from repro.sim import Simulator
from repro.trees import generators as gen


def job(algorithm, label, tree, k):
    """A tree scenario carrying ``tree`` as a parent array."""
    return ScenarioSpec(
        kind="tree",
        algorithm=algorithm,
        substrate=TreeSpec.from_tree(tree),
        k=k,
        label=label,
    )


class TestJobSpecs:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            job("nope", "x", gen.path(3), 2)

    def test_jobs_are_hashable(self):
        spec = job("bfdn", "p", gen.path(4), 2)
        assert hash(spec) == hash(job("bfdn", "p", gen.path(4), 2))


class TestInlineExecution:
    def test_results_match_direct_simulation(self):
        tree = gen.random_recursive(120)
        jobs = [job("bfdn", "rnd", tree, k) for k in (2, 4)]
        outcomes = run_jobspecs(jobs, max_workers=1)
        for spec, outcome in zip(jobs, outcomes):
            direct = Simulator(tree, BFDN(), spec.k).run()
            assert outcome.row["rounds"] == direct.rounds
            assert outcome.row["complete"] and outcome.row["all_home"]

    def test_every_named_algorithm_runs(self):
        tree = gen.caterpillar(8, 2)
        jobs = [job(name, name, tree, 4) for name in sorted(ALGORITHMS)]
        for outcome in run_jobspecs(jobs, max_workers=1):
            assert outcome.ok and outcome.row["complete"], outcome.spec.algorithm

    def test_order_preserved(self):
        tree = gen.star(20)
        jobs = [job("bfdn", f"j{i}", tree, k) for i, k in enumerate((1, 2, 4))]
        outcomes = run_jobspecs(jobs, max_workers=1)
        assert [o.row["label"] for o in outcomes] == ["j0", "j1", "j2"]


class TestOrchestratorBacked:
    def test_store_makes_reruns_cache_hits(self, tmp_path):
        from repro.orchestrator import ResultStore
        from repro.orchestrator.events import ProgressTracker

        store = ResultStore(tmp_path)
        jobs = [job("bfdn", "p", gen.path(30), k) for k in (2, 3)]
        first = run_jobspecs(jobs, max_workers=1, store=store)
        tracker = ProgressTracker()
        second = run_jobspecs(jobs, max_workers=1, store=store, tracker=tracker)
        assert [o.row["rounds"] for o in first] == [o.row["rounds"] for o in second]
        assert tracker.counts["cache-hit"] == 2
        assert tracker.counts["done"] == 0

    def test_failed_job_surfaces_its_error(self):
        from repro import registry

        class Broken:
            """Raises before the first round."""

            name = "broken"

            def attach(self, expl):
                raise RuntimeError("kaboom")

        registry.ALGORITHMS["broken-test"] = Broken
        try:
            jobs = [job("broken-test", "x", gen.path(5), 2)]
            (outcome,) = run_jobspecs(jobs, max_workers=1, retries=0)
        finally:
            registry.ALGORITHMS.pop("broken-test", None)
        assert not outcome.ok
        assert outcome.status == "failed"
        assert "kaboom" in outcome.error


class TestProcessPool:
    def test_parallel_matches_inline(self):
        trees = [("a", gen.comb(6, 2)), ("b", gen.spider(3, 5))]
        jobs = [job("bfdn", lbl, t, k) for lbl, t in trees for k in (2, 3)]
        inline = run_jobspecs(jobs, max_workers=1)
        pooled = run_jobspecs(jobs, max_workers=2)
        assert [(o.row["label"], o.row["k"], o.row["rounds"]) for o in inline] == [
            (o.row["label"], o.row["k"], o.row["rounds"]) for o in pooled
        ]
