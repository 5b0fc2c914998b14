"""The Lemma 2 budget on the array fast path.

A fast-path run measures its budgets once, after its terminal round.
The interior re-anchor budget then reads the per-depth counts of the
run's lazy re-anchor log, never decoding it into ``ReanchorRecord``
objects, and still reports the margin a round-by-round run does.
"""

import pytest

from repro.obs import BudgetObserver, budgets_for_scenario
from repro.orchestrator import TreeSpec
from repro.registry import make_algorithm
from repro.scenario import ScenarioSpec
from repro.sim import Simulator
from repro.sim.array_backend import ArrayMetrics
from repro.sim.runloop import RoundObserver


def _run(family, n, k, *extra):
    built = ScenarioSpec(
        kind="tree",
        algorithm="bfdn",
        substrate=TreeSpec.named(family, n, seed=3),
        k=k,
    ).build()
    obs = BudgetObserver(budgets_for_scenario(built))
    result = Simulator(
        built.tree, make_algorithm("bfdn"), k, observers=[obs, *extra]
    ).run()
    return result, obs.snapshot()


@pytest.mark.parametrize(
    "family,n,k", [("comb", 750, 64), ("random", 300, 8), ("spider", 200, 5)]
)
def test_fast_path_budget_leaves_reanchors_undecoded(family, n, k):
    fast, fast_snap = _run(family, n, k)
    assert type(fast.metrics) is ArrayMetrics
    assert fast.metrics._materialized is None
    _, ref_snap = _run(family, n, k, RoundObserver())
    assert fast_snap["margin_lemma2"] == ref_snap["margin_lemma2"]
    assert fast_snap == ref_snap

