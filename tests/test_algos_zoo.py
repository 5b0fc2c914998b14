"""The algorithm zoo beyond the paper: tree-mining and potential-cte.

Covers the two follow-up algorithms (`repro.algos`) end to end:
correctness and termination invariants (hypothesis), the budget
envelopes monitored by :func:`repro.obs.budget.budgets_for_scenario`,
round-loop differential parity (the array fast path must decline both,
so their rows come from the reference loop), and the registry
coverage guarantee that every registered algorithm runs through the
scenario layer.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.algos import PotentialCTE, TreeMining
from repro.bounds.guarantees import (
    bfdn_ell_bound,
    potential_cte_bound,
    tree_mining_bound,
    tree_mining_ell,
)
from repro.obs.budget import THEOREM10_ALGORITHMS, budgets_for_scenario
from repro.orchestrator.jobspec import TreeSpec
from repro.scenario import ScenarioSpec
from repro.sim import Simulator
from repro.sim.runloop import RoundObserver
from repro.trees.generators import random_recursive

import random

NEW_ALGORITHMS = ("tree-mining", "potential-cte")


def run(tree, name, k):
    return Simulator(
        tree,
        registry.make_algorithm(name),
        k,
        allow_shared_reveal=registry.shared_reveal_default(name),
    ).run()


class TestRegistryEntries:
    def test_registered(self):
        assert isinstance(registry.ALGORITHMS["tree-mining"](), TreeMining)
        assert isinstance(registry.ALGORITHMS["potential-cte"](), PotentialCTE)

    def test_strict_reveal_model(self):
        # Both run in BFDN's strict model: no shared-reveal exemption.
        for name in NEW_ALGORITHMS:
            assert not registry.shared_reveal_default(name)

    def test_workload_kind_is_tree(self):
        for name in NEW_ALGORITHMS:
            assert registry.workload_kind(name) == "tree"

    def test_mining_depth_is_uniform_in_k(self):
        assert tree_mining_ell(1) == 1
        assert tree_mining_ell(2) == 1
        assert tree_mining_ell(4) == 2
        assert tree_mining_ell(1 << 9) == 3
        assert tree_mining_ell(1 << 20) == 5
        # ell(k) = ceil(sqrt(log2 k)) exactly.
        for k in (2, 3, 8, 100, 10**6):
            assert tree_mining_ell(k) == max(1, math.ceil(math.sqrt(math.log2(k))))

    def test_tree_mining_attaches_mining_depth(self):
        tree = registry.make_tree("random", 60, seed=0)
        algo = TreeMining()
        Simulator(tree, algo, 16).run()
        assert algo.ell == tree_mining_ell(16) == 2


class TestInvariants:
    """Exploration completes, every edge is traversed, accounting closes."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 120),
        seed=st.integers(0, 10**6),
        k=st.integers(1, 12),
        name=st.sampled_from(NEW_ALGORITHMS),
    )
    def test_random_trees(self, n, seed, k, name):
        tree = random_recursive(n, random.Random(seed))
        res = run(tree, name, k)
        # Complete means every edge was revealed, i.e. traversed at
        # least once; the simulator's PartialTree asserts legality of
        # every individual move along the way.
        assert res.complete
        assert all(p == tree.root for p in res.positions)
        for i in range(k):
            moves = res.metrics.moves_per_robot[i]
            idle = res.metrics.idle_per_robot[i]
            assert moves + idle == res.rounds, (name, i)

    @pytest.mark.parametrize("name", NEW_ALGORITHMS)
    @pytest.mark.parametrize(
        "family", ["path", "star", "comb", "spider", "cte-trap", "reanchor-stress"]
    )
    def test_named_families(self, name, family):
        tree = registry.make_tree(family, 150, seed=1)
        res = run(tree, name, 6)
        assert res.complete
        assert all(p == tree.root for p in res.positions)

    @pytest.mark.parametrize("name", NEW_ALGORITHMS)
    def test_single_node_tree_is_free(self, name):
        tree = registry.make_tree("path", 1, seed=0)
        res = run(tree, name, 4)
        assert res.complete and res.rounds == 0


class TestBudgetEnvelopes:
    """Measured rounds stay under the guarantees the observers monitor."""

    @pytest.mark.parametrize("k", [1, 2, 5, 16, 64])
    @pytest.mark.parametrize(
        "family", ["random", "path", "star", "comb", "spider", "cte-trap"]
    )
    def test_tree_mining_bound(self, family, k):
        tree = registry.make_tree(family, 400, seed=2)
        res = run(tree, "tree-mining", k)
        limit = tree_mining_bound(tree.n, tree.depth, k, tree.max_degree)
        assert res.rounds <= limit

    @pytest.mark.parametrize("k", [1, 2, 5, 16, 64])
    @pytest.mark.parametrize(
        "family", ["random", "path", "star", "comb", "spider", "cte-trap"]
    )
    def test_potential_cte_bound(self, family, k):
        tree = registry.make_tree(family, 400, seed=2)
        res = run(tree, "potential-cte", k)
        assert res.rounds <= potential_cte_bound(tree.n, tree.depth, k)

    @pytest.mark.parametrize("name", sorted(THEOREM10_ALGORITHMS))
    def test_theorem10_monitored_entries(self, name):
        ell = THEOREM10_ALGORITHMS[name]
        for family, k in [("random", 4), ("star", 32), ("comb", 8)]:
            tree = registry.make_tree(family, 300, seed=0)
            res = run(tree, name, k)
            assert res.rounds <= bfdn_ell_bound(
                tree.n, tree.depth, k, ell, tree.max_degree
            )


class TestBudgetWiring:
    """budgets_for_scenario attaches the right guard per algorithm."""

    def _built(self, algorithm, family="random", n=80, k=5):
        return ScenarioSpec(
            kind="tree", algorithm=algorithm,
            substrate=TreeSpec.named(family, n, seed=1), k=k,
        ).build()

    def test_new_algorithms_get_their_budgets(self):
        for name in NEW_ALGORITHMS:
            budgets = budgets_for_scenario(self._built(name))
            assert [b.name for b in budgets] == [name]
            assert budgets[0].limit > 0

    def test_fixed_ell_entries_get_theorem10(self):
        for name in THEOREM10_ALGORITHMS:
            budgets = budgets_for_scenario(self._built(name))
            assert [b.name for b in budgets] == ["theorem10"]

    def test_limits_match_the_closed_forms(self):
        built = self._built("tree-mining")
        tree = built.tree
        (budget,) = budgets_for_scenario(built)
        assert budget.limit == tree_mining_bound(
            tree.n, tree.depth, 5, tree.max_degree
        )
        built = self._built("potential-cte")
        tree = built.tree
        (budget,) = budgets_for_scenario(built)
        assert budget.limit == potential_cte_bound(tree.n, tree.depth, 5)

    def test_comparison_baselines_stay_unguarded(self):
        for name in ("cte", "dfs"):
            assert budgets_for_scenario(self._built(name)) == []

    def test_adversarial_runs_stay_unguarded(self):
        built = ScenarioSpec(
            kind="tree", algorithm="tree-mining",
            substrate=TreeSpec.named("random", 60, seed=0), k=4,
            adversary="round-robin-breakdowns",
            adversary_params={"num_blocked": 1},
        ).build()
        assert budgets_for_scenario(built) == []

    def test_budget_run_records_margin(self):
        from repro.obs.budget import BudgetObserver

        built = self._built("potential-cte")
        budgets = budgets_for_scenario(built)
        obs = BudgetObserver(budgets)
        row = built.run(observers=[obs])
        assert row["rounds"] > 0
        assert obs.violations == []
        assert obs.min_margin("potential-cte") > 0


class TestBackendParity:
    """The array fast path declines both algorithms: their rows come from
    the reference loop whether or not a per-round observer pins it."""

    @pytest.mark.parametrize("name", NEW_ALGORITHMS)
    def test_rows_identical_across_backends(self, name):
        built = ScenarioSpec(
            kind="tree", algorithm=name,
            substrate=TreeSpec.named("comb", 120, seed=3), k=6,
        ).build()
        ref = built.run(observers=[RoundObserver()])
        arr = built.run()
        # The loop that ran is the reference loop in both cases...
        assert ref["backend"] == arr["backend"] == "reference"
        # ...and every measured quantity matches exactly (only wall-clock
        # timings may differ).
        volatile = {"elapsed", "rounds_per_sec",
                    "cpu_sec", "cpu_user_s", "cpu_sys_s", "max_rss_kb",
                    "energy_j"}
        assert {k: v for k, v in ref.items() if k not in volatile} == {
            k: v for k, v in arr.items() if k not in volatile
        }

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 10**5),
        k=st.integers(1, 6),
        name=st.sampled_from(NEW_ALGORITHMS),
    )
    def test_hypothesis_differential(self, n, seed, k, name):
        tree = random_recursive(n, random.Random(seed))
        results = []
        for observers in ([RoundObserver()], []):
            sim = Simulator(
                tree, registry.make_algorithm(name), k, observers=observers
            )
            results.append(sim.run())
        a, b = results
        assert a.rounds == b.rounds
        assert a.positions == b.positions
        assert a.metrics.moves_per_robot == b.metrics.moves_per_robot


class TestScenarioCoverage:
    """Every registered algorithm runs end-to-end through the scenario
    layer — a future entry cannot be registered without being runnable."""

    def test_every_algorithm_runs_a_scenario(self):
        for name in sorted(registry.ALGORITHMS):
            row = ScenarioSpec(
                kind="tree", algorithm=name,
                substrate=TreeSpec.named("random", 40, seed=1), k=3,
            ).build().run()
            assert row["complete"], name
            assert row["algorithm"] == name

    def test_every_algorithm_declares_knobs(self):
        assert set(registry.ALGORITHM_KNOBS) == set(registry.ALGORITHMS)
        for name in NEW_ALGORITHMS:
            assert registry.algorithm_knobs(name) == frozenset()
