"""Tests for the shared algorithm/tree registry."""

import pytest

from repro import registry
from repro.sim import Simulator


class TestAlgorithms:
    def test_every_algorithm_constructs(self):
        for name in registry.ALGORITHMS:
            algo = registry.make_algorithm(name)
            assert hasattr(algo, "select_moves"), name

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            registry.make_algorithm("nope")

    def test_shared_reveal_defaults(self):
        assert registry.shared_reveal_default("cte")
        assert not registry.shared_reveal_default("bfdn")

    def test_cli_and_parallel_use_the_registry(self):
        from repro import cli
        from repro.orchestrator import jobspec

        assert cli.ALGORITHMS is registry.ALGORITHMS
        # The parallel sweep runner resolves job names through it too.
        assert jobspec.registry is registry

    def test_every_algorithm_completes_a_small_run(self):
        tree = registry.make_tree("comb", 30)
        for name in registry.ALGORITHMS:
            result = Simulator(
                tree,
                registry.make_algorithm(name),
                4,
                allow_shared_reveal=registry.shared_reveal_default(name),
            ).run()
            assert result.complete, name


class TestTrees:
    def test_every_family_builds(self):
        for family in registry.tree_families():
            tree = registry.make_tree(family, 40)
            assert tree.n >= 1

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown tree family"):
            registry.make_tree("nope", 10)

    def test_seed_pins_random_families(self):
        a = registry.make_tree("random", 60, seed=3)
        b = registry.make_tree("random", 60, seed=3)
        c = registry.make_tree("random", 60, seed=4)
        parents = lambda t: [t.parent(v) for v in range(t.n)]
        assert parents(a) == parents(b)
        assert parents(a) != parents(c)

    def test_cli_view_matches_seed_zero(self):
        families = registry.tree_families()
        a = families["random"](50)
        b = registry.make_tree("random", 50, seed=0)
        assert [a.parent(v) for v in range(a.n)] == [
            b.parent(v) for v in range(b.n)
        ]


class TestNamedFactories:
    """Every make_* factory rejects unknown names, listing the known ones."""

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="bfdn"):
            registry.make_algorithm("nope")

    def test_policy_on_policy_free_algorithm(self):
        with pytest.raises(ValueError, match="policy"):
            registry.make_algorithm("dfs", policy="round-robin")

    def test_policy_capable_algorithms_accept_policy(self):
        for name in registry.POLICY_ALGORITHMS:
            for policy in registry.REANCHOR_POLICIES:
                assert registry.make_algorithm(name, policy=policy) is not None

    def test_rejected_policy_error_names_the_knob_and_algorithm(self):
        for name in ("bfdn-ell2", "bfdn-ell3", "tree-mining", "potential-cte"):
            with pytest.raises(ValueError, match="rejected knob policy") as exc:
                registry.make_algorithm(name, policy="least-loaded")
            assert name in str(exc.value)
            # The message lists who *does* honor the knob.
            assert "bfdn" in str(exc.value)

    def test_seed_accepted_by_every_algorithm(self):
        # seed is the scenario layer's run-replication knob: every factory
        # accepts it, only seed-declaring ones (policy RNGs) apply it.
        for name in registry.ALGORITHMS:
            assert registry.make_algorithm(name, seed=7) is not None, name

    def test_algorithm_knobs_helper(self):
        assert registry.algorithm_knobs("bfdn") == frozenset({"policy", "seed"})
        assert registry.algorithm_knobs("dfs") == frozenset()
        assert registry.algorithm_knobs("tree-mining") == frozenset()
        with pytest.raises(ValueError, match="unknown algorithm"):
            registry.algorithm_knobs("nope")

    def test_knob_table_covers_the_registry(self):
        assert set(registry.ALGORITHM_KNOBS) == set(registry.ALGORITHMS)

    def test_unknown_breakdown_adversary(self):
        with pytest.raises(ValueError, match="random-breakdowns"):
            registry.make_breakdown_adversary("nope", {})

    def test_unknown_breakdown_param(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            registry.make_breakdown_adversary("random-breakdowns", {"x": 1})

    def test_unknown_reactive_adversary(self):
        with pytest.raises(ValueError, match="block-explorers"):
            registry.make_reactive_adversary("nope", {})

    def test_unknown_game_player(self):
        with pytest.raises(ValueError, match="balanced"):
            registry.make_game_player("nope")

    def test_unknown_game_adversary(self):
        with pytest.raises(ValueError, match="greedy"):
            registry.make_game_adversary("nope", k=2, delta=2)

    def test_unknown_graph_family(self):
        with pytest.raises(ValueError, match="maze"):
            registry.make_graph("nope", 64)

    def test_every_graph_family_builds(self):
        for family in registry.GRAPHS:
            assert registry.make_graph(family, 64).n >= 1

    def test_every_adversary_name_has_valid_kind(self):
        for name, kind in registry.ADVERSARIES.items():
            assert kind in ("tree", "reactive"), name

    def test_workload_kind_covers_entry_points(self):
        assert registry.workload_kind("bfdn") == "tree"
        assert registry.workload_kind("graph-bfdn") == "graph"
        assert registry.workload_kind("urn-game") == "game"
