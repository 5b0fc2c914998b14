"""Theorem-budget monitoring: margins, violations, scenario derivation."""

import pytest

from repro.bounds.guarantees import bfdn_bound, lemma2_bound
from repro.obs import (
    Budget,
    BudgetObserver,
    TelemetryWriter,
    budgets_for_scenario,
    read_events,
)
from repro.registry import make_algorithm, make_tree
from repro.scenario import ScenarioSpec
from repro.sim import Simulator
from repro.sim.array_backend import ArrayMetrics
from repro.sim.runloop import RoundObserver


def _tree_spec(algorithm="bfdn", adversary=None, **kw):
    from repro.orchestrator import TreeSpec

    return ScenarioSpec(
        kind="tree",
        algorithm=algorithm,
        substrate=TreeSpec.named("comb", 40, seed=1),
        k=3,
        adversary=adversary,
        **kw,
    )


def _billed(state, record):
    return float(record.billed)


def _run(observer, n=40, k=3, alg="bfdn"):
    tree = make_tree("comb", n, seed=1)
    return Simulator(
        tree, make_algorithm(alg), k, observers=[observer]
    ).run()


class TestBudgetObserver:
    def test_stock_bfdn_stays_within_theorem1(self):
        built = _tree_spec().build()
        budgets = budgets_for_scenario(built)
        assert [b.name for b in budgets] == ["theorem1", "lemma2"]
        obs = BudgetObserver(budgets, every=10)
        built.run(observers=[obs])
        assert obs.violations == []
        assert obs.min_margin() >= 0
        margins = obs.margins()
        assert margins["theorem1"] > 0
        assert margins["lemma2"] > 0

    def test_broken_bound_fires_violation_event(self, tmp_path):
        # A deliberately absurd budget (2 billed rounds on a 40-node
        # tree) must be crossed, and must emit exactly one structured
        # violation event the round it happens.
        path = str(tmp_path / "t.jsonl")
        broken = Budget(
            name="broken", limit=2.0, value=_billed, description="impossible"
        )
        with TelemetryWriter(path, "feed0000feed0000") as writer:
            obs = BudgetObserver(
                [broken], writer=writer, span_id="s1", every=5
            )
            _run(obs)
        assert len(obs.violations) == 1
        violation = obs.violations[0]
        assert violation.budget == "broken"
        assert violation.margin < 0
        assert obs.min_margin("broken") < 0
        assert obs.snapshot()["violations"] == 1
        events = list(read_events(path))
        fired = [ev for ev in events if ev.event == "violation"]
        assert len(fired) == 1
        assert fired[0].data["budget"] == "broken"
        assert fired[0].data["margin"] < 0
        assert fired[0].span_id == "s1"
        # Budget flushes carry the full margin vector.
        budget_events = [ev for ev in events if ev.event == "budget"]
        assert budget_events
        assert budget_events[-1].data["margins"]["broken"] < 0

    def test_fast_path_fires_at_the_terminal_round(self, tmp_path):
        # Plain BFDN with only batch-capable observers takes the array
        # fast path: the budget is measured once, after the terminal
        # (unbilled, all-stay) round.
        path = str(tmp_path / "t.jsonl")
        broken = Budget(name="broken", limit=2.0, value=_billed)
        with TelemetryWriter(path, "feed0000feed0000") as writer:
            obs = BudgetObserver([broken], writer=writer, every=5)
            result = _run(obs)
        assert type(result.metrics) is ArrayMetrics
        assert obs.snapshot()["violations"] == 1
        fired = [ev for ev in read_events(path) if ev.event == "violation"]
        assert len(fired) == 1
        assert fired[0].data["t"] == result.wall_rounds
        assert fired[0].data["value"] == result.rounds

    def test_per_round_observer_fires_at_the_crossing_round(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        broken = Budget(name="broken", limit=2.0, value=_billed)
        with TelemetryWriter(path, "feed0000feed0000") as writer:
            obs = BudgetObserver([broken], writer=writer, every=5)
            tree = make_tree("comb", 40, seed=1)
            Simulator(
                tree, make_algorithm("bfdn"), 3,
                observers=[obs, RoundObserver()],
            ).run()
        fired = [ev for ev in read_events(path) if ev.event == "violation"]
        assert len(fired) == 1
        # Billed rounds first exceed 2 after the third round (t == 2).
        assert (fired[0].data["t"], fired[0].data["value"]) == (2, 3.0)
        assert obs.snapshot()["violations"] == 1

    def test_each_budget_fires_at_most_once(self):
        obs = BudgetObserver(
            [Budget(name="broken", limit=1.0, value=_billed)], every=3
        )
        _run(obs)
        assert len(obs.violations) == 1

    def test_reattach_resets_series(self):
        obs = BudgetObserver(
            [Budget(name="broken", limit=1.0, value=_billed)], every=3
        )
        _run(obs)
        _run(obs)
        assert len(obs.violations) == 1  # not two: the second run resets

    def test_min_margin_is_inf_before_any_round(self):
        obs = BudgetObserver([Budget(name="b", limit=5.0, value=_billed)])
        assert obs.min_margin() == float("inf")
        assert obs.margins() == {"b": 5.0}

    def test_rejects_bad_every(self):
        with pytest.raises(ValueError, match="every"):
            BudgetObserver([], every=0)


class TestBudgetsForScenario:
    def test_theorem1_limit_matches_bounds_module(self):
        built = _tree_spec().build()
        by_name = {b.name: b for b in budgets_for_scenario(built)}
        tree = built.tree
        assert by_name["theorem1"].limit == bfdn_bound(
            tree.n, tree.depth, 3, tree.max_degree
        )
        assert by_name["lemma2"].limit == lemma2_bound(3, tree.max_degree)

    def test_unproven_algorithms_get_no_budget(self):
        for algorithm in ("cte", "dfs"):
            built = _tree_spec(algorithm=algorithm).build()
            assert budgets_for_scenario(built) == []

    def test_adversarial_runs_get_no_budget(self):
        built = _tree_spec(
            adversary="random-breakdowns",
            adversary_params=(("p", 0.2), ("horizon", 10), ("seed", 1)),
        ).build()
        assert budgets_for_scenario(built) == []

    def test_game_scenario_gets_theorem3(self):
        from repro.orchestrator import TreeSpec

        spec = ScenarioSpec(
            kind="game",
            algorithm="urn-game",
            substrate=TreeSpec.named("comb", 20, seed=1),
            k=4,
        )
        built = spec.build()
        assert [b.name for b in budgets_for_scenario(built)] == ["theorem3"]
