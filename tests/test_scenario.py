"""Scenario layer: validation, serialization, fingerprints, run parity."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.orchestrator import JobSpec, TreeSpec
from repro.scenario import (
    KINDS,
    ScenarioSpec,
    freeze_params,
    run_scenario,
    scenario_grid,
)


def tree_spec(**overrides):
    base = dict(
        kind="tree",
        algorithm="bfdn",
        substrate=TreeSpec.named("random", 60),
        k=4,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestFreezeParams:
    def test_none_is_empty(self):
        assert freeze_params(None) == ()

    def test_sorted_and_frozen(self):
        assert freeze_params({"b": 2, "a": 1}) == (("a", 1), ("b", 2))

    def test_roundtrips_frozen_form(self):
        frozen = freeze_params({"p": 0.5})
        assert freeze_params(frozen) == frozen

    def test_non_scalar_value_rejected(self):
        with pytest.raises(ValueError, match="JSON scalar"):
            freeze_params({"p": [1, 2]})

    def test_non_string_key_rejected(self):
        with pytest.raises(ValueError, match="names must be strings"):
            freeze_params({1: "x"})


class TestValidation:
    def test_unknown_kind_lists_known(self):
        with pytest.raises(ValueError, match="tree, graph, game, reactive"):
            tree_spec(kind="nope")

    def test_unknown_algorithm_lists_known(self):
        with pytest.raises(ValueError, match="bfdn"):
            tree_spec(algorithm="nope")

    def test_bad_k(self):
        with pytest.raises(ValueError, match="team size"):
            tree_spec(k=0)

    def test_unknown_policy_lists_known(self):
        with pytest.raises(ValueError, match="least-loaded"):
            tree_spec(policy="nope")

    def test_policy_on_policy_free_algorithm(self):
        with pytest.raises(ValueError, match="does not take a re-anchor"):
            tree_spec(algorithm="dfs", policy="round-robin")

    def test_unknown_tree_adversary_lists_known(self):
        with pytest.raises(ValueError, match="random-breakdowns"):
            tree_spec(adversary="nope")

    def test_unknown_reactive_adversary(self):
        with pytest.raises(ValueError, match="block-explorers"):
            tree_spec(kind="reactive", adversary="nope")

    def test_graph_kind_needs_graph_algorithm(self):
        with pytest.raises(ValueError, match="graph entry point"):
            tree_spec(kind="graph")

    def test_graph_adversary_rejected(self):
        with pytest.raises(ValueError, match="do not take an adversary"):
            ScenarioSpec(
                kind="graph",
                algorithm="graph-bfdn",
                substrate=TreeSpec.named("maze", 64),
                k=2,
                adversary="random-breakdowns",
            )

    def test_game_kind_needs_game_algorithm(self):
        with pytest.raises(ValueError, match="game entry point"):
            tree_spec(kind="game")

    def test_unknown_game_player_lists_known(self):
        with pytest.raises(ValueError, match="balanced"):
            ScenarioSpec(
                kind="game",
                algorithm="urn-game",
                substrate=TreeSpec.named("path", 8),
                k=4,
                policy="nope",
            )

    def test_unknown_game_adversary_lists_known(self):
        with pytest.raises(ValueError, match="greedy"):
            ScenarioSpec(
                kind="game",
                algorithm="urn-game",
                substrate=TreeSpec.named("path", 8),
                k=4,
                adversary="nope",
            )

    def test_graph_family_must_be_named(self):
        spec = ScenarioSpec(
            kind="graph",
            algorithm="graph-bfdn",
            substrate=TreeSpec.from_tree(
                TreeSpec.named("path", 5).materialize()
            ),
            k=2,
        )
        with pytest.raises(ValueError, match="named graph family"):
            spec.build()


# JSON-scalar params a scenario can legally carry.
_param_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.booleans(),
)
_params = st.dictionaries(
    st.text(min_size=1, max_size=8), _param_values, max_size=3
)


@st.composite
def scenario_specs(draw):
    kind = draw(st.sampled_from(KINDS))
    if kind in ("tree", "reactive"):
        algorithm = draw(st.sampled_from(sorted(registry.ALGORITHMS)))
        substrate = TreeSpec.named(
            draw(st.sampled_from(sorted(registry.tree_families()))),
            draw(st.integers(min_value=2, max_value=64)),
            seed=draw(st.integers(min_value=0, max_value=3)),
        )
        policy = (
            draw(st.sampled_from(registry.REANCHOR_POLICIES))
            if algorithm in registry.POLICY_ALGORITHMS and draw(st.booleans())
            else None
        )
        names = [
            name
            for name, akind in registry.ADVERSARIES.items()
            if akind == kind
        ]
        adversary = (
            draw(st.sampled_from(sorted(names)))
            if kind == "reactive" or draw(st.booleans())
            else None
        )
        # Every tree/reactive adversary accepts a horizon_per_n knob;
        # other keys are adversary-specific and registry-validated.
        adversary_params = (
            {"horizon_per_n": draw(st.integers(1, 50))}
            if adversary is not None and draw(st.booleans())
            else ()
        )
    elif kind == "async-tree":
        algorithm = draw(st.sampled_from(sorted(registry.ASYNC_ALGORITHMS)))
        substrate = TreeSpec.named(
            draw(st.sampled_from(sorted(registry.tree_families()))),
            draw(st.integers(min_value=2, max_value=64)),
            seed=draw(st.integers(min_value=0, max_value=3)),
        )
        policy = adversary = None
        adversary_params = ()
        speed = draw(st.sampled_from(sorted(registry.SPEED_SCHEDULES) + [None]))
        if speed == "adversarial-slowdown" and draw(st.booleans()):
            speed_params = {"factor": draw(st.integers(2, 8))}
        elif speed == "stochastic" and draw(st.booleans()):
            speed_params = {"low": 0.5}
        else:
            speed_params = ()
    elif kind == "graph":
        algorithm = "graph-bfdn"
        substrate = TreeSpec.named(
            draw(st.sampled_from(registry.GRAPHS)),
            draw(st.integers(min_value=16, max_value=128)),
        )
        policy = adversary = None
        adversary_params = ()
    else:
        algorithm = "urn-game"
        substrate = TreeSpec.named(
            "path", draw(st.integers(min_value=1, max_value=16))
        )
        policy = draw(st.sampled_from(registry.GAME_PLAYERS + (None,)))
        adversary = draw(st.sampled_from(registry.GAME_ADVERSARIES + (None,)))
        adversary_params = ()
    return ScenarioSpec(
        kind=kind,
        algorithm=algorithm,
        substrate=substrate,
        k=draw(st.integers(min_value=1, max_value=32)),
        seed=draw(st.integers(min_value=0, max_value=5)),
        policy=policy,
        adversary=adversary,
        adversary_params=adversary_params,
        speed=speed if kind == "async-tree" else None,
        speed_params=speed_params if kind == "async-tree" else (),
        params=draw(_params),
        label=draw(st.text(max_size=10)),
        max_rounds=draw(st.one_of(st.none(), st.integers(1, 10**6))),
        allow_shared_reveal=draw(st.sampled_from([None, True, False])),
        compute_bounds=draw(st.booleans()),
    )


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(scenario_specs())
    def test_json_roundtrip_is_identity(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=60, deadline=None)
    @given(scenario_specs())
    def test_fingerprint_survives_roundtrip(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()).fingerprint() == (
            spec.fingerprint()
        )

    @settings(max_examples=30, deadline=None)
    @given(scenario_specs(), st.text(max_size=10))
    def test_label_never_fingerprinted(self, spec, label):
        assert spec.with_label(label).fingerprint() == spec.fingerprint()

    def test_wrong_schema_rejected(self):
        data = json.loads(tree_spec().to_json())
        data["schema"] = "repro-orchestrator-v2"
        with pytest.raises(ValueError, match="schema"):
            ScenarioSpec.from_json(json.dumps(data))


class TestFingerprint:
    def test_semantic_fields_all_matter(self):
        base = tree_spec().fingerprint()
        assert tree_spec(algorithm="cte").fingerprint() != base
        assert tree_spec(k=5).fingerprint() != base
        assert tree_spec(seed=1).fingerprint() != base
        assert tree_spec(policy="random").fingerprint() != base
        assert tree_spec(adversary="random-breakdowns").fingerprint() != base
        assert tree_spec(kind="reactive").fingerprint() != base
        assert tree_spec(params={"x": 1}).fingerprint() != base
        assert tree_spec(max_rounds=99).fingerprint() != base
        assert tree_spec(compute_bounds=True).fingerprint() != base

    def test_adversary_params_matter(self):
        a = tree_spec(
            adversary="random-breakdowns", adversary_params={"p": 0.5}
        )
        b = tree_spec(
            adversary="random-breakdowns", adversary_params={"p": 0.9}
        )
        assert a.fingerprint() != b.fingerprint()

    def test_param_order_is_canonical(self):
        a = tree_spec(params=(("a", 1), ("b", 2)))
        b = tree_spec(params=(("b", 2), ("a", 1)))
        assert a.fingerprint() == b.fingerprint()

    def test_jobspec_shares_namespace(self):
        job = JobSpec(
            algorithm="bfdn", tree=TreeSpec.named("random", 60), k=4
        )
        assert job.fingerprint() == tree_spec().fingerprint()

    def test_digest_computed_once_and_pickled(self, monkeypatch):
        import pickle

        spec = tree_spec(label="memo")
        digest = spec.fingerprint()
        copy = pickle.loads(pickle.dumps(spec))
        calls = []
        original = ScenarioSpec.canonical
        monkeypatch.setattr(
            ScenarioSpec, "canonical",
            lambda self: calls.append(self) or original(self),
        )
        assert spec.fingerprint() == digest
        assert copy.fingerprint() == digest
        assert run_scenario(copy)["fingerprint"] == digest
        assert calls == []
        relabelled = spec.with_label("other")
        assert relabelled.fingerprint() == digest
        assert copy == spec and hash(copy) == hash(spec)
        assert relabelled != spec
        assert tree_spec(label="memo") == spec
        assert hash(tree_spec(label="memo")) == hash(spec)


class TestRunParity:
    def test_tree_row_matches_direct_simulation(self):
        from repro.core import BFDN
        from repro.sim import Simulator
        from repro.trees import generators as gen

        tree = gen.comb(8, 3)
        spec = ScenarioSpec(
            kind="tree",
            algorithm="bfdn",
            substrate=TreeSpec.from_tree(tree),
            k=3,
        )
        row = run_scenario(spec)
        direct = Simulator(tree, BFDN(), 3).run()
        assert row["rounds"] == direct.rounds
        assert row["n"] == tree.n
        assert row["kind"] == "tree"
        assert row["fingerprint"] == spec.fingerprint()

    def test_built_scenario_reruns_identically(self):
        built = tree_spec(adversary="random-breakdowns").build()
        assert built.run()["rounds"] == built.run()["rounds"]

    def test_reactive_row_has_interference_columns(self):
        row = tree_spec(
            kind="reactive",
            adversary="block-explorers",
            adversary_params={"budget": 1, "horizon_per_n": 20},
        ).run()
        assert {"blocked_moves", "executed_moves", "interference"} <= set(row)

    def test_graph_row_reports_actual_nodes(self):
        spec = ScenarioSpec(
            kind="graph",
            algorithm="graph-bfdn",
            substrate=TreeSpec.named("obstacle-grid", 256, seed=3),
            k=4,
            compute_bounds=True,
        )
        built = spec.build()
        row = built.run()
        assert row["nodes"] == built.size
        assert row["bfdn_bound"] > 0

    def test_game_row_terminates(self):
        row = ScenarioSpec(
            kind="game",
            algorithm="urn-game",
            substrate=TreeSpec.named("path", 6),
            k=6,
            policy="balanced",
            adversary="greedy",
            compute_bounds=True,
        ).run()
        assert row["complete"]
        assert row["rounds"] <= row["bfdn_bound"]

    def test_actual_size_not_requested_size(self):
        # comb rounds the requested n down to a full-tooth multiple.
        spec = tree_spec(substrate=TreeSpec.named("comb", 100))
        built = spec.build()
        assert built.run()["n"] == built.size == built.tree.n


class TestScenarioGrid:
    def test_kind_inferred_per_algorithm(self):
        specs = scenario_grid(
            ["bfdn", "graph-bfdn", "urn-game"],
            [("w", TreeSpec.named("maze", 64))],
            [2],
        )
        assert [s.kind for s in specs] == ["tree", "graph", "game"]

    def test_reactive_adversary_switches_kind(self):
        specs = scenario_grid(
            ["bfdn"],
            [("w", TreeSpec.named("random", 40))],
            [2],
            adversary="block-explorers",
        )
        assert specs[0].kind == "reactive"

    def test_adversary_not_applied_to_game(self):
        specs = scenario_grid(
            ["urn-game"],
            [("w", TreeSpec.named("path", 4))],
            [2],
            adversary="random-breakdowns",
        )
        assert specs[0].adversary is None

    def test_grid_covers_product(self):
        specs = scenario_grid(
            ["bfdn", "dfs"],
            [("a", TreeSpec.named("path", 5)), ("b", TreeSpec.named("star", 5))],
            [1, 2],
        )
        assert len(specs) == 8
        assert len({s.fingerprint() for s in specs}) == 8
