"""Fingerprint stability and tree-spec materialisation tests."""

import pytest

from repro.orchestrator import TreeSpec, run_jobspec
from repro.scenario import ScenarioSpec
from repro.trees import generators as gen


def spec(**overrides):
    base = dict(
        kind="tree",
        algorithm="bfdn",
        substrate=TreeSpec.named("random", 80),
        k=4,
        label="x",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestTreeSpec:
    def test_exactly_one_of_family_or_parents(self):
        with pytest.raises(ValueError):
            TreeSpec()
        with pytest.raises(ValueError):
            TreeSpec(family="path", n=5, parents=(-1, 0))

    def test_named_validates_family(self):
        with pytest.raises(ValueError, match="unknown tree family"):
            TreeSpec.named("nope", 10)

    def test_from_tree_roundtrips(self):
        tree = gen.comb(6, 3)
        rebuilt = TreeSpec.from_tree(tree).materialize()
        assert [rebuilt.parent(v) for v in range(rebuilt.n)] == [
            tree.parent(v) for v in range(tree.n)
        ]

    def test_named_materializes_deterministically(self):
        a = TreeSpec.named("random", 70, seed=5).materialize()
        b = TreeSpec.named("random", 70, seed=5).materialize()
        assert [a.parent(v) for v in range(a.n)] == [
            b.parent(v) for v in range(b.n)
        ]


class TestFingerprint:
    def test_stable_across_instances(self):
        assert spec().fingerprint() == spec().fingerprint()

    def test_label_is_not_fingerprinted(self):
        assert spec(label="a").fingerprint() == spec(label="b").fingerprint()

    def test_every_semantic_field_matters(self):
        base = spec().fingerprint()
        assert spec(algorithm="cte").fingerprint() != base
        assert spec(k=5).fingerprint() != base
        assert spec(seed=1).fingerprint() != base
        assert spec(max_rounds=10_000).fingerprint() != base
        assert spec(compute_bounds=True).fingerprint() != base
        assert spec(substrate=TreeSpec.named("random", 81)).fingerprint() != base
        assert spec(substrate=TreeSpec.named("random", 80, seed=1)).fingerprint() != base

    def test_explicit_default_equals_implicit(self):
        # bfdn's registry default is shared_reveal=False; saying so
        # explicitly must not change the fingerprint.
        assert spec(allow_shared_reveal=False).fingerprint() == spec().fingerprint()

    def test_shared_reveal_resolves_registry_default(self):
        cte = spec(algorithm="cte")
        assert cte.shared_reveal()
        assert cte.canonical()["allow_shared_reveal"] is True

    def test_parents_vs_named_distinct(self):
        named = TreeSpec.named("path", 5)
        concrete = TreeSpec.from_tree(gen.path(5))
        assert (
            spec(substrate=named).fingerprint() != spec(substrate=concrete).fingerprint()
        )

    def test_golden_fingerprint_is_pinned(self):
        # Guards against accidental canonical-encoding changes, which
        # would silently invalidate every existing cache.  Pinned for
        # schema repro-orchestrator-v4 (resource-accounting rows): the
        # schema tag is part of the canonical encoding, so the v4 row
        # change deliberately re-keys the cache away from the v3 value
        # (f877...4ee8), just as v3 re-keyed away from v2 (8598...d4c2).
        assert spec().fingerprint() == (
            "b32eda2b447d561817264561cfe9bd578a2e0ec734ff499bae76f9c35d7e4d0d"
        )


class TestValidation:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            spec(algorithm="nope")

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="team size"):
            spec(k=0)


class TestRunJobspec:
    def test_row_matches_direct_simulation(self):
        from repro.core import BFDN
        from repro.sim import Simulator

        tree = gen.comb(8, 3)
        job = ScenarioSpec(
            kind="tree",
            algorithm="bfdn",
            substrate=TreeSpec.from_tree(tree),
            k=3,
            label="comb",
        )
        row = run_jobspec(job)
        direct = Simulator(tree, BFDN(), 3).run()
        assert row["rounds"] == direct.rounds
        assert row["complete"] and row["all_home"]
        assert row["label"] == "comb"
        assert row["fingerprint"] == job.fingerprint()

    def test_compute_bounds_adds_theory_columns(self):
        row = run_jobspec(spec(compute_bounds=True))
        assert {"bfdn_bound", "lower_bound", "offline_split"} <= set(row)
