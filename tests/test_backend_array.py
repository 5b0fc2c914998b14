"""The array fast path: parity, routing, reporting, legacy payloads.

Every run is offered to the array fast path first; runs outside its
envelope take the reference (scheduler) loop.  A per-round observer
keeps a run on the reference loop, which is how these tests get the
reference side of each comparison.  Four contracts pinned here,
complementing the golden-trace grid in
``tests/test_runloop_regression.py``:

* **Parity** — on its supported envelope (BFDN on trees, standard
  model) the fast path's full observable result — rounds, wall
  rounds, positions, metrics down to the ordered re-anchor log, and the
  rebuilt partial tree — is indistinguishable from the reference loop,
  including under ``stop_when_complete`` and round caps (hypothesis
  hunts for divergence on random trees).
* **Routing** — out-of-envelope configurations (other algorithms, async
  clocks, per-round observers) run on the reference loop; the
  batch-capable telemetry observers do not knock a run off the fast
  path.
* **Reporting** — result rows name the loop that actually ran.
* **Legacy payloads** — a ``backend`` key left in a spec payload by an
  older version is ignored: it parses to the default fingerprint, so
  every cache entry stays reachable.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BFDN
from repro.obs.metrics import MetricsObserver
from repro.orchestrator.jobspec import TreeSpec
from repro.registry import make_algorithm, make_tree
from repro.scenario import ScenarioSpec
from repro.serve.protocol import ServeRequest, parse_scenario
from repro.sim import Simulator
from repro.sim.array_backend import ArrayMetrics
from repro.sim.runloop import RoundCapExceeded, RoundObserver

BOTH = ["array", "reference"]


def loop_observers(loop):
    """Observers that pin a run to ``loop``: any per-round observer keeps
    it on the reference loop; none lets plain BFDN take the fast path."""
    return [RoundObserver()] if loop == "reference" else []


def run_pair(tree, k, **kwargs):
    """The same exploration on the reference loop and the fast path."""
    ref = Simulator(tree, BFDN(), k, observers=loop_observers("reference"),
                    **kwargs).run()
    arr = Simulator(tree, BFDN(), k, **kwargs).run()
    assert type(arr.metrics) is ArrayMetrics  # the fast path took it
    assert type(ref.metrics) is not ArrayMetrics
    return ref, arr


def assert_identical(ref, arr):
    """Full observable-result equality across the two loops."""
    assert arr.rounds == ref.rounds
    assert arr.wall_rounds == ref.wall_rounds
    assert arr.complete == ref.complete
    assert arr.all_home == ref.all_home
    assert arr.positions == ref.positions
    rm, am = ref.metrics, arr.metrics
    assert am.total_moves == rm.total_moves
    assert am.idle_rounds == rm.idle_rounds
    assert am.reveals == rm.reveals
    assert dict(am.moves_per_robot) == dict(rm.moves_per_robot)
    assert dict(am.idle_per_robot) == dict(rm.idle_per_robot)
    assert list(am.reanchors) == list(rm.reanchors)
    assert am.reanchors_per_depth() == rm.reanchors_per_depth()
    assert arr.ptree.num_explored == ref.ptree.num_explored
    assert arr.ptree.num_dangling == ref.ptree.num_dangling
    assert arr.ptree.is_complete() == ref.ptree.is_complete()


class TestParity:
    @pytest.mark.parametrize("family", ["random", "comb", "star", "spider", "path"])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_families(self, family, k):
        tree = make_tree(family, 120, seed=11)
        ref, arr = run_pair(tree, k)
        assert_identical(ref, arr)

    @pytest.mark.parametrize("k", [2, 5])
    def test_stop_when_complete(self, k):
        tree = make_tree("random", 150, seed=4)
        ref, arr = run_pair(tree, k, stop_when_complete=True)
        assert_identical(ref, arr)

    def test_single_node_tree(self):
        from repro.trees import Tree

        ref, arr = run_pair(Tree([-1]), 3)
        assert_identical(ref, arr)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 90),
        seed=st.integers(0, 10**6),
        k=st.integers(1, 7),
        swc=st.booleans(),
    )
    def test_hypothesis_random_trees(self, n, seed, k, swc):
        tree = make_tree("random", n, seed=seed)
        ref, arr = run_pair(tree, k, stop_when_complete=swc)
        assert_identical(ref, arr)


class TestAccountingInvariants:
    """Round accounting holds identically on both loops."""

    @pytest.mark.parametrize("loop", BOTH)
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 80), seed=st.integers(0, 10**6), k=st.integers(1, 6))
    def test_moves_plus_idle_equals_rounds(self, loop, n, seed, k):
        tree = make_tree("random", n, seed=seed)
        res = Simulator(tree, BFDN(), k, observers=loop_observers(loop)).run()
        m = res.metrics
        # Billed never exceeds wall; without an adversary they coincide.
        assert res.rounds <= res.wall_rounds == res.rounds
        # Per-robot ledger: every billed round is a move or an idle.
        for i in range(k):
            assert m.moves_per_robot[i] + m.idle_per_robot[i] == res.rounds
        assert sum(m.moves_per_robot.values()) == m.total_moves
        # Every edge revealed exactly once.
        assert m.reveals == tree.n - 1

    @pytest.mark.parametrize("loop", BOTH)
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(20, 80), seed=st.integers(0, 10**6), cap=st.integers(1, 30))
    def test_round_cap_raises_identically(self, loop, n, seed, cap):
        tree = make_tree("random", n, seed=seed)
        try:
            Simulator(
                tree, BFDN(), 2, max_rounds=cap,
                observers=loop_observers("reference"),
            ).run()
            expected = None
        except RoundCapExceeded as exc:
            expected = str(exc)
        observers = loop_observers(loop)
        if expected is None:
            res = Simulator(
                tree, BFDN(), 2, max_rounds=cap, observers=observers
            ).run()
            assert res.done
        else:
            with pytest.raises(RoundCapExceeded) as info:
                Simulator(
                    tree, BFDN(), 2, max_rounds=cap, observers=observers
                ).run()
            assert str(info.value) == expected


class TestFallback:
    def test_out_of_envelope_algorithm_falls_back(self):
        tree = make_tree("random", 80, seed=0)
        ref = Simulator(
            tree, make_algorithm("cte"), 3, allow_shared_reveal=True,
            observers=loop_observers("reference"),
        ).run()
        arr = Simulator(
            tree, make_algorithm("cte"), 3, allow_shared_reveal=True,
        ).run()
        assert (arr.rounds, arr.positions) == (ref.rounds, ref.positions)
        assert type(arr.metrics) is not ArrayMetrics

    def test_scenario_row_reports_effective_backend(self):
        # cte is outside the fast path's envelope; the result row must
        # say the reference loop ran.
        spec = ScenarioSpec(
            kind="tree", algorithm="cte",
            substrate=TreeSpec.named("random", 80, seed=0),
            k=3, seed=0, label="fallback",
        )
        row = spec.build().run()
        assert row["backend"] == "reference"

    def test_scenario_row_reports_array_when_it_runs(self):
        spec = ScenarioSpec(
            kind="tree", algorithm="bfdn",
            substrate=TreeSpec.named("random", 80, seed=0),
            k=3, seed=0, label="fast",
        )
        row = spec.build().run()
        assert row["backend"] == "array"

    def test_telemetry_observed_row_reports_array(self):
        # The metrics observer is batch-capable: a plain BFDN run with it
        # attached still takes the fast path.
        built = ScenarioSpec(
            kind="tree", algorithm="bfdn",
            substrate=TreeSpec.named("random", 80, seed=0),
            k=3, seed=0,
        ).build()
        observer = MetricsObserver()
        row = built.run(observers=[observer])
        assert row["backend"] == "array"
        assert row["rounds"] == built.run()["rounds"]


class TestFingerprints:
    def _spec(self, **kw):
        base = dict(
            kind="tree", algorithm="bfdn",
            substrate=TreeSpec.named("random", 30, seed=0),
            k=2, seed=0,
        )
        base.update(kw)
        return ScenarioSpec(**base)

    def _payload(self, **extra):
        payload = json.loads(self._spec().to_json())
        payload.update(extra)
        return payload

    def test_default_backend_leaves_fingerprint_unchanged(self):
        # Specs never carried the loop in their canonical encoding, and
        # a payload naming the old default still maps to the same run.
        assert "backend" not in self._spec().canonical()
        legacy = ScenarioSpec.from_json(
            json.dumps(self._payload(backend="reference"))
        )
        assert legacy.fingerprint() == self._spec().fingerprint()

    def test_legacy_array_backend_key_parses_to_default_fingerprint(self):
        expected = self._spec().fingerprint()
        payload = self._payload(backend="array")
        assert ScenarioSpec.from_json(json.dumps(payload)).fingerprint() == expected
        assert parse_scenario(payload).fingerprint() == expected
        request = ServeRequest.from_payload({"scenario": payload})
        assert request.fingerprint == expected

    def test_rows_agree_semantically_across_backends(self):
        built = self._spec().build()
        ref = built.run(observers=loop_observers("reference"))
        arr = built.run()
        assert (ref["backend"], arr["backend"]) == ("reference", "array")
        for col in ("rounds", "wall_rounds", "complete", "all_home"):
            assert arr[col] == ref[col], col
