"""Golden-trace regression tests.

Stored traces of reference runs (tests/data/golden_*.json) pin down the
exact round-by-round behaviour of the deterministic algorithms.  A change
that alters any move — tie-breaking, iteration order, anchor choice —
fails here before it can silently shift the measured results in
EXPERIMENTS.md.
"""

import json
import os

import pytest

from repro.core import BFDN, WriteReadBFDN
from repro.sim import Simulator, Trace, TraceObserver, replay
from repro.trees.serialization import tree_from_dict

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

GOLDEN = {
    "golden_bfdn_comb.json": BFDN,
    "golden_bfdn_random.json": BFDN,
    "golden_writeread_spider.json": WriteReadBFDN,
}


def load(name):
    with open(os.path.join(DATA_DIR, name)) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_is_legal(name):
    payload = load(name)
    tree = tree_from_dict(payload["tree"])
    trace = Trace.from_dict(payload["trace"])
    rounds, ptree = replay(trace, tree)
    assert rounds == payload["rounds"]
    assert ptree.is_complete()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_current_run_matches_golden(name):
    payload = load(name)
    tree = tree_from_dict(payload["tree"])
    tracer = TraceObserver()
    res = Simulator(tree, GOLDEN[name](), payload["k"], observers=[tracer]).run()
    assert res.rounds == payload["rounds"], (
        f"{name}: round count drifted from the golden run "
        f"({res.rounds} != {payload['rounds']})"
    )
    golden_trace = Trace.from_dict(payload["trace"])
    assert len(tracer.trace.rounds) == len(golden_trace.rounds)
    for current, golden in zip(tracer.trace.rounds, golden_trace.rounds):
        assert current.positions_before == golden.positions_before
        assert current.moves == golden.moves
