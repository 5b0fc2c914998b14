"""Unit tests for trace recording (TraceObserver) and replay."""

import pytest

from repro.core import BFDN
from repro.sim import Simulator, Trace, TraceObserver, replay
from repro.trees import generators as gen


class TestRecordAndReplay:
    def test_replay_reproduces_run(self, tree_case):
        label, tree = tree_case
        tracer = TraceObserver()
        res = Simulator(tree, BFDN(), 3, observers=[tracer]).run()
        rounds, ptree = replay(tracer.trace, tree)
        assert rounds == res.rounds
        assert ptree.is_complete() == res.complete

    def test_replay_rejects_wrong_tree(self):
        tree = gen.complete_ary(2, 3)
        tracer = TraceObserver()
        Simulator(tree, BFDN(), 2, observers=[tracer]).run()
        other = gen.path(tree.n)
        with pytest.raises(Exception):
            replay(tracer.trace, other)

    def test_replay_detects_tampering(self):
        tree = gen.complete_ary(2, 3)
        tracer = TraceObserver()
        Simulator(tree, BFDN(), 2, observers=[tracer]).run()
        trace = tracer.trace
        # Corrupt a recorded position.
        trace.rounds[1].positions_before[0] += 1
        with pytest.raises(ValueError):
            replay(trace, tree)


class TestSerialization:
    def test_dict_roundtrip(self):
        tree = gen.spider(3, 4)
        tracer = TraceObserver()
        Simulator(tree, BFDN(), 2, observers=[tracer]).run()
        data = tracer.trace.to_dict()
        rebuilt = Trace.from_dict(data)
        rounds, ptree = replay(rebuilt, tree)
        assert ptree.is_complete()

    def test_json_roundtrip(self):
        import json

        tree = gen.star(6)
        tracer = TraceObserver()
        Simulator(tree, BFDN(), 2, observers=[tracer]).run()
        blob = json.dumps(tracer.trace.to_dict())
        rebuilt = Trace.from_dict(json.loads(blob))
        rounds, ptree = replay(rebuilt, tree)
        assert ptree.is_complete()

    def test_trace_metadata(self):
        tree = gen.path(5)
        tracer = TraceObserver()
        Simulator(tree, BFDN(), 2, observers=[tracer]).run()
        assert tracer.trace.k == 2
        # Rounds are numbered by the billed-round counter before each move.
        assert [r.round for r in tracer.trace.rounds[:3]] == [0, 1, 2]
        assert tracer.trace.rounds[0].positions_before == [0, 0]
