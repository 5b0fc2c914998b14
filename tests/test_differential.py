"""Differential tests: the optimised BFDN against the naive reference.

Both implement Algorithm 1; they must produce *identical* executions —
the same move by every robot in every round — on every tree.  The
reference recomputes everything from scratch each round, so agreement
certifies that the production implementation's incremental structures
(per-depth open buckets, lazy load heaps, per-node port iterators)
faithfully realise the pseudo-code.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BFDN
from repro.core.reference import ReferenceBFDN
from repro.sim import Exploration, Simulator, TraceObserver
from repro.trees import Tree
from repro.trees import generators as gen


def traces_match(tree, k):
    fast, slow = TraceObserver(), TraceObserver()
    fast_result = Simulator(tree, BFDN(), k, observers=[fast]).run()
    slow_result = Simulator(tree, ReferenceBFDN(), k, observers=[slow]).run()
    assert fast_result.rounds == slow_result.rounds, (
        f"round counts differ: fast {fast_result.rounds} "
        f"vs reference {slow_result.rounds}"
    )
    for rnd, (a, b) in enumerate(zip(fast.trace.rounds, slow.trace.rounds)):
        assert a.positions_before == b.positions_before, f"round {rnd}"
        assert a.moves == b.moves, (
            f"round {rnd}: fast {a.moves} vs reference {b.moves}"
        )
    return fast_result


class TestIdenticalExecutions:
    @pytest.mark.parametrize("k", (1, 2, 3, 5, 8))
    def test_all_families(self, tree_case, k):
        label, tree = tree_case
        result = traces_match(tree, k)
        assert result.done

    def test_anchor_state_matches_round_by_round(self):
        tree = gen.comb(8, 3)
        k = 4
        expl_fast, expl_slow = Exploration(tree, k), Exploration(tree, k)
        fast, slow = BFDN(), ReferenceBFDN()
        fast.attach(expl_fast)
        slow.attach(expl_slow)
        everyone = set(range(k))
        while True:
            mf = fast.select_moves(expl_fast, everyone)
            ms = slow.select_moves(expl_slow, everyone)
            assert mf == ms
            assert fast.anchors == slow.anchors
            before = list(expl_fast.positions)
            fast.observe(expl_fast, expl_fast.apply(mf, everyone))
            slow.observe(expl_slow, expl_slow.apply(ms, everyone))
            if expl_fast.positions == before:
                break


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 70),
    st.integers(0, 2**31 - 1),
    st.sampled_from([0.15, 0.5, 0.85]),
    st.integers(1, 8),
)
def test_differential_random_trees(n, seed, bias, k):
    rng = random.Random(seed)
    parents = [-1]
    for v in range(1, n):
        parents.append(v - 1 if rng.random() < bias else rng.randrange(v))
    traces_match(Tree(parents), k)
