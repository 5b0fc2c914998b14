"""Tests for per-round time series (working depth, exploration rate)."""

import pytest

from repro.baselines import OnlineDFS
from repro.core import BFDN, WriteReadBFDN
from repro.sim import Simulator, TimeSeriesObserver
from repro.trees import generators as gen


def record(tree, algo, k):
    sampler = TimeSeriesObserver()
    res = Simulator(tree, algo, k, observers=[sampler]).run()
    return res, sampler.series


class TestSampling:
    def test_one_sample_per_round_plus_initial(self):
        tree = gen.complete_ary(2, 4)
        res, series = record(tree, BFDN(), 3)
        # on_attach() + one per round; the final all-stay round also
        # samples, so samples >= rounds + 1.
        assert len(series.samples) >= res.rounds + 1

    def test_initial_sample(self):
        tree = gen.star(5)
        _, series = record(tree, BFDN(), 2)
        first = series.samples[0]
        assert first.explored == 1
        assert first.robots_at_root == 2
        assert first.working_depth == 0

    def test_final_sample_complete(self):
        tree = gen.random_recursive(80)
        _, series = record(tree, BFDN(), 4)
        final = series.samples[-1]
        assert final.explored == tree.n
        assert final.dangling == 0
        assert final.working_depth is None

    def test_column_accessor(self):
        tree = gen.path(10)
        _, series = record(tree, BFDN(), 2)
        explored = series.column("explored")
        assert explored[0] == 1 and explored[-1] == 10
        assert explored == sorted(explored)  # monotone


class TestWorkingDepth:
    """The paper's structural fact: the minimum open depth (working
    depth) never decreases during any execution."""

    @pytest.mark.parametrize("algo_factory", [BFDN, WriteReadBFDN, OnlineDFS])
    def test_monotone_for_all_algorithms(self, tree_case, algo_factory):
        label, tree = tree_case
        _, series = record(tree, algo_factory(), 3)
        assert series.working_depth_is_monotone(), label

    def test_reaches_every_depth_on_path(self):
        tree = gen.path(12)
        _, series = record(tree, BFDN(), 1)
        depths = [s.working_depth for s in series.samples if s.working_depth is not None]
        assert set(depths) == set(range(12 - 1))


class TestRates:
    def test_exploration_rate_bounds(self):
        tree = gen.random_recursive(200)
        k = 8
        _, series = record(tree, BFDN(), k)
        rate = series.exploration_rate()
        assert 0 < rate <= k  # at most k reveals per round

    def test_empty_series(self):
        from repro.sim.timeseries import TimeSeries

        assert TimeSeries().exploration_rate() == 0.0

    def test_robot_depth_statistics(self):
        tree = gen.broom(8, 4)
        _, series = record(tree, BFDN(), 3)
        for s in series.samples:
            assert 0 <= s.mean_robot_depth <= s.max_robot_depth <= tree.depth
