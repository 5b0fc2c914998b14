"""Tests for power-law fitting and the empirical scaling exponents.

The second half of this module is itself a reproduction check: it fits
the measured scaling of the paper's quantities and asserts the exponents
land near the theory (D^2 for the overhead budget, ~k log k for the game).
"""


import pytest

from repro.analysis import fit_power_law
from repro.core import BFDN
from repro.game import game_value
from repro.sim import Simulator
from repro.trees import generators as gen


class TestFitting:
    def test_exact_power_law(self):
        xs = [1, 2, 4, 8, 16]
        ys = [3 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_power_law([1, 2, 4], [5, 10, 20])
        assert fit.predict(8) == pytest.approx(40.0, rel=1e-6)

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, -1], [1, 1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 1])


class TestEmpiricalExponents:
    def test_game_value_grows_like_k_log_k(self):
        """R(k, k) / k should grow like log k: fitting R(k,k) against k
        gives an exponent slightly above 1."""
        ks = [8, 16, 32, 64, 128]
        fit = fit_power_law(ks, [game_value(k, k) for k in ks])
        assert 1.0 < fit.exponent < 1.5
        assert fit.r_squared > 0.98

    def test_bfdn_rounds_scale_linearly_in_n_on_bushy_trees(self):
        """At fixed shallow depth, T ~ 2n/k: exponent ~= 1 in n."""
        k = 8
        ns = [500, 1000, 2000, 4000]
        ys = []
        for n in ns:
            tree = gen.random_tree_with_depth(n, 12)
            ys.append(Simulator(tree, BFDN(), k).run().rounds)
        fit = fit_power_law(ns, ys)
        assert 0.8 < fit.exponent < 1.2
        assert fit.r_squared > 0.95

    def test_dfs_cost_is_exactly_linear(self):
        from repro.baselines import OnlineDFS

        ns = [50, 100, 200, 400]
        ys = []
        for n in ns:
            tree = gen.random_recursive(n)
            ys.append(Simulator(tree, OnlineDFS(), 1).run().rounds)
        fit = fit_power_law(ns, ys)
        assert fit.exponent == pytest.approx(1.0, abs=0.05)
