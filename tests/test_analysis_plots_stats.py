"""Tests for ASCII plotting and paired measurements."""

from repro.analysis import line_plot, scatter_loglog


class TestLinePlot:
    def test_basic_shape(self):
        out = line_plot([1, 2, 3], {"a": [1, 2, 3]}, width=20, height=5)
        lines = out.splitlines()
        assert len(lines) == 5 + 3  # rows + axis + range + legend
        assert "*=a" in lines[-1]

    def test_title(self):
        out = line_plot([1, 2], {"a": [1, 2]}, title="T")
        assert out.splitlines()[0] == "T"

    def test_multiple_series_glyphs(self):
        out = line_plot([1, 2], {"a": [1, 2], "b": [2, 1]})
        assert "*=a" in out and "+=b" in out

    def test_empty(self):
        assert line_plot([], {}) == "(no data)"

    def test_extremes_on_grid(self):
        out = line_plot([1, 10], {"a": [5, 50]}, width=12, height=4)
        rows = out.splitlines()
        assert rows[0].strip().startswith("50.0")  # max label on top row


class TestScatterLogLog:
    def test_basic(self):
        out = scatter_loglog({"s": [(1, 1), (10, 100), (100, 10_000)]})
        assert "log10 x: 0.0 .. 2.0" in out
        assert "*=s" in out

    def test_drops_nonpositive(self):
        out = scatter_loglog({"s": [(0, 1), (-2, 3)]})
        assert out == "(no data)"

    def test_mixed_sets(self):
        out = scatter_loglog({"a": [(1, 1)], "b": [(10, 10)]})
        assert "*=a" in out and "+=b" in out


class TestOnRealMeasurements:
    def test_bfdn_vs_dogpile_replicated(self):
        """Statistical version of the ablation: across random stress-ish
        instances, the balanced policy never loses to the anti-balanced
        one on average."""
        from repro.core import BFDN, make_policy
        from repro.sim import Simulator
        from repro.trees import generators as gen

        def rounds_with(policy):
            def measure(seed):
                import random as _r

                tree = gen.random_tree_with_depth(150, 20, _r.Random(seed))
                algo = BFDN(policy=make_policy(policy, seed=seed))
                return Simulator(tree, algo, 6).run().rounds

            return measure

        balanced, dogpile = rounds_with("least-loaded"), rounds_with("most-loaded")
        diffs = [balanced(seed) - dogpile(seed) for seed in range(6)]
        mean_difference = sum(diffs) / len(diffs)
        assert mean_difference <= 0.0 or abs(mean_difference) < 5
