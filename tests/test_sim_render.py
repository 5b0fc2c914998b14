"""Tests for the ASCII renderer."""

from repro.core import BFDN
from repro.sim import Exploration, Simulator, TraceObserver
from repro.sim.render import animate, render_state
from repro.trees import generators as gen


class TestRenderState:
    def test_initial_frame_shows_root_and_robots(self):
        tree = gen.star(4)
        expl = Exploration(tree, 2)
        frame = render_state(expl.ptree, expl.positions)
        assert frame.startswith("0")
        assert "R0" in frame and "R1" in frame
        assert "???" in frame  # three dangling edges at the root

    def test_explored_children_indented(self):
        tree = gen.path(3)
        expl = Exploration(tree, 1)
        expl.apply({0: ("explore", 0)}, {0})
        frame = render_state(expl.ptree, expl.positions)
        lines = frame.splitlines()
        assert lines[0] == "0"
        assert lines[1].startswith("  1")

    def test_truncation(self):
        tree = gen.star(50)
        expl = Exploration(tree, 1)
        for port in range(49):
            expl.apply({0: ("explore", min(expl.ptree.dangling_ports(0)))}, {0})
            expl.apply({0: ("up",)}, {0})
        frame = render_state(expl.ptree, expl.positions, max_nodes=10)
        assert "truncated" in frame


class TestSummaryAndAnimate:
    def test_animate_frame_count(self):
        tree = gen.complete_ary(2, 3)
        tracer = TraceObserver()
        Simulator(tree, BFDN(), 2, observers=[tracer]).run()
        frames = list(animate(tracer.trace, tree))
        assert len(frames) == len(tracer.trace.rounds) + 1

    def test_animate_limit(self):
        tree = gen.complete_ary(2, 3)
        tracer = TraceObserver()
        Simulator(tree, BFDN(), 2, observers=[tracer]).run()
        frames = list(animate(tracer.trace, tree, limit=2))
        assert len(frames) == 3  # initial + 2 rounds
