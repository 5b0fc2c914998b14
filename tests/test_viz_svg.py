"""Tests for the SVG renderer (well-formedness and content)."""

import xml.etree.ElementTree as ET

import pytest

from repro.bounds import compute_region_map
from repro.core import BFDN
from repro.sim import Exploration
from repro.trees import generators as gen
from repro.trees.partial import PartialTree
from repro.viz import REGION_COLORS, region_map_svg, tree_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def explored_svg(tree, positions, **kwargs):
    """``tree_svg`` of ``tree`` with every edge revealed."""
    ptree = PartialTree(tree.root, tree.degree(tree.root))
    stack = [tree.root]
    while stack:
        u = stack.pop()
        for port in sorted(ptree.dangling_ports(u)):
            child = tree.port_to(u, port)
            ptree.reveal(u, port, child, tree.degree(child))
            stack.append(child)
    return tree_svg(ptree, positions, **kwargs)


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestTreeSvg:
    def test_well_formed(self, tree_case):
        label, tree = tree_case
        if tree.n > 150:
            pytest.skip("layout test kept small")
        svg = explored_svg(tree, [tree.root] * 2)
        parse(svg)

    def test_robots_rendered(self):
        svg = explored_svg(gen.star(5), [0, 1, 2])
        root = parse(svg)
        titles = [t.text for t in root.iter(f"{SVG_NS}title")]
        assert {"robot 0", "robot 1", "robot 2"} <= set(titles)

    def test_edges_count(self):
        tree = gen.path(6)
        svg = explored_svg(tree, [0])
        root = parse(svg)
        lines = [
            e for e in root.iter(f"{SVG_NS}line")
            if e.get("stroke") == "#888"
        ]
        assert len(lines) == tree.n - 1

    def test_dangling_stubs_in_partial_view(self):
        tree = gen.star(6)
        expl = Exploration(tree, 1)
        expl.apply({0: ("explore", 0)}, {0})
        svg = tree_svg(expl.ptree, expl.positions)
        root = parse(svg)
        stubs = [
            e for e in root.iter(f"{SVG_NS}line")
            if e.get("stroke") == "#cc3333"
        ]
        assert len(stubs) == 4  # the remaining dangling root ports

    def test_title_escaped(self):
        svg = explored_svg(gen.path(2), [0], title="<&>")
        assert "&lt;&amp;&gt;" in svg
        parse(svg)

    def test_snapshot_mid_run(self):
        tree = gen.comb(5, 2)
        expl = Exploration(tree, 2)
        algo = BFDN()
        algo.attach(expl)
        for _ in range(4):
            moves = algo.select_moves(expl, {0, 1})
            events = expl.apply(moves, {0, 1})
            algo.observe(expl, events)
        parse(tree_svg(expl.ptree, expl.positions))


class TestRegionSvg:
    def test_well_formed_and_colored(self):
        m = compute_region_map(1 << 20, resolution=12, log2_n_max=60, log2_d_max=40)
        svg = region_map_svg(m)
        root = parse(svg)
        rects = list(root.iter(f"{SVG_NS}rect"))
        # background + grid cells + legend swatches
        assert len(rects) >= 12 * 12
        fills = {r.get("fill") for r in rects}
        assert REGION_COLORS["BFDN"] in fills
        assert REGION_COLORS["CTE"] in fills

    def test_legend_names(self):
        m = compute_region_map(64, resolution=8)
        svg = region_map_svg(m)
        assert "BFDN_ell" in svg and "Yo*" in svg
