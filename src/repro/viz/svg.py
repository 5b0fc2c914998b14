"""SVG rendering (no external dependencies).

Produces shareable vector graphics for the two things people want to see:

* :func:`tree_svg` — a snapshot of an exploration: the explored tree laid
  out top-down, robots as filled circles, dangling edges as stubs;
* :func:`region_map_svg` — the Figure 1 region chart with one colored
  cell per grid point.

The layout is a classic tidy-tree pass (leaves evenly spaced, parents
centered over their children) on the *explored* part of the tree.
"""

from __future__ import annotations

import html
from typing import Dict, List, Sequence, Tuple

from ..bounds.regions import ALGORITHMS, RegionMap
from ..trees.partial import PartialTree

#: Fill colors per algorithm for the region chart.
REGION_COLORS: Dict[str, str] = {
    "CTE": "#4e79a7",
    "Yo*": "#f28e2b",
    "BFDN": "#59a14f",
    "BFDN_ell": "#b07aa1",
    "": "#e8e8e8",
}

_ROBOT_COLORS = (
    "#e15759", "#4e79a7", "#f28e2b", "#59a14f", "#b07aa1",
    "#76b7b2", "#edc948", "#ff9da7",
)


def _tidy_layout(
    children: Dict[int, Sequence[int]], root: int
) -> Dict[int, Tuple[float, int]]:
    """Leaf-evenly-spaced tidy layout: returns ``node -> (x, depth)``."""
    positions: Dict[int, Tuple[float, int]] = {}
    next_leaf_x = [0.0]

    def place(node: int, depth: int) -> float:
        kids = children.get(node, ())
        if not kids:
            x = next_leaf_x[0]
            next_leaf_x[0] += 1.0
        else:
            xs = [place(c, depth + 1) for c in kids]
            x = sum(xs) / len(xs)
        positions[node] = (x, depth)
        return x

    place(root, 0)
    return positions


def tree_svg(
    ptree: PartialTree,
    positions: Sequence[int],
    cell: int = 36,
    title: str = "",
) -> str:
    """Render the explored tree with robots and dangling-edge stubs."""
    children = {
        v: list(ptree.explored_children(v)) for v in ptree.explored_nodes()
    }
    layout = _tidy_layout(children, ptree.root)
    max_x = max(x for x, _ in layout.values())
    max_d = max(d for _, d in layout.values())
    width = int((max_x + 2) * cell)
    height = int((max_d + 2) * cell) + (24 if title else 0)
    top = 24 if title else 0

    def px(node: int) -> Tuple[float, float]:
        x, d = layout[node]
        return (x + 1) * cell, top + (d + 1) * cell

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="8" y="16" font-family="monospace" font-size="13">'
            f"{html.escape(title)}</text>"
        )
    # Edges.
    for v in layout:
        for c in children.get(v, ()):
            x1, y1 = px(v)
            x2, y2 = px(c)
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                f'y2="{y2:.1f}" stroke="#888" stroke-width="1.5"/>'
            )
    # Dangling stubs.
    for v in layout:
        stubs = len(ptree.dangling_ports(v))
        if stubs:
            x, y = px(v)
            for idx in range(stubs):
                dx = (idx - (stubs - 1) / 2) * 6
                parts.append(
                    f'<line x1="{x:.1f}" y1="{y:.1f}" x2="{x + dx:.1f}" '
                    f'y2="{y + cell * 0.6:.1f}" stroke="#cc3333" '
                    f'stroke-width="1" stroke-dasharray="3,2"/>'
                )
    # Nodes.
    for v in layout:
        x, y = px(v)
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#444"/>'
        )
    # Robots (offset so co-located robots stay visible).
    robots_at: Dict[int, List[int]] = {}
    for i, p in enumerate(positions):
        robots_at.setdefault(p, []).append(i)
    for node, robots in robots_at.items():
        if node not in layout:
            continue
        x, y = px(node)
        for slot, i in enumerate(robots):
            color = _ROBOT_COLORS[i % len(_ROBOT_COLORS)]
            ox = (slot - (len(robots) - 1) / 2) * 10
            parts.append(
                f'<circle cx="{x + ox:.1f}" cy="{y - 10:.1f}" r="5" '
                f'fill="{color}" stroke="black" stroke-width="0.7">'
                f"<title>robot {i}</title></circle>"
            )
    parts.append("</svg>")
    return "\n".join(parts)


def region_map_svg(region_map: RegionMap, cell: int = 9) -> str:
    """Figure 1 as an SVG heat map (one colored square per grid cell)."""
    rows = len(region_map.log2_d)
    cols = len(region_map.log2_n)
    margin_left, margin_bottom, margin_top = 56, 36, 28
    width = cols * cell + margin_left + 10
    height = rows * cell + margin_top + margin_bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="8" y="18" font-family="monospace" font-size="13">'
        f"Figure 1 regions, k={region_map.k}</text>",
    ]
    for row_idx in range(rows):
        for col_idx in range(cols):
            winner = region_map.winners[row_idx][col_idx]
            color = REGION_COLORS.get(winner, "#ffffff")
            x = margin_left + col_idx * cell
            y = margin_top + (rows - 1 - row_idx) * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{color}"/>'
            )
    # Axes labels.
    parts.append(
        f'<text x="{margin_left}" y="{height - 12}" font-family="monospace" '
        f'font-size="11">log2 n: {region_map.log2_n[0]:.0f} .. '
        f"{region_map.log2_n[-1]:.0f}</text>"
    )
    parts.append(
        f'<text x="4" y="{margin_top + 12}" font-family="monospace" '
        f'font-size="11">D^</text>'
    )
    # Legend.
    lx = margin_left
    for name in ALGORITHMS:
        parts.append(
            f'<rect x="{lx}" y="{height - 34}" width="10" height="10" '
            f'fill="{REGION_COLORS[name]}"/>'
        )
        parts.append(
            f'<text x="{lx + 13}" y="{height - 25}" font-family="monospace" '
            f'font-size="10">{html.escape(name)}</text>'
        )
        lx += 13 + 8 * len(name) + 14
    parts.append("</svg>")
    return "\n".join(parts)
