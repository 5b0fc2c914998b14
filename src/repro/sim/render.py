"""ASCII rendering of exploration states — the terminal heir of the
paper's Python demo (acknowledgements: "a Python demo ... available at
github.com/Romcos/BFDN").

``render_state`` draws the explored tree with robot positions and
dangling-edge markers; ``animate`` replays a recorded trace frame by
frame.  Intended for small trees (n up to a few hundred).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..trees.partial import PartialTree
from ..trees.tree import Tree
from .engine import Exploration
from .trace import Trace


def render_state(
    ptree: PartialTree,
    positions: Sequence[int],
    max_nodes: int = 400,
) -> str:
    """The explored tree as an indented outline.

    Each explored node shows its id, the robots standing on it (``R3``)
    and one ``?`` per dangling edge.
    """
    robots_at: Dict[int, List[int]] = {}
    for i, p in enumerate(positions):
        robots_at.setdefault(p, []).append(i)

    lines: List[str] = []
    stack: List[tuple] = [(ptree.root, 0)]
    count = 0
    while stack:
        node, depth = stack.pop()
        count += 1
        if count > max_nodes:
            lines.append("  ... (truncated)")
            break
        marks = ""
        if node in robots_at:
            marks += " " + ",".join(f"R{i}" for i in robots_at[node])
        dangling = len(ptree.dangling_ports(node))
        if dangling:
            marks += " " + "?" * dangling
        lines.append(f"{'  ' * depth}{node}{marks}")
        for child in reversed(ptree.explored_children(node)):
            stack.append((child, depth + 1))
    return "\n".join(lines)


def animate(trace: Trace, tree: Tree, limit: Optional[int] = None) -> Iterator[str]:
    """Replay a trace, yielding one rendered frame per round."""
    expl = Exploration(tree, trace.k)
    everyone = set(range(trace.k))
    yield render_state(expl.ptree, expl.positions)
    for idx, entry in enumerate(trace.rounds):
        if limit is not None and idx >= limit:
            return
        expl.apply(entry.moves, everyone)
        yield render_state(expl.ptree, expl.positions)
