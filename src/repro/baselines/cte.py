"""CTE — Collective Tree Exploration (Fraigniaud, Gasieniec, Kowalski,
Pelc [10]).

The classical online comparator: at every round, the robots located at a
node ``v`` whose subtree is unfinished are divided as evenly as possible
among the unfinished branches at ``v`` (explored children with unfinished
subtrees, plus dangling edges); robots in a finished subtree move up.
CTE explores any tree in ``O(n / log k + D)`` rounds, and this analysis is
tight: on the trap trees of Higashikawa et al. [11]
(:func:`repro.trees.adversarial.cte_trap_tree`) it needs ``~ D k / log2 k``
rounds, which is where BFDN's ``2n/k + O(D^2 log k)`` wins (experiment E10).

In CTE's model several robots may traverse the same unexplored edge in one
round, so run it with ``allow_shared_reveal=True`` (``run_cte`` does this).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set

from ..sim.engine import (
    STAY,
    UP,
    Exploration,
    ExplorationAlgorithm,
    ExplorationResult,
    Move,
    Simulator,
    down,
    explore,
)
from ..trees.tree import Tree


class CTE(ExplorationAlgorithm):
    """The even-splitting collective exploration strategy of [10]."""

    name = "CTE"

    def select_moves(self, expl: Exploration, movable: Set[int]) -> Dict[int, Move]:
        ptree = expl.ptree
        root = expl.tree.root
        by_node: Dict[int, List[int]] = defaultdict(list)
        for i in expl.in_robot_order(movable):
            by_node[expl.positions[i]].append(i)

        moves: Dict[int, Move] = {}
        for v, robots in by_node.items():
            if ptree.is_finished(v):
                target: Move = STAY if v == root else UP
                for i in robots:
                    moves[i] = target
                continue
            # Unfinished branches at v: explored children with unfinished
            # subtrees, then dangling ports, in deterministic order.
            branches: List[Move] = [
                down(c) for c in sorted(ptree.explored_children(v))
                if not ptree.is_finished(c)
            ]
            branches.extend(explore(p) for p in sorted(ptree.dangling_ports(v)))
            # Distribute the robots as evenly as possible (round-robin).
            for idx, i in enumerate(robots):
                moves[i] = branches[idx % len(branches)]
        return moves


def run_cte(
    tree: Tree, k: int, max_rounds: Optional[int] = None
) -> ExplorationResult:
    """Convenience wrapper: run CTE with the shared-reveal model enabled."""
    sim = Simulator(tree, CTE(), k, max_rounds=max_rounds, allow_shared_reveal=True)
    return sim.run()
