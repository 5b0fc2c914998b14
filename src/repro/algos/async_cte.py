"""``async-cte`` — distributed asynchronous exploration (arXiv:2507.15658).

Cosson's "Asynchronous Collective Tree Exploration: a Distributed
Algorithm, and a new Lower Bound" drops both synchrony assumptions of
the BFDN model: agents move at adversarially different speeds (no
global round barrier) and each agent decides from information available
*locally* — what it has seen on its own walk plus a whiteboard at the
vertex it currently occupies.  The guarantee is of the collective-DFS
family: completion time ``2n/k + O(D^2)`` in normalised time units
(every traversal takes at most one unit), monitored here as
:func:`repro.bounds.guarantees.async_cte_bound` with an
implementation-pinned constant.

The strategy realised here is the whiteboard form of the classical CTE
"next-neighbor" rule, which is exactly what makes it schedule-oblivious:

* an agent in a *finished* subtree walks up (it can do no good below) —
  finishedness of ``T(v)`` is visible from ``v``'s whiteboard;
* at a node with dangling ports it takes the next port of a rotating
  per-node counter stored on the whiteboard.  Two agents waking at
  different times pick different ports; once every port has been handed
  out the rotation wraps, so a port may be traversed twice (classical
  CTE's shared-reveal model — the run sets ``allow_shared_reveal``);
* otherwise it descends into the unfinished explored child into which
  the whiteboard has routed the fewest agents so far (ties: smallest
  child id), incrementing that tally as it leaves.

No decision reads another agent's position or clock, so the rule is
well-defined under any speed schedule: the engine simply offers each
agent a move whenever *its own* traversal completes.  Under the unit
schedule every agent is offered every round and the algorithm runs as
an ordinary synchronous strategy (which is how the CI smoke job's
registry steps exercise it).  Between two reveals an agent only ever moves toward
an open node — up through finished subtrees, down through unfinished
ones — so each agent traverses a dangling edge at least every ``2D`` of
its own ticks and the run terminates without round-cap help.
"""

from __future__ import annotations

from typing import Dict, Set

from ..sim.engine import (
    STAY,
    UP,
    Exploration,
    ExplorationAlgorithm,
    Move,
    down,
    explore,
)


class AsyncCTE(ExplorationAlgorithm):
    """Distributed whiteboard CTE (arXiv:2507.15658).

    State is two whiteboard tallies per explored node — a rotating
    dangling-port counter and a per-child routing count — both read and
    written only by agents standing at that node.
    """

    name = "AsyncCTE"

    def attach(self, expl: Exploration) -> None:
        """Reset the per-node whiteboards for a fresh run."""
        #: node -> how many port hand-outs its rotation has served.
        self._port_rotation: Dict[int, int] = {}
        #: node -> agents ever routed down into it by its parent.
        self._routed: Dict[int, int] = {}

    def select_moves(self, expl: Exploration, movable: Set[int]) -> Dict[int, Move]:
        """One local decision per offered agent (no cross-agent reads)."""
        ptree = expl.ptree
        root = expl.tree.root
        moves: Dict[int, Move] = {}
        for i in expl.in_robot_order(movable):
            v = expl.positions[i]
            if ptree.is_finished(v):
                moves[i] = STAY if v == root else UP
                continue
            dangling = sorted(ptree.dangling_ports(v))
            if dangling:
                turn = self._port_rotation.get(v, 0)
                self._port_rotation[v] = turn + 1
                moves[i] = explore(dangling[turn % len(dangling)])
                continue
            branches = [
                c for c in ptree.explored_children(v) if not ptree.is_finished(c)
            ]
            # v unfinished with no dangling port of its own implies some
            # explored child's subtree is unfinished.
            target = min(branches, key=lambda c: (self._routed.get(c, 0), c))
            self._routed[target] = self._routed.get(target, 0) + 1
            moves[i] = down(target)
        return moves
