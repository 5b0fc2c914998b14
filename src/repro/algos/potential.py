"""``potential-cte`` — exploration by potential descent (arXiv:2311.01354).

Cosson and Massoulié analyse a *locally greedy* collective strategy with
a potential-function argument and obtain ``2n/k + O(D^2)`` rounds —
BFDN's guarantee with the ``min(log Delta, log k)`` factor removed from
the additive term, and without BFDN's global anchor bookkeeping.

The strategy realised here keeps every robot mining the frontier:

* a robot in a *finished* subtree walks up (it can do no good below);
* a robot at a node with an unassigned dangling port traverses it (each
  port is handed to at most one robot per round, so the run is legal in
  the strict no-shared-reveal model — stricter than classical CTE);
* otherwise it descends into the unfinished branch currently holding the
  fewest robots (robots already below it plus robots routed into it this
  round), which is the discrete potential-descent step: team load over
  unfinished subtrees is balanced greedily at every node, every round.

Between two reveals a robot only ever moves monotonically toward an open
node, so some robot traverses a dangling edge at least every ``D``
rounds and the run terminates without round-cap help.  The guarantee
monitored by the budget observer is
:func:`repro.bounds.guarantees.potential_cte_bound` (``2n/k + C D^2``
with the implementation-pinned constant ``C``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

from ..sim.engine import (
    STAY,
    UP,
    Exploration,
    ExplorationAlgorithm,
    Move,
    down,
    explore,
)


class PotentialCTE(ExplorationAlgorithm):
    """Locally-greedy potential-descent exploration (arXiv:2311.01354)."""

    name = "PotentialCTE"

    def attach(self, expl: Exploration) -> None:
        # Robots at-or-below each explored node (the potential's load
        # vector), counting every robot — blocked ones still occupy their
        # subtree and should repel new arrivals.  Everyone starts home.
        self._load: Dict[int, int] = {expl.tree.root: expl.k}
        self._sent: Dict[int, Move] = {}
        self._from = expl.positions

    def observe(self, expl: Exploration, events) -> None:
        # A robot that stepped changes one entry: the node it left going
        # up, or the node it entered going down or exploring.
        load, before, after = self._load, self._from, expl.positions
        for i, move in self._sent.items():
            v = after[i]
            if v != before[i]:
                if move is UP:
                    load[before[i]] -= 1
                else:
                    load[v] = load.get(v, 0) + 1

    def select_moves(self, expl: Exploration, movable: Set[int]) -> Dict[int, Move]:
        ptree = expl.ptree
        root = expl.tree.root
        load = self._load

        # Per-node dangling ports, handed out one robot per port.
        port_iters: Dict[int, Iterator[int]] = {}
        # Robots routed into each branch this round (greedy balancing
        # sees them immediately, not only next round).
        routed: Dict[int, int] = {}

        moves: Dict[int, Move] = {}
        for i in expl.in_robot_order(movable):
            v = expl.positions[i]
            if ptree.is_finished(v):
                moves[i] = STAY if v == root else UP
                continue
            ports = port_iters.get(v)
            if ports is None:
                ports = iter(sorted(ptree.dangling_ports(v)))
                port_iters[v] = ports
            port = next(ports, None)
            if port is not None:
                moves[i] = explore(port)
                continue
            branches: List[int] = [
                c for c in ptree.explored_children(v) if not ptree.is_finished(c)
            ]
            if branches:
                target = min(
                    branches, key=lambda c: (load.get(c, 0) + routed.get(c, 0), c)
                )
                routed[target] = routed.get(target, 0) + 1
                moves[i] = down(target)
            else:
                # Unfinished node, but every dangling port here was handed
                # out this round and no explored branch is unfinished:
                # wait in place — the reveals land exactly here.
                moves[i] = STAY
        self._sent = moves
        self._from = expl.positions
        return moves
