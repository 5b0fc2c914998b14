"""Depth-limited BFDN — the ``BFDN_1(k, k, d)`` building block of Section 5.

This is Algorithm 1 with the ``Reanchor`` procedure restricted to open
nodes of depth at most ``d`` (the modified line 26):

    ``U = {v : v adjacent to a dangling edge, delta(v) minimal, delta(v) <= d}``

When no dangling edge remains at depth at most ``d`` within the instance's
subtree, robots returning to the instance root are *parked* (turned
inactive), while the robots still exploring deeper subtrees stay active
until their subtree is fully explored (by Claim 5 each unfinished subtree
rooted below depth ``d`` hosts exactly one such robot).

``BFDN_1(k, k, d)`` is an anchor-based algorithm with ``c1(k) d^2``-shallow
efficiency, ``c1(k) = min(log Delta, log k) + 2``; it is the base case the
divide-depth functor recurses on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set

from ...sim.engine import (
    STAY,
    UP,
    Exploration,
    ExplorationAlgorithm,
    Move,
    down,
    explore,
)
from ...trees.partial import RevealEvent
from .anchor_based import AnchorBasedInstance

_AT_ROOT = "at_root"
_BF = "bf"
_DN = "dn"
_PARKED = "parked"


class BFDN1Instance(AnchorBasedInstance):
    """A depth-limited BFDN running on the subtree ``T(root)``.

    Robots positioned at ``root`` start in the re-anchoring state; robots
    already inside the subtree (in Parallel DFS Positions, see Appendix B)
    continue with depth-next moves and drift back to ``root`` on their own.
    """

    def __init__(
        self,
        expl: Exploration,
        root: int,
        robots: Sequence[int],
        k_star: int,
        depth_limit: int,
    ):
        super().__init__(root, robots, k_star, depth_limit)
        ptree = expl.ptree
        self._modes: Dict[int, str] = {}
        self._anchors: Dict[int, int] = {}
        self._stacks: Dict[int, List[int]] = {}
        self._loads: Dict[int, int] = {}
        for i in robots:
            pos = expl.positions[i]
            if pos == root:
                self._modes[i] = _AT_ROOT
            else:
                self._modes[i] = _DN
            self._anchors[i] = root
            self._stacks[i] = []
        self._loads[root] = len(self.robots)
        #: Robots parked so far; a robot parks once and stays parked.
        self._parked = 0

        # Per-instance open-node tracking, absolute depths.
        self._in_subtree: Set[int] = set()
        self._open_by_depth: Dict[int, Set[int]] = {}
        self._min_depth = ptree.node_depth(root)
        stack = [root]
        while stack:
            u = stack.pop()
            self._in_subtree.add(u)
            if ptree.is_open(u):
                self._open_by_depth.setdefault(ptree.node_depth(u), set()).add(u)
            stack.extend(ptree.explored_children(u))

    # ------------------------------------------------------------------
    def _eligible_depth(self) -> Optional[int]:
        """Minimum depth of an open node in the subtree, when it does not
        exceed the depth limit (the restricted ``U`` of Section 5)."""
        d = self._min_depth
        while d <= self.depth_limit:
            if self._open_by_depth.get(d):
                self._min_depth = d
                return d
            d += 1
        self._min_depth = d
        return None

    # ------------------------------------------------------------------
    def route_events(self, expl: Exploration, events: Sequence[RevealEvent]) -> None:
        ptree = expl.ptree
        for ev in events:
            if ev.by_robot not in self.robot_set:
                continue
            self._in_subtree.add(ev.child)
            if ev.child_open:
                self._open_by_depth.setdefault(
                    ptree.node_depth(ev.child), set()
                ).add(ev.child)
            if ev.node_closed:
                bucket = self._open_by_depth.get(ptree.node_depth(ev.node))
                if bucket is not None:
                    bucket.discard(ev.node)

    # ------------------------------------------------------------------
    def select(
        self,
        expl: Exploration,
        moves: Dict[int, Move],
        movable: Set[int],
    ) -> None:
        ptree = expl.ptree
        port_iters: Dict[int, Iterator[int]] = {}
        for i in self.robots:
            if i not in movable:
                continue
            u = expl.positions[i]
            mode = self._modes[i]
            if mode == _PARKED:
                moves[i] = STAY
                continue
            if mode == _DN and u == self.root:
                mode = _AT_ROOT  # excursion over: re-anchor (or park)
            if mode == _AT_ROOT:
                mode = self._reanchor(expl, i)
                if mode == _PARKED:
                    moves[i] = STAY
                    continue
            if mode == _BF:
                stack = self._stacks[i]
                if stack:
                    moves[i] = down(stack.pop())
                    if not stack:
                        self._modes[i] = _DN
                    else:
                        self._modes[i] = _BF
                    continue
                mode = _DN
            # Depth-next move.
            self._modes[i] = _DN
            it = port_iters.get(u)
            if it is None:
                it = iter(sorted(ptree.dangling_ports(u)))
                port_iters[u] = it
            port = next(it, None)
            if port is not None:
                moves[i] = explore(port)
            elif u == self.root:
                moves[i] = STAY  # will re-anchor next round
            else:
                moves[i] = UP

    # ------------------------------------------------------------------
    def _reanchor(self, expl: Exploration, i: int) -> str:
        """Depth-limited ``Reanchor``: park when ``U`` is empty."""
        d = self._eligible_depth()
        old = self._anchors[i]
        if d is None:
            self._loads[old] = self._loads.get(old, 1) - 1
            self._anchors[i] = self.root
            self._loads[self.root] = self._loads.get(self.root, 0) + 1
            self._modes[i] = _PARKED
            self._parked += 1
            return _PARKED
        candidates = self._open_by_depth[d]
        new = min(candidates, key=lambda v: (self._loads.get(v, 0), v))
        self._loads[old] = self._loads.get(old, 1) - 1
        self._loads[new] = self._loads.get(new, 0) + 1
        self._anchors[i] = new
        expl.metrics.log_reanchor(expl.round, i, new, expl.ptree.node_depth(new))
        if new == self.root:
            self._stacks[i] = []
            self._modes[i] = _DN
            return _DN
        path = expl.ptree.path_from_root(new)
        root_idx = path.index(self.root)
        self._stacks[i] = list(reversed(path[root_idx + 1 :]))
        self._modes[i] = _BF
        return _BF

    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self.robots) - self._parked

    def anchor_claims(self, expl: Exploration) -> List[int]:
        ptree = expl.ptree
        claims: Set[int] = set()
        for i in self.robots:
            if self._modes[i] == _PARKED:
                continue
            u = expl.positions[i]
            depth = ptree.node_depth(u)
            if depth < self.depth_limit:
                continue
            while depth > self.depth_limit:
                u = ptree.parent(u)
                depth -= 1
            if not ptree.is_finished(u):
                claims.add(u)
        return sorted(claims)

    def is_running_deep(self) -> bool:
        """All dangling edges of the subtree are below the depth limit."""
        return self._eligible_depth() is None


class DepthLimitedBFDN(ExplorationAlgorithm):
    """Top-level wrapper running a single ``BFDN_1(k, k, d)`` instance on
    the whole tree (used directly in tests and ablation benches).

    With ``depth_limit >= D`` this behaves exactly like :class:`~repro.core.bfdn.BFDN`;
    with a smaller limit it explores everything reachable while only
    anchoring down to the limit (deep subtrees are finished by their lone
    resident robot, per Claim 5).
    """

    name = "BFDN1"

    def __init__(self, depth_limit: int):
        self.depth_limit = depth_limit
        self._instance: Optional[BFDN1Instance] = None

    def attach(self, expl: Exploration) -> None:
        self._instance = BFDN1Instance(
            expl, expl.tree.root, range(expl.k), expl.k, self.depth_limit
        )

    def select_moves(self, expl: Exploration, movable: Set[int]) -> Dict[int, Move]:
        assert self._instance is not None
        moves: Dict[int, Move] = {}
        self._instance.select(expl, moves, movable)
        return moves

    def observe(self, expl: Exploration, events: Sequence[RevealEvent]) -> None:
        assert self._instance is not None
        self._instance.route_events(expl, events)

    @property
    def instance(self) -> BFDN1Instance:
        """The underlying instance (tests inspect its activity/claims)."""
        assert self._instance is not None
        return self._instance
