"""Collaborative exploration of non-tree graphs (Section 4.3).

BFDN runs on a graph after one modification: a robot that traverses a
dangling edge *backtracks and closes* the edge when it leads (1) to an
already-explored node, or (2) to a node that is not strictly farther from
the origin than the edge's first endpoint (the robot knows its distance to
the origin — Proposition 9's oracle).  In case (2) the reached node is not
considered explored.  Edges never closed form a breadth-first tree of
depth ``D`` (the graph's radius), which BFDN explores as usual, while each
closed edge costs at most two extra traversals.  Two robots traversing the
same dangling edge from both endpoints in one round "swap identities":
both stay put and the edge closes at the cost of a single round.

Proposition 9: exploration of a graph with ``n`` edges, radius ``D`` and
maximum degree ``Delta`` completes within
``2n/k + D^2 (min(log Delta, log k) + 3)`` rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..sim.runloop import (
    Policy,
    RoundEngine,
    RoundObserver,
    RoundState,
    graph_round_cap,
)
from .graph import Graph

# Move kinds for the graph engine.
G_STAY = ("stay",)
G_GOTO = "goto"  # ("goto", neighbour) along a known (tree) edge
G_EXPLORE = "explore"  # ("explore", port) through a dangling edge
G_BACKTRACK = ("backtrack",)  # return along the edge taken last round

_UNKNOWN, _TREE, _CLOSED = 0, 1, 2


class GraphExploration:
    """Shared state of a collaborative graph exploration run."""

    def __init__(self, graph: Graph, k: int):
        if k < 1:
            raise ValueError("at least one robot required")
        self.graph = graph
        self.k = k
        self.positions = [graph.origin] * k
        self.round = 0
        self.explored: Set[int] = {graph.origin}
        self.parent: Dict[int, int] = {graph.origin: -1}
        self.edge_state = [_UNKNOWN] * graph.num_edges
        #: Untried ports per explored node (the graph analogue of dangling).
        self.open_ports: Dict[int, Set[int]] = {
            graph.origin: set(range(graph.degree(graph.origin)))
        }
        #: For robots that must backtrack: the node to return to.
        self.pending_backtrack: List[Optional[int]] = [None] * k
        self.open_by_depth: Dict[int, Set[int]] = {}
        self._min_open_depth = 0
        if self.open_ports[graph.origin]:
            self.open_by_depth[0] = {graph.origin}
        self.closed_edges = 0
        self.tree_edges = 0
        #: Non-stay moves executed, an identity swap's two included.
        self.total_moves = 0

    # ------------------------------------------------------------------
    def depth(self, v: int) -> int:
        """Distance-to-origin oracle (only queried for reached nodes)."""
        return self.graph.distance_to_origin(v)

    def is_complete(self) -> bool:
        """Every edge is either a tree edge or closed."""
        return self.tree_edges + self.closed_edges == self.graph.num_edges

    def min_open_depth(self) -> Optional[int]:
        d = self._min_open_depth
        while d <= self.graph.radius:
            bucket = self.open_by_depth.get(d)
            if bucket:
                self._min_open_depth = d
                return d
            d += 1
        return None

    def path_from_origin(self, v: int) -> List[int]:
        path = []
        while v != -1:
            path.append(v)
            v = self.parent[v]
        path.reverse()
        return path

    # ------------------------------------------------------------------
    def _remove_open_port(self, v: int, port: int) -> None:
        ports = self.open_ports.get(v)
        if ports is None:
            return
        ports.discard(port)
        if not ports:
            bucket = self.open_by_depth.get(self.depth(v))
            if bucket is not None:
                bucket.discard(v)

    def _close_edge(self, u: int, w: int) -> None:
        eid = self.graph.edge_id(u, w)
        if self.edge_state[eid] == _CLOSED:
            return
        self.edge_state[eid] = _CLOSED
        self.closed_edges += 1
        if u in self.explored:
            self._remove_open_port(u, self.graph.port_of(u, w))
        if w in self.explored:
            self._remove_open_port(w, self.graph.port_of(w, u))

    def _explore_node(self, w: int, parent: int) -> None:
        eid = self.graph.edge_id(parent, w)
        self.edge_state[eid] = _TREE
        self.tree_edges += 1
        self._remove_open_port(parent, self.graph.port_of(parent, w))
        self.explored.add(w)
        self.parent[w] = parent
        ports = {
            j
            for j, nb in enumerate(self.graph.neighbours(w))
            if self.edge_state[self.graph.edge_id(w, nb)] == _UNKNOWN
        }
        self.open_ports[w] = ports
        if ports:
            self.open_by_depth.setdefault(self.depth(w), set()).add(w)

    # ------------------------------------------------------------------
    def apply(self, moves: Dict[int, Tuple]) -> None:
        """Execute one synchronous round."""
        graph = self.graph
        new_positions = list(self.positions)
        explores: List[Tuple[int, int, int]] = []  # (robot, u, port)
        moved = 0

        for i, move in moves.items():
            u = self.positions[i]
            kind = move[0]
            if kind == "stay":
                continue
            if kind == "backtrack":
                target = self.pending_backtrack[i]
                if target is None:
                    raise ValueError(f"robot {i} has no pending backtrack")
                new_positions[i] = target
                self.pending_backtrack[i] = None
                moved += 1
            elif kind == "goto":
                target = move[1]
                eid = graph.edge_id(u, target)
                if self.edge_state[eid] != _TREE:
                    raise ValueError(f"robot {i}: {u}->{target} is not a tree edge")
                new_positions[i] = target
                moved += 1
            elif kind == "explore":
                port = move[1]
                if port not in self.open_ports.get(u, ()):
                    raise ValueError(f"robot {i}: port {port} of {u} is not open")
                explores.append((i, u, port))
                moved += 1
            else:
                raise ValueError(f"robot {i}: unknown move {move!r}")

        # Identity swaps: the same edge taken from both endpoints at once.
        by_edge: Dict[int, List[Tuple[int, int, int]]] = {}
        for entry in explores:
            _, u, port = entry
            eid = graph.edge_id(u, graph.port_to(u, port))
            by_edge.setdefault(eid, []).append(entry)
        for eid, entries in by_edge.items():
            if len(entries) == 2 and entries[0][1] != entries[1][1]:
                # Both robots stay (swap); the edge closes at cost 1 round.
                u, w = entries[0][1], entries[1][1]
                self._close_edge(u, w)
            elif len(entries) > 1:
                robots = [e[0] for e in entries]
                raise ValueError(f"robots {robots} selected the same dangling edge")
            else:
                i, u, port = entries[0]
                w = graph.port_to(u, port)
                if w in self.explored or self.depth(w) <= self.depth(u):
                    # Backtrack-and-close (rules (1) and (2)); in case (2)
                    # the reached node is *not* considered explored.
                    self._close_edge(u, w)
                    new_positions[i] = w
                    self.pending_backtrack[i] = u
                else:
                    self._explore_node(w, u)
                    new_positions[i] = w

        if moved:
            self.round += 1
            self.total_moves += moved
        self.positions = new_positions


class GraphBFDN:
    """BFDN with the backtrack-and-close modification (Proposition 9)."""

    name = "BFDN-graph"

    def __init__(self, expl: GraphExploration):
        self.expl = expl
        k = expl.k
        origin = expl.graph.origin
        self._anchors = [origin] * k
        self._stacks: List[List[int]] = [[] for _ in range(k)]
        self._loads: Dict[int, int] = {origin: k}

    # ------------------------------------------------------------------
    def select_moves(self) -> Dict[int, Tuple]:
        expl = self.expl
        origin = expl.graph.origin
        moves: Dict[int, Tuple] = {}
        port_iters: Dict[int, Iterator[int]] = {}
        for i in range(expl.k):
            if expl.pending_backtrack[i] is not None:
                moves[i] = G_BACKTRACK
                continue
            u = expl.positions[i]
            if u == origin and not self._stacks[i]:
                self._reanchor(i)
            if self._stacks[i]:
                moves[i] = ("goto", self._stacks[i].pop())
                continue
            it = port_iters.get(u)
            if it is None:
                it = iter(sorted(expl.open_ports.get(u, ())))
                port_iters[u] = it
            port = next(it, None)
            if port is not None:
                moves[i] = ("explore", port)
            elif u != origin:
                moves[i] = ("goto", expl.parent[u])
            else:
                moves[i] = G_STAY
        return moves

    def _reanchor(self, i: int) -> None:
        expl = self.expl
        d = expl.min_open_depth()
        if d is None:
            new = expl.graph.origin
        else:
            new = min(
                expl.open_by_depth[d], key=lambda v: (self._loads.get(v, 0), v)
            )
        old = self._anchors[i]
        if new != old:
            self._loads[old] -= 1
            self._loads[new] = self._loads.get(new, 0) + 1
            self._anchors[i] = new
        if d is not None:
            path = expl.path_from_origin(new)
            self._stacks[i] = list(reversed(path[1:]))


class GraphRoundState(RoundState):
    """Adapts a :class:`GraphExploration` to the runloop protocol."""

    def __init__(self, expl: GraphExploration):
        self.expl = expl
        self._team = frozenset(range(expl.k))

    def apply(self, moves, movable):
        """Execute one synchronous round (the graph engine has no
        break-down mask, so ``movable`` is ignored)."""
        return self.expl.apply(moves)

    def billed_rounds(self) -> int:
        """Rounds in which at least one robot moved."""
        return self.expl.round

    def is_complete(self) -> bool:
        """Every edge is either a tree edge or closed."""
        return self.expl.is_complete()

    def progress_token(self):
        """Positions plus settled-edge count: an identity swap closes an
        edge without moving anyone, so edge progress counts too.

        The position list is shared, not copied: ``apply`` binds a fresh
        list every round and never mutates the old one.
        """
        return (
            self.expl.positions,
            self.expl.tree_edges + self.expl.closed_edges,
        )

    def team(self):
        """All ``k`` robots."""
        return self._team

    def executed_moves(self) -> int:
        """Non-stay moves executed so far."""
        return self.expl.total_moves


class GraphPolicy(Policy):
    """Adapts a :class:`GraphBFDN` strategy to the runloop protocol."""

    name = "BFDN-graph"

    def __init__(self, algo: "GraphBFDN"):
        self.algo = algo

    def select_moves(self, state: GraphRoundState, movable) -> Dict[int, Tuple]:
        """Delegate this round's move selection to the strategy."""
        return self.algo.select_moves()


@dataclass
class GraphExplorationResult:
    """Outcome of a graph exploration run."""

    rounds: int
    complete: bool
    all_home: bool
    num_edges: int
    radius: int
    closed_edges: int
    tree_edges: int


def proposition9_bound(num_edges: int, radius: int, k: int, delta: int) -> float:
    """``2n/k + D^2 (min(log Delta, log k) + 3)`` with ``n`` = #edges and
    ``D`` = the radius."""
    lk = math.log(k) if k > 1 else 0.0
    ld = math.log(delta) if delta > 1 else 0.0
    term = min(lk, ld) if k > 1 and delta > 1 else 0.0
    return 2 * num_edges / k + radius * radius * (term + 3)


def run_graph_bfdn(
    graph: Graph,
    k: int,
    max_rounds: Optional[int] = None,
    observers: Sequence[RoundObserver] = (),
) -> GraphExplorationResult:
    """Run graph-BFDN to termination (everything traversed, robots home).

    The loop is the shared :class:`~repro.sim.runloop.RoundEngine`; the
    progress token folds in the settled-edge count because an identity
    swap closes an edge without changing any position.  ``observers``
    are per-round engine hooks (timing, tracing, early stops).
    """
    expl = GraphExploration(graph, k)
    algo = GraphBFDN(expl)
    cap = (
        max_rounds
        if max_rounds is not None
        else graph_round_cap(graph.num_edges, graph.radius, k)
    )
    engine = RoundEngine(
        state=GraphRoundState(expl),
        policy=GraphPolicy(algo),
        observers=observers,
        billed_cap=cap,
        cap_message=lambda billed, wall: (
            f"graph BFDN exceeded {cap} rounds "
            f"(billed={billed}, wall={wall}) on "
            f"graph(m={graph.num_edges}, radius={graph.radius}), k={k}"
        ),
    )
    engine.run()
    origin = graph.origin
    return GraphExplorationResult(
        rounds=expl.round,
        complete=expl.is_complete(),
        all_home=all(p == origin for p in expl.positions),
        num_edges=graph.num_edges,
        radius=graph.radius,
        closed_edges=expl.closed_edges,
        tree_edges=expl.tree_edges,
    )
