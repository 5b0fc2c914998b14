"""Undirected graph substrate for non-tree exploration (Section 4.3).

Graphs carry an *origin* node (where the robots start) and every node
exposes numbered ports to its incident edges.  The paper's Proposition 9
assumes robots always know their distance to the origin in the underlying
graph; :class:`Graph` provides that oracle via a BFS from the origin.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple


class Graph:
    """An undirected graph with an origin and port-numbered adjacency.

    Parameters
    ----------
    n:
        Number of nodes (ids ``0 .. n-1``).
    edges:
        Iterable of undirected edges ``(u, v)``; parallel edges and
        self-loops are rejected.
    origin:
        The robots' starting node (default 0).
    """

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]], origin: int = 0):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= origin < n:
            raise ValueError("origin out of range")
        self.n = n
        self.origin = origin
        self._adj: List[List[int]] = [[] for _ in range(n)]
        self._edge_ids: Dict[Tuple[int, int], int] = {}
        self._edges: List[Tuple[int, int]] = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in self._edge_ids:
                raise ValueError(f"parallel edge {key}")
            self._edge_ids[key] = len(self._edges)
            self._edges.append(key)
            self._adj[u].append(v)
            self._adj[v].append(u)

        # Distance-to-origin oracle (BFS).
        self._dist = [-1] * n
        self._dist[origin] = 0
        queue = deque([origin])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if self._dist[v] < 0:
                    self._dist[v] = self._dist[u] + 1
                    queue.append(v)
        if any(d < 0 for d in self._dist):
            raise ValueError("graph is not connected")
        # A graph never changes after construction, so its radius and
        # maximum degree are fixed here rather than rescanned per access
        # (graph-BFDN reads the radius every time a robot re-anchors).
        self._radius = max(self._dist)
        self._max_degree = max(len(a) for a in self._adj)

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of edges — the ``n`` of Proposition 9's bound."""
        return len(self._edges)

    @property
    def radius(self) -> int:
        """Maximum distance from the origin — Proposition 9's ``D``."""
        return self._radius

    @property
    def max_degree(self) -> int:
        """Maximum node degree (``Delta``)."""
        return self._max_degree

    def degree(self, v: int) -> int:
        """Number of ports at ``v``."""
        return len(self._adj[v])

    def port_to(self, v: int, port: int) -> int:
        """Neighbour behind port ``port`` of ``v``."""
        return self._adj[v][port]

    def port_of(self, v: int, u: int) -> int:
        """Port number at ``v`` of the edge to neighbour ``u``."""
        return self._adj[v].index(u)

    def distance_to_origin(self, v: int) -> int:
        """The oracle of Proposition 9: graph distance from ``v`` to the
        origin."""
        return self._dist[v]

    def edge_id(self, u: int, v: int) -> int:
        """Canonical id of the edge ``{u, v}``."""
        return self._edge_ids[(min(u, v), max(u, v))]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges as canonical pairs."""
        return iter(self._edges)

    def neighbours(self, v: int) -> Sequence[int]:
        """Neighbours of ``v`` in port order."""
        return self._adj[v]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(n={self.n}, m={self.num_edges}, radius={self.radius}, "
            f"origin={self.origin})"
        )
