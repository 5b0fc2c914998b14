"""Rooted tree substrate.

The exploration model of the paper works on rooted trees whose nodes expose
*ports*: at every node distinct from the root, port ``0`` leads to the
parent and ports ``1 .. deg-1`` lead to the children; at the root, all ports
lead to children.  This numbering is the one assumed by the write-read
communication model (Section 4.1 of the paper) and we use it everywhere for
consistency.

Nodes are integers ``0 .. n-1`` and the root is always node ``0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TreeArrays:
    """Flat-array view of a tree's topology (the array fast path's substrate).

    Children are stored CSR-style: the children of ``v`` are
    ``child_list[child_ptr[v]:child_ptr[v + 1]]``, in port order (the
    ``j``-th entry is behind port ``j + 1`` for ``v != root`` and port
    ``j`` at the root).  ``parent``/``depth``/``num_children`` are
    indexed by node id.  Instances are built once per :class:`Tree` and
    cached — the view is shared (zero-copy) across repeated runs on the
    same tree.
    """

    n: int
    parent: Sequence[int]
    depth: Sequence[int]
    num_children: Sequence[int]
    child_ptr: Sequence[int]
    child_list: Sequence[int]


class Tree:
    """An immutable rooted tree.

    Parameters
    ----------
    parents:
        ``parents[v]`` is the parent of node ``v`` for ``v >= 1``;
        ``parents[0]`` must be ``-1`` (or ``None``) and denotes the root.

    The constructor validates the parent array (single root, acyclic,
    connected) and precomputes depths, children lists and port tables.
    """

    __slots__ = (
        "_parents",
        "_children",
        "_depth",
        "_order",
        "n",
        "depth",
        "max_degree",
        "_ports",
        "_port_of_parent",
        "_arrays",
    )

    def __init__(self, parents: Sequence[Optional[int]]):
        n = len(parents)
        if n == 0:
            raise ValueError("a tree must have at least one node (the root)")
        root_marker = parents[0]
        if root_marker not in (-1, None):
            raise ValueError("node 0 must be the root (parents[0] in (-1, None))")

        self.n = n
        self._parents: List[int] = [-1] * n
        self._children: List[List[int]] = [[] for _ in range(n)]
        for v in range(1, n):
            p = parents[v]
            if p is None or not (0 <= p < n) or p == v:
                raise ValueError(f"invalid parent {p!r} for node {v}")
            self._parents[v] = p
            self._children[p].append(v)

        # Compute depths iteratively in topological (BFS from root) order;
        # this also validates connectivity / acyclicity.
        self._depth = [-1] * n
        self._depth[0] = 0
        order = [0]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for c in self._children[u]:
                self._depth[c] = self._depth[u] + 1
                order.append(c)
        if len(order) != n:
            raise ValueError("parent array does not describe a connected tree")
        self._order = order  # BFS order, root first

        self.depth = max(self._depth)
        self.max_degree = max(self.degree(v) for v in range(n))

        # Port tables.  ports[v][j] is the neighbour reached from v via
        # port j.  For v != root, ports[v][0] == parent(v).  The reverse
        # table is built by the first port_of() call.
        self._ports: List[List[int]] = [list(self._children[0])]
        for v in range(1, n):
            self._ports.append([self._parents[v]] + self._children[v])
        self._port_of_parent: Optional[List[Dict[int, int]]] = None

        self._arrays: Optional[TreeArrays] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> int:
        """The root node (always ``0``)."""
        return 0

    def parent(self, v: int) -> int:
        """Parent of ``v``; ``-1`` for the root."""
        return self._parents[v]

    def children(self, v: int) -> Sequence[int]:
        """Children of ``v`` in port order."""
        return self._children[v]

    def node_depth(self, v: int) -> int:
        """Distance ``delta(v)`` from ``v`` to the root."""
        return self._depth[v]

    def degree(self, v: int) -> int:
        """Number of edges incident to ``v``."""
        return len(self._children[v]) + (0 if v == 0 else 1)

    def num_edges(self) -> int:
        """Number of edges, ``n - 1``."""
        return self.n - 1

    def nodes(self) -> Iterator[int]:
        """All nodes, in id order."""
        return iter(range(self.n))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges as ``(parent, child)`` pairs."""
        return ((self._parents[v], v) for v in range(1, self.n))

    def bfs_order(self) -> Sequence[int]:
        """Nodes in breadth-first order from the root."""
        return self._order

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    def port_to(self, v: int, j: int) -> int:
        """Neighbour reached from ``v`` through port ``j``."""
        return self._ports[v][j]

    def port_of(self, v: int, u: int) -> int:
        """Port number at ``v`` of the edge leading to neighbour ``u``."""
        table = self._port_of_parent
        if table is None:
            table = self._port_of_parent = [
                {w: j for j, w in enumerate(neighbours)}
                for neighbours in self._ports
            ]
        return table[v][u]

    def ports(self, v: int) -> Sequence[int]:
        """Neighbours of ``v`` indexed by port number."""
        return self._ports[v]

    # ------------------------------------------------------------------
    # Array view
    # ------------------------------------------------------------------
    def as_arrays(self) -> TreeArrays:
        """The flat CSR view of the topology, built once and cached.

        Repeated calls return the same :class:`TreeArrays` instance, so
        repeated runs on one tree (benchmark repeats, sweeps over ``k``)
        share the buffers instead of rebuilding them.
        """
        arrays = self._arrays
        if arrays is not None:
            return arrays
        n = self.n
        num_children = [len(self._children[v]) for v in range(n)]
        child_ptr = [0] * (n + 1)
        for v in range(n):
            child_ptr[v + 1] = child_ptr[v] + num_children[v]
        child_list: List[int] = []
        for v in range(n):
            child_list.extend(self._children[v])
        arrays = TreeArrays(
            n=n,
            parent=self._parents,
            depth=self._depth,
            num_children=num_children,
            child_ptr=child_ptr,
            child_list=child_list,
        )
        self._arrays = arrays
        return arrays

    # ------------------------------------------------------------------
    # Paths and ancestry
    # ------------------------------------------------------------------
    def path_to_root(self, v: int) -> List[int]:
        """Nodes on the path ``v -> root``, inclusive on both ends."""
        path = [v]
        while v != 0:
            v = self._parents[v]
            path.append(v)
        return path

    def path_from_root(self, v: int) -> List[int]:
        """Nodes on the path ``root -> v``, inclusive on both ends."""
        path = self.path_to_root(v)
        path.reverse()
        return path

    def is_ancestor(self, a: int, v: int) -> bool:
        """True when ``a`` is an ancestor of ``v`` (or ``a == v``)."""
        da = self._depth[a]
        while self._depth[v] > da:
            v = self._parents[v]
        return v == a

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v``."""
        while self._depth[u] > self._depth[v]:
            u = self._parents[u]
        while self._depth[v] > self._depth[u]:
            v = self._parents[v]
        while u != v:
            u = self._parents[u]
            v = self._parents[v]
        return u

    def distance(self, u: int, v: int) -> int:
        """Number of edges on the (unique) path between ``u`` and ``v``."""
        w = self.lca(u, v)
        return self._depth[u] + self._depth[v] - 2 * self._depth[w]

    def subtree_nodes(self, v: int) -> List[int]:
        """All nodes of the subtree ``T(v)`` (``v`` included), DFS order."""
        out = []
        stack = [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(reversed(self._children[u]))
        return out

    def subtree_size(self, v: int) -> int:
        """Number of nodes of ``T(v)``."""
        return len(self.subtree_nodes(v))

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def euler_tour(self) -> List[int]:
        """The depth-first (Euler) tour of the tree.

        Returns the list of nodes visited by a single-robot DFS that starts
        and ends at the root; it has ``2(n-1) + 1`` entries and traverses
        every edge exactly twice.
        """
        tour = [0]
        stack: List[Tuple[int, int]] = [(0, 0)]  # (node, next child index)
        while stack:
            v, i = stack[-1]
            if i < len(self._children[v]):
                stack[-1] = (v, i + 1)
                c = self._children[v][i]
                tour.append(c)
                stack.append((c, 0))
            else:
                stack.pop()
                if stack:
                    tour.append(stack[-1][0])
        return tour

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree(n={self.n}, depth={self.depth}, max_degree={self.max_degree})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tree) and self._parents == other._parents

    def __hash__(self) -> int:
        return hash(tuple(self._parents))


def tree_from_edges(edges: Iterable[Tuple[int, int]], n: Optional[int] = None) -> Tree:
    """Build a :class:`Tree` from an edge list.

    Edges may be given in any orientation; the tree is rooted at node 0 and
    node ids must be ``0 .. n-1``.
    """
    adj: Dict[int, List[int]] = {}
    count = 0
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
        count += 1
    if n is None:
        n = (max(adj) + 1) if adj else 1
    if count != n - 1:
        raise ValueError(f"a tree on {n} nodes needs {n - 1} edges, got {count}")
    parents: List[Optional[int]] = [None] * n
    parents[0] = -1
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if not seen[v]:
                seen[v] = True
                parents[v] = u
                stack.append(v)
    if not all(seen):
        raise ValueError("edge list is not connected")
    return Tree(parents)
