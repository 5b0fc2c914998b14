"""The partially explored tree (Section 2 of the paper).

During exploration, ``V`` is the set of *explored* nodes (occupied by at
least one robot in the past) and ``E`` the set of *discovered* edges (at
least one explored endpoint).  Discovered edges with exactly one explored
endpoint are *dangling*.  A dangling edge is identified by the pair
``(node, port)`` of its explored endpoint; the hidden endpoint is only
revealed when a robot traverses the edge.

:class:`PartialTree` is shared by every algorithm in this package.  On top
of the raw explored/dangling state it incrementally maintains the two
derived structures the algorithms need:

* *open nodes by depth* — a node is *open* while it has at least one
  dangling edge (the paper's terminology, Section 5); BFDN's ``Reanchor``
  needs the open nodes of minimum depth, and the minimum open depth is
  exactly the paper's "working depth".
* *finished subtrees* — ``T(v)`` is finished when it contains no dangling
  edge; CTE and the recursive construction both branch on this.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple


@dataclass(frozen=True)
class RevealEvent:
    """The outcome of traversing one dangling edge.

    Attributes
    ----------
    node, port:
        The explored endpoint and port of the dangling edge traversed.
    child:
        The newly explored node at the other end.
    child_degree:
        Total number of ports of ``child`` (its first port leads back up).
    node_closed:
        ``node`` has no more dangling edges after this reveal.
    child_open:
        ``child`` itself has dangling edges (it is not a leaf).
    by_robot:
        Index of the robot that performed the traversal (``-1`` when not
        attributable, e.g. during trace replay).
    """

    node: int
    port: int
    child: int
    child_degree: int
    node_closed: bool
    child_open: bool
    by_robot: int = -1

    def __init__(
        self,
        node: int,
        port: int,
        child: int,
        child_degree: int,
        node_closed: bool,
        child_open: bool,
        by_robot: int = -1,
    ):
        # One event per reveal: filling ``__dict__`` in one call costs
        # less than half of the generated frozen ``__init__``'s one
        # ``object.__setattr__`` per field.  Keep in step with the fields.
        self.__dict__.update(
            node=node,
            port=port,
            child=child,
            child_degree=child_degree,
            node_closed=node_closed,
            child_open=child_open,
            by_robot=by_robot,
        )


class PartialTree:
    """Incrementally discovered rooted tree.

    The root is explored from the start; its ``root_degree`` ports are all
    dangling initially, matching the paper's initial condition
    (``V = {root}`` and ``E`` the dangling edges adjacent to the root).
    """

    def __init__(self, root: int, root_degree: int):
        self.root = root
        self._depth: Dict[int, int] = {root: 0}
        self._parent: Dict[int, int] = {root: -1}
        self._dangling: Dict[int, Set[int]] = {root: set(range(root_degree))}
        self._degree: Dict[int, int] = {root: root_degree}
        self._port_child: Dict[Tuple[int, int], int] = {}
        self._child_port: Dict[int, int] = {}
        self._children: Dict[int, List[int]] = {root: []}
        self.num_dangling = root_degree
        self.num_explored = 1

        # Open-node tracking: nodes by depth + a lazy min-heap of depths.
        self._open_by_depth: Dict[int, Set[int]] = {}
        self._depth_heap: List[int] = []
        if root_degree > 0:
            self._set_open(root)

        # Finished-subtree tracking: unfinished_children[v] counts dangling
        # ports of v plus explored children with unfinished subtrees.
        self._unfinished: Dict[int, int] = {root: root_degree}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_explored(self, v: int) -> bool:
        """True when ``v`` has been occupied by some robot."""
        return v in self._depth

    def node_depth(self, v: int) -> int:
        """Distance from ``v`` to the root (defined for explored nodes)."""
        return self._depth[v]

    def parent(self, v: int) -> int:
        """Parent of explored node ``v``; ``-1`` for the root."""
        return self._parent[v]

    def degree(self, v: int) -> int:
        """Number of ports of explored node ``v``."""
        return self._degree[v]

    def dangling_ports(self, v: int) -> Set[int]:
        """The dangling (untraversed) ports at explored node ``v``."""
        return self._dangling[v]

    def is_open(self, v: int) -> bool:
        """A node is open while it has at least one dangling edge."""
        return bool(self._dangling.get(v))

    def explored_children(self, v: int) -> List[int]:
        """Explored children of ``v``, in discovery order."""
        return self._children[v]

    def child_via(self, v: int, port: int) -> Optional[int]:
        """The explored node behind port ``port`` of ``v``, if traversed."""
        return self._port_child.get((v, port))

    def port_of_child(self, v: int, child: int) -> int:
        """Port number at ``v`` of the explored edge to its child ``child``."""
        if self._parent.get(child) != v:
            raise KeyError((v, child))
        return self._child_port[child]

    def explored_nodes(self) -> Iterator[int]:
        """All explored nodes (arbitrary order)."""
        return iter(self._depth)

    def is_complete(self) -> bool:
        """True when the tree contains no dangling edges."""
        return self.num_dangling == 0

    def is_finished(self, v: int) -> bool:
        """True when the explored subtree ``T(v)`` has no dangling edge."""
        return self._unfinished.get(v, 0) == 0

    def path_from_root(self, v: int) -> List[int]:
        """Nodes on ``root -> v`` inclusive, within the explored tree."""
        path = []
        while v != -1:
            path.append(v)
            v = self._parent[v]
        path.reverse()
        return path

    def open_nodes_at(self, depth: int) -> Set[int]:
        """Open nodes of the given depth (a live set; do not mutate)."""
        return self._open_by_depth.get(depth, _EMPTY_SET)

    @property
    def min_open_depth(self) -> Optional[int]:
        """Depth of the shallowest open node (the working depth), or None.

        This is the depth targeted by BFDN's ``Reanchor``: the minimum
        ``delta(v)`` over nodes ``v`` adjacent to a dangling edge.
        """
        while self._depth_heap:
            d = self._depth_heap[0]
            if self._open_by_depth.get(d):
                return d
            heapq.heappop(self._depth_heap)
        return None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def reveal(
        self, node: int, port: int, child: int, child_degree: int, by_robot: int = -1
    ) -> RevealEvent:
        """Traverse the dangling edge ``(node, port)``; ``child`` appears.

        ``child_degree`` is the total number of ports of the new node; its
        port 0 leads back to ``node`` so ``child_degree - 1`` new dangling
        edges are created.
        """
        dangling = self._dangling[node]
        if port not in dangling:
            raise ValueError(f"port {port} of node {node} is not dangling")
        dangling.discard(port)
        self.num_dangling -= 1
        self._port_child[(node, port)] = child
        self._child_port[child] = port
        self._children[node].append(child)

        d = self._depth[node] + 1
        self._depth[child] = d
        self._parent[child] = node
        self._degree[child] = child_degree
        child_ports = set(range(1, child_degree))
        self._dangling[child] = child_ports
        self._children[child] = []
        self.num_dangling += len(child_ports)
        self.num_explored += 1

        node_closed = not dangling
        child_open = bool(child_ports)
        if node_closed:
            self._set_closed(node)
        if child_open:
            self._set_open(child)

        # Finished-subtree maintenance: node loses one dangling port but
        # gains an explored child; the child starts with child_degree - 1
        # unfinished units.
        self._unfinished[child] = len(child_ports)
        if child_open:
            pass  # node's count unchanged: -1 dangling, +1 unfinished child
        else:
            self._decrement_unfinished(node)

        return RevealEvent(
            node, port, child, child_degree, node_closed, child_open, by_robot
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _set_open(self, v: int) -> None:
        d = self._depth[v]
        bucket = self._open_by_depth.get(d)
        if bucket is None:
            bucket = set()
            self._open_by_depth[d] = bucket
        if not bucket:
            heapq.heappush(self._depth_heap, d)
        bucket.add(v)

    def _set_closed(self, v: int) -> None:
        bucket = self._open_by_depth.get(self._depth[v])
        if bucket is not None:
            bucket.discard(v)

    def _decrement_unfinished(self, v: int) -> None:
        while v != -1:
            self._unfinished[v] -= 1
            if self._unfinished[v] > 0:
                break
            v = self._parent[v]


_EMPTY_SET: Set[int] = frozenset()  # type: ignore[assignment]
