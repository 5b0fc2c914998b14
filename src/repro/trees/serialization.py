"""Serialisation and interoperability for trees.

Provides a plain-dict round trip (for fixtures and traces) and conversion
to/from ``networkx`` graphs for users who want to bring their own trees.
The two networkx helpers import it on first call; nothing else in the
package needs it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from .tree import Tree, tree_from_edges

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["tree_to_dict", "tree_from_dict", "tree_to_networkx", "tree_from_networkx"]


def tree_to_dict(tree: Tree) -> Dict[str, Any]:
    """A JSON-ready description of the tree."""
    return {
        "n": tree.n,
        "parents": [tree.parent(v) for v in range(tree.n)],
        "depth": tree.depth,
        "max_degree": tree.max_degree,
    }


def tree_from_dict(data: Dict[str, Any]) -> Tree:
    """Inverse of :func:`tree_to_dict` (extra keys are ignored)."""
    parents: List[int] = list(data["parents"])
    return Tree(parents)


def tree_to_networkx(tree: Tree) -> "nx.DiGraph":
    """The tree as a ``networkx`` digraph with parent->child arcs.

    Node attributes carry ``depth``; the graph attribute ``root`` names the
    root node.
    """
    import networkx as nx

    g = nx.DiGraph(root=tree.root)
    for v in tree.nodes():
        g.add_node(v, depth=tree.node_depth(v))
    for p, c in tree.edges():
        g.add_edge(p, c)
    return g


def tree_from_networkx(graph: "nx.Graph", root: int = 0) -> Tree:
    """Build a :class:`Tree` from any networkx tree.

    Nodes are relabelled to ``0 .. n-1`` in BFS order from ``root`` so the
    result always satisfies the package's node-id conventions.  Raises
    :class:`ValueError` when the graph is empty, is not a tree, or does
    not contain ``root``.
    """
    import networkx as nx

    if graph.number_of_nodes() == 0:
        raise ValueError("graph is empty")
    if root not in graph:
        raise ValueError(f"root {root!r} is not a node of the graph")
    undirected = graph.to_undirected() if graph.is_directed() else graph
    if not nx.is_tree(undirected):
        raise ValueError("graph is not a tree")
    relabel = {root: 0}
    order = [root]
    for u, v in nx.bfs_edges(undirected, root):
        relabel[v] = len(relabel)
        order.append(v)
    edges = [(relabel[u], relabel[v]) for u, v in undirected.edges()]
    return tree_from_edges(edges, n=len(relabel))
