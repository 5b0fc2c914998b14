"""Unit tests for tree serialisation and networkx interop."""

import networkx as nx
import pytest

from repro.trees import generators as gen
from repro.trees.serialization import (
    tree_from_dict,
    tree_from_networkx,
    tree_to_dict,
    tree_to_networkx,
)
from repro.trees.validation import check_tree_invariants


class TestDictRoundTrip:
    def test_roundtrip(self, tree_case):
        _, t = tree_case
        data = tree_to_dict(t)
        rebuilt = tree_from_dict(data)
        assert rebuilt == t

    def test_dict_fields(self):
        t = gen.comb(4, 2)
        d = tree_to_dict(t)
        assert d["n"] == t.n
        assert d["depth"] == t.depth
        assert d["max_degree"] == t.max_degree
        assert len(d["parents"]) == t.n

    def test_json_serialisable(self):
        import json

        t = gen.spider(3, 4)
        blob = json.dumps(tree_to_dict(t))
        assert tree_from_dict(json.loads(blob)) == t


class TestNetworkx:
    def test_to_networkx_structure(self):
        t = gen.complete_ary(2, 3)
        g = tree_to_networkx(t)
        assert g.number_of_nodes() == t.n
        assert g.number_of_edges() == t.n - 1
        assert g.graph["root"] == 0
        assert g.nodes[0]["depth"] == 0
        assert nx.is_tree(g.to_undirected())

    def test_roundtrip_preserves_shape(self, tree_case):
        _, t = tree_case
        g = tree_to_networkx(t)
        rebuilt = tree_from_networkx(g, root=0)
        assert rebuilt.n == t.n
        assert rebuilt.depth == t.depth
        assert sorted(rebuilt.node_depth(v) for v in range(rebuilt.n)) == sorted(
            t.node_depth(v) for v in range(t.n)
        )

    def test_from_networkx_relabels(self):
        g = nx.Graph()
        g.add_edges_from([("a", "b"), ("b", "c")])
        t = tree_from_networkx(g, root="a")
        assert t.n == 3
        assert t.depth == 2
        check_tree_invariants(t)

    def test_from_networkx_rejects_cycle(self):
        g = nx.cycle_graph(4)
        with pytest.raises(ValueError):
            tree_from_networkx(g, root=0)

    def test_from_networkx_rejects_empty(self):
        with pytest.raises(ValueError):
            tree_from_networkx(nx.Graph(), root=0)

    def test_from_networkx_rejects_missing_root(self):
        g = nx.Graph()
        g.add_edges_from([("a", "b"), ("b", "c")])
        with pytest.raises(ValueError, match="root 0 is not a node"):
            tree_from_networkx(g)
