"""Unit tests for the rooted-tree substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.trees import Tree, tree_from_edges
from repro.trees import generators as gen
from repro.trees.validation import check_tree_invariants


class TestConstruction:
    def test_single_node(self):
        t = Tree([-1])
        assert t.n == 1
        assert t.depth == 0
        assert t.max_degree == 0
        assert t.children(0) == []

    def test_none_root_marker(self):
        t = Tree([None, 0])
        assert t.parent(1) == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Tree([])

    def test_rejects_bad_root_marker(self):
        with pytest.raises(ValueError):
            Tree([0, 0])

    def test_rejects_self_parent(self):
        with pytest.raises(ValueError):
            Tree([-1, 1])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(ValueError):
            Tree([-1, 5])

    def test_rejects_forward_cycle(self):
        # 1 -> 2 -> 1 is a cycle detached from the root.
        with pytest.raises(ValueError):
            Tree([-1, 2, 1])

    def test_path_shape(self):
        t = gen.path(5)
        assert t.depth == 4
        assert t.max_degree == 2
        assert [t.parent(v) for v in range(5)] == [-1, 0, 1, 2, 3]


class TestPorts:
    def test_port_zero_is_parent(self, tree_case):
        _, t = tree_case
        for v in range(1, t.n):
            assert t.port_to(v, 0) == t.parent(v)

    def test_port_roundtrip(self, tree_case):
        _, t = tree_case
        for v in range(t.n):
            for j in range(t.degree(v)):
                assert t.port_of(v, t.port_to(v, j)) == j

    def test_root_ports_are_children(self):
        t = gen.star(6)
        assert list(t.ports(0)) == list(t.children(0))

    def test_reverse_port_table_built_on_first_port_of(self):
        import pickle

        t = gen.comb(5, 3)
        assert t._port_of_parent is None
        copy = pickle.loads(pickle.dumps(t))
        assert t.port_of(2, t.port_to(2, 1)) == 1
        assert t._port_of_parent is not None
        for tree in (copy, pickle.loads(pickle.dumps(t))):
            for v in range(tree.n):
                for j in range(tree.degree(v)):
                    assert tree.port_of(v, tree.port_to(v, j)) == j


class TestPathsAndAncestry:
    def test_path_to_root_lengths(self, tree_case):
        _, t = tree_case
        for v in range(t.n):
            path = t.path_to_root(v)
            assert path[0] == v and path[-1] == 0
            assert len(path) == t.node_depth(v) + 1

    def test_path_from_root_reverses(self, tree_case):
        _, t = tree_case
        for v in range(min(t.n, 20)):
            assert t.path_from_root(v) == list(reversed(t.path_to_root(v)))

    def test_lca_of_node_with_itself(self, tree_case):
        _, t = tree_case
        for v in range(min(t.n, 10)):
            assert t.lca(v, v) == v

    def test_lca_with_root(self, tree_case):
        _, t = tree_case
        for v in range(min(t.n, 10)):
            assert t.lca(0, v) == 0

    def test_lca_symmetry(self):
        t = gen.complete_ary(2, 4)
        for u in range(t.n):
            for v in range(u, t.n):
                assert t.lca(u, v) == t.lca(v, u)

    def test_distance_via_lca(self):
        t = gen.complete_ary(3, 3)
        for u in range(0, t.n, 3):
            for v in range(0, t.n, 5):
                path_u = set(t.path_to_root(u))
                w = v
                while w not in path_u:
                    w = t.parent(w)
                expected = (
                    t.node_depth(u) + t.node_depth(v) - 2 * t.node_depth(w)
                )
                assert t.distance(u, v) == expected

    def test_is_ancestor(self):
        t = gen.path(6)
        assert t.is_ancestor(0, 5)
        assert t.is_ancestor(3, 3)
        assert not t.is_ancestor(5, 0)

    def test_subtree_nodes_and_size(self):
        t = gen.complete_ary(2, 3)
        assert t.subtree_size(0) == t.n
        for c in t.children(0):
            assert t.subtree_size(c) == (t.n - 1) // 2
        leaf = next(v for v in range(t.n) if not t.children(v))
        assert t.subtree_nodes(leaf) == [leaf]


class TestEulerTour:
    def test_tour_properties(self, tree_case):
        _, t = tree_case
        tour = t.euler_tour()
        assert len(tour) == 2 * (t.n - 1) + 1
        assert tour[0] == tour[-1] == 0
        # Each step is an edge of the tree.
        for a, b in zip(tour, tour[1:]):
            assert t.parent(a) == b or t.parent(b) == a
        # Every edge appears exactly twice.
        from collections import Counter

        steps = Counter(
            (min(a, b), max(a, b)) for a, b in zip(tour, tour[1:])
        )
        assert all(c == 2 for c in steps.values())
        assert len(steps) == t.n - 1


class TestFromEdges:
    def test_roundtrip(self, tree_case):
        _, t = tree_case
        if t.n == 1:
            return
        rebuilt = tree_from_edges(t.edges(), n=t.n)
        assert rebuilt.n == t.n
        assert {tuple(sorted(e)) for e in rebuilt.edges()} == {
            tuple(sorted(e)) for e in t.edges()
        }

    def test_reversed_orientation(self):
        t = tree_from_edges([(1, 0), (2, 1)])
        assert t.parent(1) == 0
        assert t.parent(2) == 1

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            tree_from_edges([(0, 1), (2, 3)], n=4)

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError):
            tree_from_edges([(0, 1), (1, 2), (2, 0)], n=3)


class TestInvariantChecker:
    def test_all_families_pass(self, tree_case):
        _, t = tree_case
        check_tree_invariants(t)

    def test_equality_and_hash(self):
        a = gen.path(4)
        b = gen.path(4)
        assert a == b and hash(a) == hash(b)
        assert a != gen.star(4)


@given(st.integers(2, 60), st.integers(0, 2**31 - 1))
def test_random_parent_arrays_build_valid_trees(n, seed):
    import random as _random

    rng = _random.Random(seed)
    parents = [-1] + [rng.randrange(v) for v in range(1, n)]
    t = Tree(parents)
    check_tree_invariants(t)
    assert t.n == n
    assert sum(len(t.children(v)) for v in range(n)) == n - 1
