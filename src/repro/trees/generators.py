"""Synthetic tree families used by the tests and the benchmark harness.

The paper proves worst-case guarantees over *all* trees with ``n`` nodes
and depth ``D``; the families below span the regimes of Figure 1 (shallow
and bushy, deep and thin, and everything in between) plus the classical
worst cases of the collaborative-exploration literature.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from .tree import Tree

__all__ = [
    "path",
    "star",
    "complete_ary",
    "caterpillar",
    "spider",
    "broom",
    "comb",
    "binomial_tree",
    "galton_watson",
    "dumbbell",
    "random_recursive",
    "random_bounded_degree",
    "random_tree_with_depth",
    "lopsided",
]


def path(n: int) -> Tree:
    """A path with ``n`` nodes: depth ``n - 1``, the deepest possible tree."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Tree([-1] + list(range(n - 1)))


def star(n: int) -> Tree:
    """A star: the root with ``n - 1`` leaves.  Depth 1, degree ``n - 1``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Tree([-1] + [0] * (n - 1))


def complete_ary(branching: int, depth: int) -> Tree:
    """The complete ``branching``-ary tree of the given depth."""
    if branching < 1 or depth < 0:
        raise ValueError("branching >= 1 and depth >= 0 required")
    parents: List[int] = [-1]
    frontier = [0]
    for _ in range(depth):
        new_frontier = []
        for p in frontier:
            for _ in range(branching):
                parents.append(p)
                new_frontier.append(len(parents) - 1)
        frontier = new_frontier
    return Tree(parents)


def caterpillar(spine: int, legs: int) -> Tree:
    """A path of ``spine`` nodes with ``legs`` leaves hanging off each.

    Caterpillars stress the breadth-first reanchoring: dangling edges are
    spread over all depths simultaneously.
    """
    if spine < 1 or legs < 0:
        raise ValueError("spine >= 1 and legs >= 0 required")
    parents: List[int] = [-1]
    prev = 0
    for i in range(1, spine):
        parents.append(prev)
        prev = len(parents) - 1
    spine_nodes = [0] + list(range(1, spine))
    for s in spine_nodes:
        for _ in range(legs):
            parents.append(s)
    return Tree(parents)


def spider(num_legs: int, leg_length: int) -> Tree:
    """``num_legs`` disjoint paths of ``leg_length`` edges from the root.

    With ``num_legs == k`` this is the canonical instance where the offline
    optimum is exactly ``2 * leg_length`` while naive strategies pay more.
    """
    if num_legs < 0 or leg_length < 0:
        raise ValueError("non-negative parameters required")
    parents: List[int] = [-1]
    for _ in range(num_legs):
        prev = 0
        for _ in range(leg_length):
            parents.append(prev)
            prev = len(parents) - 1
    return Tree(parents)


def broom(handle: int, bristles: int) -> Tree:
    """A path of ``handle`` edges ending in ``bristles`` leaves.

    All the work hides at depth ``handle + 1``; robots must travel deep
    before any parallelism is available.
    """
    if handle < 0 or bristles < 0:
        raise ValueError("non-negative parameters required")
    parents: List[int] = [-1]
    prev = 0
    for _ in range(handle):
        parents.append(prev)
        prev = len(parents) - 1
    for _ in range(bristles):
        parents.append(prev)
    return Tree(parents)


def comb(spine: int, tooth_length: int) -> Tree:
    """A path of ``spine`` nodes with a path of ``tooth_length`` edges at each.

    Combs maximise the number of distinct anchors a robot team must visit
    and are the natural stress test for Lemma 2.
    """
    if spine < 1 or tooth_length < 0:
        raise ValueError("spine >= 1 and tooth_length >= 0 required")
    parents: List[int] = [-1]
    prev_spine = 0
    spine_nodes = [0]
    for _ in range(spine - 1):
        parents.append(prev_spine)
        prev_spine = len(parents) - 1
        spine_nodes.append(prev_spine)
    for s in spine_nodes:
        prev = s
        for _ in range(tooth_length):
            parents.append(prev)
            prev = len(parents) - 1
    return Tree(parents)


def random_recursive(n: int, rng: Optional[random.Random] = None) -> Tree:
    """A uniform random recursive tree: node ``v`` attaches to a uniform
    earlier node.  Expected depth is ``Theta(log n)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng or random.Random(0)
    parents: List[int] = [-1]
    for v in range(1, n):
        parents.append(rng.randrange(v))
    return Tree(parents)


def random_bounded_degree(
    n: int, max_children: int, rng: Optional[random.Random] = None
) -> Tree:
    """A random tree in which every node has at most ``max_children`` children."""
    if n < 1 or max_children < 1:
        raise ValueError("n >= 1 and max_children >= 1 required")
    rng = rng or random.Random(0)
    parents: List[int] = [-1]
    open_slots: List[int] = [0] * max_children  # nodes with spare capacity
    for v in range(1, n):
        idx = rng.randrange(len(open_slots))
        p = open_slots[idx]
        # Swap-remove the used slot.
        open_slots[idx] = open_slots[-1]
        open_slots.pop()
        parents.append(p)
        open_slots.extend([v] * max_children)
    return Tree(parents)


def random_tree_with_depth(
    n: int, depth: int, rng: Optional[random.Random] = None
) -> Tree:
    """A random tree with exactly ``n`` nodes and depth exactly ``depth``.

    A spine of length ``depth`` guarantees the depth; the remaining
    ``n - depth - 1`` nodes attach uniformly at random to nodes of depth
    ``< depth`` so the overall depth is preserved.
    """
    if depth < 0 or n < depth + 1:
        raise ValueError("need n >= depth + 1 and depth >= 0")
    rng = rng or random.Random(0)
    parents: List[int] = [-1]
    node_depth = [0]
    prev = 0
    for _ in range(depth):
        parents.append(prev)
        prev = len(parents) - 1
        node_depth.append(node_depth[parents[prev]] + 1)
    eligible = [v for v in range(len(parents)) if node_depth[v] < depth]
    for _ in range(n - depth - 1):
        p = rng.choice(eligible)
        parents.append(p)
        d = node_depth[p] + 1
        node_depth.append(d)
        if d < depth:
            eligible.append(len(parents) - 1)
    return Tree(parents)


def lopsided(k: int, depth: int) -> Tree:
    """A tree revealing work one subtree at a time.

    ``k`` paths hang from the root, but path ``i`` only branches at its
    bottom, so an online algorithm discovers the bulk of the work late.
    Used as an adversarial-ish workload for reanchoring policies.
    """
    if k < 1 or depth < 2:
        raise ValueError("k >= 1 and depth >= 2 required")
    parents: List[int] = [-1]
    for i in range(k):
        prev = 0
        for _ in range(depth - 1):
            parents.append(prev)
            prev = len(parents) - 1
        for _ in range(i + 1):
            parents.append(prev)
    return Tree(parents)


def binomial_tree(order: int) -> Tree:
    """The binomial tree ``B_order``: ``2^order`` nodes, depth ``order``.

    The root of ``B_j`` has children that are roots of ``B_{j-1} .. B_0``
    — a classic shape with geometrically unbalanced sibling subtrees,
    stressing load-aware re-anchoring.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    parents: List[int] = [-1]

    def grow(node: int, j: int) -> None:
        for sub in range(j - 1, -1, -1):
            parents.append(node)
            grow(len(parents) - 1, sub)

    grow(0, order)
    return Tree(parents)


def galton_watson(
    n: int, branching_probs: Sequence[float], rng: Optional[random.Random] = None
) -> Tree:
    """A Galton-Watson tree conditioned to have exactly ``n`` nodes.

    ``branching_probs[c]`` is the (unnormalised) weight of having ``c``
    children; growth proceeds frontier-first and is truncated/extended to
    hit ``n`` exactly, so the result is a natural "random branching
    process" shape rather than a uniform attachment one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not branching_probs or all(w <= 0 for w in branching_probs):
        raise ValueError("branching_probs needs a positive weight")
    rng = rng or random.Random(0)
    weights = list(branching_probs)
    choices = list(range(len(weights)))
    parents: List[int] = [-1]
    frontier = [0]
    while len(parents) < n:
        if not frontier:
            # The process died out early: revive at a uniform leaf.
            frontier.append(rng.randrange(len(parents)))
        node = frontier.pop(rng.randrange(len(frontier)))
        kids = rng.choices(choices, weights=weights)[0]
        for _ in range(kids):
            if len(parents) >= n:
                break
            parents.append(node)
            frontier.append(len(parents) - 1)
    return Tree(parents)


def dumbbell(head: int, handle: int, tail: int) -> Tree:
    """Two bushy blobs joined by a long path.

    A ``head``-leaf star at the root, a path of ``handle`` edges, then a
    ``tail``-leaf star at the bottom: work at two widely separated depths,
    forcing the team to redeploy across the handle mid-exploration.
    """
    if head < 0 or handle < 1 or tail < 0:
        raise ValueError("head, tail >= 0 and handle >= 1 required")
    parents: List[int] = [-1]
    for _ in range(head):
        parents.append(0)
    prev = 0
    for _ in range(handle):
        parents.append(prev)
        prev = len(parents) - 1
    for _ in range(tail):
        parents.append(prev)
    return Tree(parents)


def standard_families(k: int, size: str = "small") -> Sequence[tuple]:
    """A labelled collection of benchmark trees, scaled by ``size``.

    Returns ``(label, tree)`` pairs spanning shallow/bushy, deep/thin and
    mixed regimes.  ``k`` is used to scale instances that depend on the
    number of robots.
    """
    scale = {"small": 1, "medium": 4, "large": 16}[size]
    rng = random.Random(12345)
    return [
        ("path", path(64 * scale)),
        ("star", star(64 * scale)),
        ("binary", complete_ary(2, 5 + (scale > 1) * 2)),
        ("ternary", complete_ary(3, 4 + (scale > 1))),
        ("caterpillar", caterpillar(16 * scale, 4)),
        ("spider", spider(k, 16 * scale)),
        ("broom", broom(16 * scale, 8 * k)),
        ("comb", comb(16 * scale, 8)),
        ("random-recursive", random_recursive(128 * scale, rng)),
        ("random-deg3", random_bounded_degree(128 * scale, 3, rng)),
        ("random-depth", random_tree_with_depth(128 * scale, 24 * scale, rng)),
        ("lopsided", lopsided(k, 12 * scale)),
        ("binomial", binomial_tree(6 + (scale > 1))),
        ("galton-watson", galton_watson(96 * scale, [1, 2, 1], rng)),
        ("dumbbell", dumbbell(8 * scale, 12 * scale, 8 * scale)),
    ]
