"""Seeded scenario generation for every benchmark workload.

Each generator takes the workload seed and returns the
:class:`~repro.scenario.ScenarioSpec` objects the program is given; the
same seed always yields the same specs.  Specs are produced in a fixed
order so the first few of a seed can be pinned (see ``checks.py``).
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.orchestrator.jobspec import TreeSpec
from repro.scenario import ScenarioSpec

#: One explore pass: (kind, algorithm, family, n, k, speed).  Sizes
#: put every entry at roughly 0.05-0.15 s on one core, a pass at about
#: 0.7 s: short passes give a run enough windows to find the host's
#: quiet ones (see ``worker._quiet``).  The count is odd so that the
#: median latency falls inside one entry's spread (bfdn and cte on
#: random trees sit in the middle), not in the gap between two entries.
EXPLORE_MIX = (
    ("tree", "bfdn", "random", 5000, 64, None),
    ("tree", "bfdn", "comb", 750, 64, None),
    ("tree", "cte", "random", 5000, 64, None),
    ("tree", "tree-mining", "random", 2000, 64, None),
    ("tree", "potential-cte", "random", 3000, 64, None),
    ("async-tree", "async-cte", "random", 500, 64, "stochastic"),
    ("graph", "graph-bfdn", "maze", 250, 16, None),
)

#: The maze's exploration cost varies tenfold across generator seeds, so
#: its substrate seed is pinned: one maze of about 0.15 s in every pass.
PINNED_MAZE_SEED = 4

def _spec(kind, algorithm, family, n, k, seed, speed=None, label=""):
    return ScenarioSpec(
        kind=kind,
        algorithm=algorithm,
        substrate=TreeSpec.named(family, n, seed=seed),
        k=k,
        seed=seed,
        speed=speed,
        label=label,
    )


def explore_pass(seed: int, index: int, size=None) -> List[ScenarioSpec]:
    """Pass ``index`` of the explore mix: fresh tree seeds, same shapes.

    ``size`` overrides every substrate size (small warm-up passes).
    """
    rng = random.Random(f"zoo-{seed}-{index}")
    specs = []
    for kind, algorithm, family, n, k, speed in EXPLORE_MIX:
        tree_seed = rng.randrange(1 << 30)
        if family == "maze":
            tree_seed = PINNED_MAZE_SEED
        specs.append(_spec(kind, algorithm, family, size or n, k, tree_seed,
                           speed,
                           label=f"{algorithm}/{family}"))
    return specs


def sweep_jobs(seed: int) -> Iterator[ScenarioSpec]:
    """Endless stream of distinct small tree scenarios (n 200-300)."""
    rng = random.Random(f"sweep-{seed}")
    seen = set()
    while True:
        algorithm = rng.choice(
            ("bfdn", "cte", "tree-mining", "potential-cte", "async-cte")
        )
        family = rng.choice(("random", "comb", "spider", "caterpillar", "star"))
        n = rng.randint(200, 300)
        k = rng.choice((2, 4, 8))
        tree_seed = rng.randrange(1 << 30)
        if algorithm == "async-cte":
            spec = _spec("async-tree", algorithm, family, n, k, tree_seed,
                         "stochastic", label="sweep")
        else:
            spec = _spec("tree", algorithm, family, n, k, tree_seed,
                         label="sweep")
        fingerprint = spec.fingerprint()
        if fingerprint not in seen:
            seen.add(fingerprint)
            yield spec


def small_mixed(rng: random.Random) -> ScenarioSpec:
    """One small scenario of a random kind (tree, graph, game, async-tree)."""
    kind = rng.choices(("tree", "graph", "game", "async-tree"),
                       weights=(5, 2, 1, 2))[0]
    k = rng.choice((2, 4, 8))
    tree_seed = rng.randrange(1 << 30)
    if kind == "tree":
        algorithm = rng.choice(("bfdn", "cte", "potential-cte"))
        family = rng.choice(("random", "comb", "spider"))
        return _spec(kind, algorithm, family, rng.randint(80, 150), k,
                     tree_seed, label="serve-tree")
    if kind == "graph":
        family = rng.choice(("obstacle-grid", "braided"))
        return _spec(kind, "graph-bfdn", family, rng.randint(40, 80), k,
                     tree_seed, label="serve-graph")
    if kind == "game":
        return _spec(kind, "urn-game", "path", rng.randint(16, 64), k,
                     tree_seed, label="serve-game")
    return _spec(kind, "async-cte", "random", rng.randint(80, 150), k,
                 tree_seed, "stochastic", label="serve-async")


def never_seen(rng: random.Random) -> ScenarioSpec:
    """A never-seen serve request: a small random tree of near-fixed cost.

    Fresh executions set the serve tail, so their cost is kept uniform
    (the kind mix is carried by the cache hits).
    """
    algorithm = rng.choice(("bfdn", "potential-cte"))
    return _spec("tree", algorithm, "random", rng.randint(30, 50),
                 rng.choice((2, 4)), rng.randrange(1 << 30), label="serve-fresh")


def serve_hit_set(seed: int, size: int) -> List[ScenarioSpec]:
    """The scenarios the store is pre-filled with before serving."""
    rng = random.Random(f"serve-hits-{seed}")
    return [small_mixed(rng) for _ in range(size)]
