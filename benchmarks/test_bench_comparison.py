"""E9 — Competitive overhead: BFDN vs CTE vs offline across families.

The paper's central positioning claim (Sections 1-2): BFDN's runtime is
2n/k + additive O(D^2 log k), i.e. *optimal in n* with an overhead that
only depends on (D, k), whereas CTE pays a multiplicative n/log k.  The
table reports measured rounds for BFDN, write-read BFDN, CTE, the offline
split schedule and the offline lower bound.  Shape: on bushy trees
(n >> D^2 log k) BFDN's total approaches 2n/k while CTE's stays a
k/log k-ish factor above the lower bound.
"""


from repro.analysis import render_table, run_sweep_cached
from repro.core import BFDN
from repro.sim import Simulator
from repro.trees import generators as gen


def run_table():
    # cte runs with shared reveal, its registry default.
    workloads = gen.standard_families(k=8, size="medium")
    run = run_sweep_cached(["bfdn", "bfdn-wr", "cte"], workloads, team_sizes=(4, 16))
    assert not run.failures, run.failures[0].error
    return run.records


def test_bench_comparison(benchmark):
    records = benchmark.pedantic(run_table, rounds=1, iterations=1)
    print()
    print(render_table([r.as_row() for r in records]))
    by_key = {}
    for rec in records:
        by_key.setdefault((rec.tree_label, rec.k), {})[rec.algorithm] = rec
    for (label, k), algos in by_key.items():
        for rec in algos.values():
            assert rec.complete and rec.all_home, (label, k, rec.algorithm)
        # Nobody beats the offline lower bound.
        for rec in algos.values():
            assert rec.rounds >= rec.lower_bound


def test_bench_bushy_regime_shape():
    """On a bushy tree with n >> D^2 log k, BFDN lands within a small
    factor of the offline lower bound 2n/k."""
    k = 16
    tree = gen.random_tree_with_depth(20_000, 16)
    bfdn = Simulator(tree, BFDN(), k).run()
    lower = 2 * (tree.n - 1) / k
    ratio = bfdn.rounds / lower
    print(f"\nbushy: n={tree.n} D={tree.depth} k={k} "
          f"BFDN={bfdn.rounds} 2n/k={lower:.0f} ratio={ratio:.2f}")
    assert ratio <= 2.0


def test_bench_true_competitive_overhead_small_trees():
    """On trees small enough for the exact offline optimum (NP-hard in
    general; branch-and-bound here), measure BFDN's overhead against the
    *true* OPT rather than the lower bound."""
    import random

    from repro.baselines import exact_offline_optimum

    rng = random.Random(17)
    rows = []
    for idx in range(6):
        tree = gen.random_tree_with_depth(14, rng.randrange(4, 10), rng)
        for k in (2, 3):
            opt = exact_offline_optimum(tree, k).optimum
            bfdn = Simulator(tree, BFDN(), k).run().rounds
            rows.append(
                {
                    "tree": f"rnd-{idx}",
                    "n": tree.n,
                    "D": tree.depth,
                    "k": k,
                    "OPT": opt,
                    "BFDN": bfdn,
                    "BFDN/OPT": round(bfdn / max(opt, 1), 2),
                }
            )
    from repro.analysis import render_table

    print()
    print(render_table(rows))
    for row in rows:
        assert row["BFDN"] >= row["OPT"]
        # The online penalty stays a small factor at this scale.
        assert row["BFDN/OPT"] <= 3.0


def test_bench_overhead_vs_cte_total():
    """BFDN's additive overhead is tiny compared to CTE's total on large
    bushy trees — the regime where BFDN's guarantee dominates Figure 1."""
    from repro.baselines import run_cte

    k = 16
    tree = gen.random_tree_with_depth(20_000, 16)
    bfdn = Simulator(tree, BFDN(), k).run()
    cte = run_cte(tree, k)
    overhead = bfdn.rounds - 2 * tree.n / k
    print(f"\nBFDN overhead={overhead:.0f} CTE total={cte.rounds} BFDN total={bfdn.rounds}")
    assert overhead < cte.rounds
