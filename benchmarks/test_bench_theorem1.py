"""E2 — Theorem 1: measured BFDN runtime vs 2n/k + D^2 (min(log D, log k)+3).

Sweeps every synthetic tree family over team sizes and reports, per run,
the measured rounds, the Theorem 1 bound, the additive overhead T - 2n/k
and the offline lower bound.  The claim's shape: the bound always holds
and the overhead stays O(D^2 log k) — in particular it does not scale
with n at fixed D.
"""


from repro.analysis import render_table, run_sweep_cached
from repro.bounds import bfdn_bound
from repro.core import BFDN
from repro.sim import Simulator
from repro.trees import generators as gen

TEAM_SIZES = (2, 4, 8, 16)


def sweep():
    run = run_sweep_cached(
        ["bfdn"],
        gen.standard_families(k=8, size="medium"),
        TEAM_SIZES,
    )
    assert not run.failures, run.failures[0].error
    return run.records


def test_bench_theorem1_sweep(benchmark):
    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table([r.as_row() for r in records]))
    for rec in records:
        assert rec.complete and rec.all_home
        assert rec.rounds <= rec.bfdn_bound, rec.as_row()


def test_bench_overhead_independent_of_n():
    """Fix D, grow n: the additive overhead T - 2n/k must stay bounded by
    D^2 (log k + 3) while T itself grows linearly."""
    k = 8
    rows = []
    for legs in (4, 16, 64, 256):
        tree = gen.caterpillar(24, legs)  # depth fixed at 24
        res = Simulator(tree, BFDN(), k).run()
        overhead = res.rounds - 2 * tree.n / k
        rows.append(
            {
                "n": tree.n,
                "D": tree.depth,
                "rounds": res.rounds,
                "2n/k": round(2 * tree.n / k, 1),
                "overhead": round(overhead, 1),
            }
        )
    print()
    print(render_table(rows))
    overheads = [row["overhead"] for row in rows]
    cap = bfdn_bound(0, 24, k) + 1  # pure D^2 term
    assert all(o <= cap for o in overheads)
    # n grew 40x; the overhead must not have grown with it.
    assert overheads[-1] <= 4 * max(overheads[0], 24.0)


def test_bench_single_large_run(benchmark):
    tree = gen.random_tree_with_depth(20_000, 60)
    result = benchmark(lambda: Simulator(tree, BFDN(), 16).run())
    assert result.done
    assert result.rounds <= bfdn_bound(tree.n, tree.depth, 16, tree.max_degree)
    print(
        f"\nn={tree.n} D={tree.depth} k=16: rounds={result.rounds} "
        f"bound={bfdn_bound(tree.n, tree.depth, 16, tree.max_degree):.0f} "
        f"2n/k={2 * tree.n / 16:.0f}"
    )
