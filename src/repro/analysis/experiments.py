"""Programmatic experiment registry.

One callable per experiment of DESIGN.md's index (E1..E15), each
returning a printable report.  The pytest benchmarks in ``benchmarks/``
remain the canonical, asserting versions; this registry powers
``python -m repro experiment <id>`` and ``examples/reproduce_all.py`` for
quick interactive reproduction.

Every simulation-backed experiment enumerates
:class:`~repro.scenario.ScenarioSpec` values and routes them through
:func:`~repro.orchestrator.run_jobspecs`, so the full suite is
resumable: run with an :class:`ExperimentContext` carrying a
:class:`~repro.orchestrator.store.ResultStore` and a re-run serves every
row from the content-addressed cache.  E1 (the Figure 1 region chart)
and E11 (the allocation switch bound) are pure analytical computations
with no simulation to cache and run inline.

``REPRO_EXPERIMENT_SCALE=tiny`` shrinks every experiment's instances for
smoke runs (CI uses this); the default scale reproduces the paper-sized
instances.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .. import registry
from ..bounds import (
    bfdn_ell_bound,
    compute_region_map,
    lemma2_bound,
    render_ascii,
)
from ..game import game_value, run_allocation
from ..orchestrator import TreeSpec, run_jobspecs
from ..orchestrator.events import ProgressTracker
from ..orchestrator.store import ResultStore
from ..scenario import ScenarioSpec
from ..trees import generators as gen
from .report import render_table
from .sweep import record_from_row, run_sweep_cached


def _default_scale() -> str:
    """Experiment scale from ``REPRO_EXPERIMENT_SCALE`` (full or tiny)."""
    scale = os.environ.get("REPRO_EXPERIMENT_SCALE", "full")
    if scale not in ("full", "tiny"):
        raise ValueError(
            f"REPRO_EXPERIMENT_SCALE must be 'full' or 'tiny', got {scale!r}"
        )
    return scale


@dataclass
class ExperimentContext:
    """Shared run context for the experiment registry.

    ``store`` enables the content-addressed cache (``None`` runs
    everything fresh, which keeps direct test invocations hermetic);
    ``tracker`` aggregates hit/miss/failure counts across all the
    experiments run under this context; ``scale`` picks paper-sized
    (``full``) or smoke-sized (``tiny``) instances.
    """

    store: Optional[ResultStore] = None
    tracker: ProgressTracker = field(default_factory=ProgressTracker)
    scale: str = field(default_factory=_default_scale)
    max_workers: int = 0
    timeout: Optional[float] = None
    #: A :class:`repro.obs.TelemetryConfig` to stream every experiment
    #: batch into one JSONL trace (``None`` = no telemetry).
    telemetry: object = None

    def pick(self, full, tiny):
        """``full`` or ``tiny`` depending on the context's scale."""
        return tiny if self.scale == "tiny" else full

    def run(self, specs: Sequence[ScenarioSpec]) -> List[Dict[str, object]]:
        """Run specs through the cached orchestrator path, in order."""
        outcomes = run_jobspecs(
            specs,
            store=self.store,
            tracker=self.tracker,
            max_workers=self.max_workers,
            timeout=self.timeout,
            telemetry=self.telemetry,
        )
        failures = [outcome for outcome in outcomes if not outcome.ok]
        if failures:
            first = failures[0]
            raise RuntimeError(
                f"{len(failures)} scenario(s) failed, e.g. "
                f"{first.spec.label or first.spec.fingerprint()}: {first.error}"
            )
        return [outcome.row for outcome in outcomes]


def _tree_spec(
    ctx: ExperimentContext,
    algorithm: str,
    tree,
    k: int,
    label: str,
    **kwargs,
) -> ScenarioSpec:
    """A tree-kind spec over a concrete tree (cached via parent array)."""
    return ScenarioSpec(
        kind=kwargs.pop("kind", "tree"),
        algorithm=algorithm,
        substrate=TreeSpec.from_tree(tree),
        k=k,
        label=label,
        **kwargs,
    )


def e1_figure1(ctx: ExperimentContext) -> str:
    """Figure 1 region chart (k = 2^20)."""
    # Pure analytical computation (no simulation): nothing to cache.
    resolution = ctx.pick(36, 12)
    region_map = compute_region_map(
        1 << 20, resolution=resolution, log2_n_max=110, log2_d_max=70
    )
    return render_ascii(region_map) + f"\n\ncells won: {region_map.counts()}"


def e2_theorem1(ctx: ExperimentContext) -> str:
    """Theorem 1: measured rounds vs bound across families."""
    families = gen.standard_families(k=8, size="small")
    families = ctx.pick(families, families[:4])
    specs = [
        _tree_spec(ctx, "bfdn", tree, k, label, compute_bounds=True)
        for label, tree in families
        for k in (2, 8)
    ]
    records = [record_from_row(row) for row in ctx.run(specs)]
    ok = all(r.rounds <= r.bfdn_bound for r in records)
    return render_table([r.as_row() for r in records]) + f"\n\nbound holds: {ok}"


def e3_urn_game(ctx: ExperimentContext) -> str:
    """Theorem 3: simulated vs DP vs bound."""
    from ..bounds import theorem3_bound

    team_sizes = ctx.pick((4, 8, 16, 32, 64), (4, 8))
    specs = [
        ScenarioSpec(
            kind="game",
            algorithm="urn-game",
            substrate=TreeSpec.named(registry.GAME_FAMILY, k),
            k=k,
            policy="balanced",
            adversary="greedy",
            label=f"urns-k{k}",
        )
        for k in team_sizes
    ]
    rows = []
    for row in ctx.run(specs):
        k = int(row["n"])
        rows.append(
            {"k": k, "simulated": row["rounds"], "DP": game_value(k, k),
             "bound": round(theorem3_bound(k), 1)}
        )
    return render_table(rows)


def e4_lemma2(ctx: ExperimentContext) -> str:
    """Lemma 2: per-depth re-anchor counts."""
    k = 8
    trees = [
        ("caterpillar", gen.caterpillar(*ctx.pick((30, 5), (10, 3)))),
        ("comb", gen.comb(*ctx.pick((20, 8), (8, 4)))),
    ]
    specs = [_tree_spec(ctx, "bfdn", tree, k, label) for label, tree in trees]
    rows = []
    for row in ctx.run(specs):
        rows.append(
            {"tree": row["label"],
             "max/depth": row["max_interior_reanchors"],
             "bound": round(lemma2_bound(k, int(row["max_degree"])), 1)}
        )
    return render_table(rows)


def e5_writeread(ctx: ExperimentContext) -> str:
    """Proposition 6: write-read vs centralized BFDN."""
    from ..bounds import bfdn_bound

    k = 4
    families = gen.standard_families(k=k, size="small")[: ctx.pick(8, 4)]
    specs = [
        _tree_spec(ctx, algorithm, tree, k, label)
        for label, tree in families
        for algorithm in ("bfdn", "bfdn-wr")
    ]
    results = ctx.run(specs)
    rows = []
    for central, wr in zip(results[::2], results[1::2]):
        rows.append(
            {"tree": central["label"],
             "central": central["rounds"],
             "write-read": wr["rounds"],
             "bound": round(
                 bfdn_bound(
                     int(central["n"]), int(central["depth"]), k,
                     int(central["max_degree"]),
                 ), 1,
             )}
        )
    return render_table(rows)


def e6_breakdowns(ctx: ExperimentContext) -> str:
    """Proposition 7: A(M) at completion vs bound."""
    k = 8
    tree = gen.random_recursive(ctx.pick(400, 80))
    specs = [
        _tree_spec(
            ctx, "bfdn", tree, k, f"breakdowns-p{p}",
            adversary="random-breakdowns",
            adversary_params={"p": p, "horizon_per_n": 200, "seed": 1},
        )
        for p in (0.25, 0.5, 0.75)
    ]
    rows = []
    for p, row in zip((0.25, 0.5, 0.75), ctx.run(specs)):
        rows.append(
            {"p": p, "wall": row["wall_rounds"],
             "A(M)": round(float(row["average_allowed"]), 1),
             "bound": round(float(row["adversarial_bound"]), 1)}
        )
    return render_table(rows)


def e7_graphs(ctx: ExperimentContext) -> str:
    """Proposition 9: grids with obstacles."""
    # obstacle-grid resolves n=256 to the 16x16 grid with n//32 = 8
    # obstacles used by the benchmarks.
    nodes = ctx.pick(256, 64)
    specs = [
        ScenarioSpec(
            kind="graph",
            algorithm="graph-bfdn",
            substrate=TreeSpec.named("obstacle-grid", nodes, seed=3),
            k=k,
            label=f"grid-k{k}",
            compute_bounds=True,
        )
        for k in (2, 4, 8)
    ]
    rows = []
    for row in ctx.run(specs):
        rows.append(
            {"k": row["k"], "rounds": row["rounds"],
             "bound": round(float(row["bfdn_bound"]), 1),
             "closed": row["closed_edges"]}
        )
    return render_table(rows)


def e8_bfdn_ell(ctx: ExperimentContext) -> str:
    """Theorem 10: depth sweep, BFDN vs BFDN_ell."""
    from ..bounds import bfdn_bound

    k = 16
    n = ctx.pick(2_048, 256)
    depths = ctx.pick((16, 128, 512), (8, 32))
    specs = [
        _tree_spec(
            ctx, algorithm, gen.random_tree_with_depth(n, depth), k,
            f"depth-{depth}",
        )
        for depth in depths
        for algorithm in ("bfdn", "bfdn-ell2")
    ]
    results = ctx.run(specs)
    rows = []
    for depth, (plain, ell) in zip(depths, zip(results[::2], results[1::2])):
        rows.append(
            {"D": depth,
             "BFDN": plain["rounds"],
             "BFDN_l2": ell["rounds"],
             "thm1": round(bfdn_bound(n, depth, k)),
             "thm10(l2)": round(bfdn_ell_bound(n, depth, k, 2))}
        )
    return render_table(rows)


def e9_comparison(ctx: ExperimentContext) -> str:
    """Competitive overhead: BFDN vs CTE vs offline."""
    families = gen.standard_families(k=8, size="small")[: ctx.pick(8, 4)]
    run = run_sweep_cached(
        ["bfdn", "cte"],
        families,
        (8,),
        store=ctx.store,
        tracker=ctx.tracker,
        max_workers=ctx.max_workers,
        timeout=ctx.timeout,
    )
    return render_table([r.as_row() for r in run.records])


def e10_cte_traps(ctx: ExperimentContext) -> str:
    """CTE on fixed trap trees (honest constant-factor residue)."""
    from ..trees.adversarial import cte_trap_tree

    k = 16
    configs = ctx.pick(((8, 16), (32, 4)), ((2, 4), (4, 2)))
    specs = [
        _tree_spec(
            ctx, algorithm, cte_trap_tree(k, gadgets, trap), k,
            f"trap-g{gadgets}-t{trap}", compute_bounds=True,
        )
        for gadgets, trap in configs
        for algorithm in ("cte", "bfdn")
    ]
    results = ctx.run(specs)
    rows = []
    for (gadgets, trap), (cte, bfdn) in zip(
        configs, zip(results[::2], results[1::2])
    ):
        rows.append(
            {"gadgets": gadgets, "trap": trap,
             "CTE": cte["rounds"], "BFDN": bfdn["rounds"],
             "lower": cte["lower_bound"]}
        )
    return render_table(rows)


def e11_allocation(ctx: ExperimentContext) -> str:
    """Resource allocation switch bound."""
    # Pure analytical computation (no simulation): nothing to cache.
    rng = random.Random(0)
    rows = []
    for k in ctx.pick((8, 32), (4, 8)):
        work = [rng.randrange(1, 200) for _ in range(k)]
        res = run_allocation(work)
        rows.append(
            {"k": k, "switches": res.switches, "bound": round(res.bound, 1),
             "rounds": res.rounds, "ideal": round(res.ideal_rounds, 1)}
        )
    return render_table(rows)


def e12_ablation(ctx: ExperimentContext) -> str:
    """Reanchor policy ablation on the stress tree."""
    from ..trees.adversarial import reanchor_stress_tree

    k = 8
    tree = reanchor_stress_tree(k, ctx.pick(12, 4))
    specs = [
        _tree_spec(ctx, "bfdn", tree, k, policy, policy=policy)
        for policy in registry.REANCHOR_POLICIES
    ]
    rows = [
        {"policy": row["policy"], "rounds": row["rounds"]}
        for row in ctx.run(specs)
    ]
    return render_table(rows)


def e13_reactive(ctx: ExperimentContext) -> str:
    """Remark 8: reactive adversaries."""
    tree = gen.random_recursive(ctx.pick(300, 80))
    budgets = (0, 1, 3)
    specs = [
        _tree_spec(
            ctx, "bfdn", tree, 8, f"reactive-b{budget}", kind="reactive",
            adversary="block-explorers",
            adversary_params={"budget": budget, "horizon_per_n": 30},
        )
        for budget in budgets
    ]
    rows = []
    for budget, row in zip(budgets, ctx.run(specs)):
        rows.append(
            {"budget": budget, "wall": row["wall_rounds"],
             "interference": round(float(row["interference"]), 2)}
        )
    note = ("\nnote: with budget >= concurrent explorers the reactive adversary"
            "\ndenies discovery outright — Prop 7's bound does not carry over.")
    return render_table(rows) + note


def e14_shortcut(ctx: ExperimentContext) -> str:
    """Shortcut re-anchoring ablation: the cost of root returns."""
    k = 8
    trees = [
        ("caterpillar", gen.caterpillar(*ctx.pick((30, 5), (10, 3)))),
        ("deep-random",
         gen.random_tree_with_depth(*ctx.pick((600, 60), (120, 16)))),
    ]
    specs = [
        _tree_spec(ctx, algorithm, tree, k, label)
        for label, tree in trees
        for algorithm in ("bfdn", "bfdn-shortcut")
    ]
    results = ctx.run(specs)
    rows = []
    for (label, _), (standard, shortcut) in zip(
        trees, zip(results[::2], results[1::2])
    ):
        rows.append(
            {"tree": label, "BFDN": standard["rounds"],
             "shortcut": shortcut["rounds"],
             "speedup": round(
                 int(standard["rounds"]) / max(int(shortcut["rounds"]), 1), 2
             )}
        )
    return render_table(rows)


def e15_logk_question(ctx: ExperimentContext) -> str:
    """Open question probe: overhead growth in k at fixed (n, D)."""
    from ..trees.adversarial import reanchor_stress_tree

    tree = reanchor_stress_tree(32, ctx.pick(12, 4))
    team_sizes = (2, 8, 32)
    specs = [
        _tree_spec(ctx, "bfdn", tree, k, f"stress-k{k}") for k in team_sizes
    ]
    rows = []
    for k, row in zip(team_sizes, ctx.run(specs)):
        overhead = int(row["rounds"]) - 2 * int(row["n"]) / k
        budget = int(row["depth"]) ** 2 * (math.log(k) + 3)
        rows.append({"k": k, "overhead": round(overhead, 1),
                     "budget": round(budget, 1)})
    return render_table(rows)


EXPERIMENTS: Dict[str, Callable[[ExperimentContext], str]] = {
    "E1": e1_figure1,
    "E2": e2_theorem1,
    "E3": e3_urn_game,
    "E4": e4_lemma2,
    "E5": e5_writeread,
    "E6": e6_breakdowns,
    "E7": e7_graphs,
    "E8": e8_bfdn_ell,
    "E9": e9_comparison,
    "E10": e10_cte_traps,
    "E11": e11_allocation,
    "E12": e12_ablation,
    "E13": e13_reactive,
    "E14": e14_shortcut,
    "E15": e15_logk_question,
}


def run_experiment(exp_id: str, ctx: Optional[ExperimentContext] = None) -> str:
    """Run one experiment by id and return its report.

    Without a context the experiment runs uncached at full scale; pass
    an :class:`ExperimentContext` with a store to serve repeat runs from
    the orchestrator cache (``python -m repro experiment`` does).
    """
    key = exp_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {', '.join(EXPERIMENTS)}"
        )
    func = EXPERIMENTS[key]
    header = f"== {key}: {func.__doc__.strip()} =="  # type: ignore[union-attr]
    return header + "\n" + func(ctx if ctx is not None else ExperimentContext())
