"""An end-to-end expedition: plan, explore, analyse, and render.

Combines the high-level pieces of the library into one narrative run:

1. characterise the (unknown-to-the-robots) terrain,
2. let the mission planner pick the algorithm from Figure 1,
3. explore while sampling the per-round time series,
4. print the ASCII working-depth/progress chart, and
5. write SVG snapshots of the start, middle and end states.

    python examples/expedition_report.py [n] [k] [outdir]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import line_plot
from repro.mission import plan_mission
from repro.sim import RoundObserver, Simulator, TimeSeriesObserver
from repro.trees import generators as gen, tree_stats
from repro.viz import tree_svg


class SnapshotObserver(RoundObserver):
    """Renders an SVG the first time exploration passes each milestone."""

    MILESTONES = (("start", 0.1), ("middle", 0.5), ("end", 1.0))

    def __init__(self, title: str):
        self.title = title
        self.snapshots = {}

    def on_round(self, state, record) -> None:
        expl = state.expl
        progress = expl.ptree.num_explored / expl.tree.n
        for tag, threshold in self.MILESTONES:
            if tag not in self.snapshots and progress >= threshold:
                self.snapshots[tag] = tree_svg(
                    expl.ptree, expl.positions,
                    title=f"{self.title}, {progress:.0%} explored",
                )


def main(n: int = 400, k: int = 6, outdir: str = "out") -> None:
    tree = gen.galton_watson(n, [1, 2, 1])
    stats = tree_stats(tree)
    print(f"Terrain: n={stats.n}, D={stats.depth}, max degree {stats.max_degree}, "
          f"{stats.num_leaves} leaves, widest level {stats.max_width}")

    plan = plan_mission(tree.n, tree.depth, k)
    print(f"Plan: {plan.algorithm_name} — {plan.rationale}")

    os.makedirs(outdir, exist_ok=True)
    sampler = TimeSeriesObserver()
    snapshots = SnapshotObserver(plan.algorithm_name)
    result = Simulator(
        tree, plan.build(), k,
        allow_shared_reveal=plan.algorithm_name == "CTE",
        observers=[sampler, snapshots],
    ).run()

    series = sampler.series
    print(f"\nExplored in {result.rounds} rounds "
          f"(working-depth monotone: {series.working_depth_is_monotone()}, "
          f"avg {series.exploration_rate():.2f} nodes/round)\n")
    rounds = series.column("round")
    print(line_plot(
        rounds,
        {
            "explored": series.column("explored"),
            "frontier depth": [
                d if d is not None else stats.depth
                for d in series.column("working_depth")
            ],
        },
        width=64, height=12,
        title="exploration progress (nodes explored vs frontier depth)",
    ))

    for tag, svg in snapshots.snapshots.items():
        path = os.path.join(outdir, f"expedition_{tag}.svg")
        with open(path, "w") as f:
            f.write(svg)
        print(f"wrote {path}")


if __name__ == "__main__":
    args = sys.argv[1:]
    main(
        int(args[0]) if len(args) > 0 else 400,
        int(args[1]) if len(args) > 1 else 6,
        args[2] if len(args) > 2 else "out",
    )
