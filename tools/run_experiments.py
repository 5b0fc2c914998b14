"""Run the full experiment registry and archive the results.

Experiments are fanned over the orchestrator's resilient worker pool
(`repro.orchestrator.run_tasks`): each experiment runs in a pool worker
process under an optional per-experiment timeout with bounded retries,
so one hanging or crashing experiment is reported as failed without
aborting the archive run.

Writes, under ``results/`` (or ``--outdir``):

* one ``E<i>.txt`` per experiment report,
* ``summary.csv`` with a one-row status per experiment,
* ``figure1_k20.svg`` and ``figure1_k40.svg``.

    python tools/run_experiments.py [--outdir results] [--jobs 4]
                                    [--timeout 300] [--retries 1]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import EXPERIMENTS, run_experiment, save_rows
from repro.analysis.experiments import ExperimentContext
from repro.bounds import compute_region_map
from repro.orchestrator import ProgressTracker, ResultStore, run_tasks
from repro.viz import region_map_svg


def _run_one(exp_id: str) -> str:
    """Worker: produce one experiment report (picklable top-level fn).

    Workers are separate processes, so the scenario cache location
    travels via ``REPRO_CACHE_DIR`` (set by ``main`` before the fork);
    the store's append-only log tolerates concurrent single-line
    appends from sibling workers.
    """
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    ctx = ExperimentContext(
        store=ResultStore(cache_dir) if cache_dir else None
    )
    return run_experiment(exp_id, ctx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", default="results")
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (0/1 = inline, no pool)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-experiment timeout in seconds (needs --jobs >= 2)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="additional attempts for a failed experiment",
    )
    parser.add_argument(
        "--cache-dir", default=None, dest="cache_dir",
        help="scenario result cache (default <outdir>/cache); re-running "
        "the archive serves unchanged experiments from the cache",
    )
    parser.add_argument(
        "--no-cache", action="store_true", dest="no_cache",
        help="bypass the scenario result cache entirely",
    )
    args = parser.parse_args(argv)

    os.makedirs(args.outdir, exist_ok=True)
    if args.no_cache:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        cache_dir = args.cache_dir or os.path.join(args.outdir, "cache")
        os.environ["REPRO_CACHE_DIR"] = cache_dir
    exp_ids = sorted(EXPERIMENTS, key=lambda s: int(s[1:]))
    tracker = ProgressTracker()
    outcomes = run_tasks(
        exp_ids,
        _run_one,
        labels=exp_ids,
        max_workers=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        tracker=tracker,
    )

    rows = []
    failures = 0
    for exp_id, outcome in zip(exp_ids, outcomes):
        if outcome.ok:
            report, status = outcome.result, "ok"
        else:
            report, status = f"FAILED: {outcome.error}", "failed"
            failures += 1
        path = os.path.join(args.outdir, f"{exp_id}.txt")
        with open(path, "w") as f:
            f.write(report + "\n")
        rows.append(
            {
                "experiment": exp_id,
                "status": status,
                "seconds": round(outcome.elapsed, 2),
                "attempts": outcome.attempts,
            }
        )
        print(f"{exp_id}: {status} ({outcome.elapsed:.1f}s) -> {path}")
    print(tracker.summary())

    save_rows(rows, os.path.join(args.outdir, "summary.csv"))
    for log2_k in (20, 40):
        region_map = compute_region_map(
            1 << log2_k,
            resolution=40,
            log2_n_max=6.5 * log2_k,
            log2_d_max=5.0 * log2_k,
        )
        path = os.path.join(args.outdir, f"figure1_k{log2_k}.svg")
        with open(path, "w") as f:
            f.write(region_map_svg(region_map))
        print(f"wrote {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
