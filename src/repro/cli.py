"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``explore``   run an exploration algorithm on a generated tree
``compare``   sweep several algorithms over the standard tree families
``sweep``     orchestrated (cached, fault-tolerant, resumable) grid sweep
``bench``     run the pinned engine micro-benchmarks / compare snapshots
``tail``      summarise a telemetry trace (rounds/sec, budget margins)
``figure1``   draw the Figure 1 region chart
``game``      play the balls-in-urns game and report Theorem 3's numbers
``serve``     long-running scenario server (HTTP, cached)
``load``      closed-loop load generator against a running server
``demo``      animate BFDN on a small tree, frame by frame

Global flags: ``-v``/``-q`` (repeatable) raise/lower the stdlib logging
level; ``--telemetry DIR`` on ``explore``/``sweep``/``experiment``
streams a structured JSONL event trace (see ``repro tail``).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Optional, Sequence

from . import registry
from .bounds import compute_region_map, render_ascii, theorem3_bound
from .core import BFDN
from .obs import TelemetryConfig, TelemetryJob, configure_logging, run_telemetry_job
from .obs.budget import budgets_for_scenario
from .obs.tail import tail as obs_tail
from .orchestrator import ProgressTracker, ResultStore, TreeSpec
from .orchestrator.signals import INTERRUPT_EXIT_CODE, graceful_shutdown
from .orchestrator.store import DEFAULT_CACHE_DIR
from .registry import (
    ADVERSARIES,
    ALGORITHMS,
    ASYNC_ALGORITHMS,
    ENTRY_POINTS,
    GAME_FAMILY,
    GRAPHS,
    REANCHOR_POLICIES,
    ROUND_OBSERVERS,
    SPEED_SCHEDULES,
    make_tree,
    tree_families,
    workload_kind,
)
from .scenario import ScenarioSpec
from .sim import Simulator, TraceObserver
from .trees import generators as gen

# Subsystems that only one command runs (analysis, game, mission,
# perf.bench, sim.render) are imported inside its handler, so that
# ``repro explore``, ``sweep`` and ``serve`` processes do not load them.

logger = logging.getLogger(__name__)


def _build_observers(spec: str, **context):
    """Parse ``--observe trace,metrics,...`` into round observers.

    Observer names resolve through :func:`repro.registry.
    make_round_observer` — the same single name authority the rest of
    the CLI validates against.  Returns ``(observers, reporters)``: the
    observers to hand the simulator, and zero-argument callbacks that
    print each observer's summary after the run.
    """
    observers, reporters = [], []
    for kind in [s.strip() for s in spec.split(",") if s.strip()]:
        try:
            obs, reporter = registry.make_round_observer(kind, **context)
        except ValueError as exc:
            raise SystemExit(
                f"--observe: {exc}"
            ) from None
        observers.append(obs)
        if reporter is not None:
            reporters.append(reporter)
    return observers, reporters


def _parse_params(items) -> dict:
    """Parse repeated ``KEY=VALUE`` flags into a typed parameter dict."""
    params = {}
    for item in items or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(f"expected KEY=VALUE, got {item!r}")
        value: object = raw
        for cast in (int, float):
            try:
                value = cast(raw)
                break
            except ValueError:
                continue
        params[key] = value
    return params


def _explore_spec(args) -> ScenarioSpec:
    """The scenario described by the ``explore`` flags."""
    kind = "tree"
    if args.adversary is not None:
        # Reactive adversaries switch the scenario to the Remark 8 model.
        kind = ADVERSARIES.get(args.adversary, "tree")
    speed = getattr(args, "speed", None)
    if speed is not None:
        # A speed schedule switches to the asynchronous model; the spec
        # rejects the combination with an adversary.
        kind = "async-tree"
    return ScenarioSpec(
        kind=kind,
        algorithm=args.algorithm,
        substrate=TreeSpec.named(args.tree, args.n),
        k=args.k,
        seed=args.seed,
        policy=args.policy,
        adversary=args.adversary,
        adversary_params=_parse_params(args.adversary_param),
        label=f"{args.tree}-n{args.n}",
        speed=speed,
        speed_params=_parse_params(getattr(args, "speed_param", None)),
    )


def cmd_explore(args) -> int:
    """Run one exploration scenario and print its proven bounds."""
    try:
        spec = _explore_spec(args)
        built = spec.build()
    except ValueError as exc:
        print(f"explore: {exc}")
        return 2
    tree = built.tree
    observers, reporters = _build_observers(
        args.observe or "",
        tree=tree,
        shared_reveal=spec.shared_reveal(),
        scenario=built,
        label=spec.label,
    )
    if args.telemetry:
        config = TelemetryConfig.create(args.telemetry)
        row = run_telemetry_job(
            TelemetryJob(spec=spec, config=config),
            extra_observers=observers,
            built=built,
        )
        print(f"telemetry: trace {config.trace_id} -> {config.path}")
    else:
        row = built.run(observers)
    print(f"tree: n={tree.n} D={tree.depth} max_degree={tree.max_degree}")
    setup = args.algorithm
    if spec.policy:
        setup += f" (policy={spec.policy})"
    if spec.kind == "async-tree":
        setup += f" (speed={spec.resolved_speed()})"
        print(f"{setup} with k={args.k}: {row['rounds']} batches "
              f"(complete={row['complete']}, all home={row['all_home']})")
        print(f"async clock: completion time {row['clock_time']}, "
              f"skew {row['clock_skew']}, "
              f"slowest robot {row['slowest_robot']}")
    else:
        print(f"{setup} with k={args.k}: {row['rounds']} rounds "
              f"(complete={row['complete']}, all home={row['all_home']})")
    if spec.adversary is not None and spec.kind == "tree":
        print(f"adversary {spec.adversary}: wall rounds {row['wall_rounds']}, "
              f"A(M)={row['average_allowed']}, "
              f"Prop 7 bound {row['adversarial_bound']}")
    elif spec.adversary is not None:
        print(f"adversary {spec.adversary}: wall rounds {row['wall_rounds']}, "
              f"blocked {row['blocked_moves']} of "
              f"{int(row['blocked_moves']) + int(row['executed_moves'])} moves "
              f"(interference {row['interference']})")
    budgets = budgets_for_scenario(built)
    for budget in budgets:
        print(f"{budget.source} bound: {budget.limit:.0f} "
              f"({budget.name}: {budget.description})")
    if not budgets and spec.adversary is None:
        print(f"no proven bound applies to {args.algorithm}")
    for report in reporters:
        report()
    return 0 if row["complete"] else 1


def cmd_compare(args) -> int:
    """Sweep the chosen algorithms over the standard families.

    Routes through the orchestrated scenario path (shared-reveal
    defaults come from the registry, e.g. ``cte``); pass ``--cache-dir``
    to make repeat comparisons cache hits.
    """
    from .analysis import render_table, run_sweep_cached

    run = run_sweep_cached(
        args.algorithms,
        gen.standard_families(k=max(args.k), size=args.size),
        team_sizes=args.k,
        store=ResultStore(args.cache_dir) if args.cache_dir else None,
    )
    print(render_table([r.as_row() for r in run.records]))
    return 1 if run.failures else 0


def cmd_sweep(args) -> int:
    """Run an orchestrated ``(family × n × k × seed)`` grid sweep.

    Routes through the orchestrator: results are cached by content in
    ``--cache-dir`` (re-running an identical sweep is pure cache hits,
    an interrupted sweep resumes where it stopped), each job runs under
    a per-job ``--timeout`` with bounded ``--retries``, and one crashing
    or hanging job never aborts the others.
    """
    from .analysis import render_table, run_sweep_cached, save_rows

    store = None
    if args.cache_dir and not args.no_cache:
        store = ResultStore(args.cache_dir)
        if args.resume and store.manifest() is None and len(store) == 0:
            print(
                f"--resume: no cache manifest under {args.cache_dir!r}; "
                "nothing to resume (run once without --resume first)"
            )
            return 2
    elif args.resume:
        print("--resume requires --cache-dir (and not --no-cache)")
        return 2

    # Entry points of different kinds run on different workload families:
    # tree algorithms on tree families, graph-bfdn on graph families,
    # urn-game on the 'urns' pseudo family (n = Delta).  Partition the
    # requested algorithms by kind and sweep each partition through the
    # same cache/tracker.
    tree_names = tree_families()
    families_by_kind = {
        "tree": [f for f in args.trees if f in tree_names],
        "graph": [f for f in args.trees if f in GRAPHS],
        "game": [f for f in args.trees if f == GAME_FAMILY],
    }
    try:
        adversary_params = _parse_params(args.adversary_param)
        speed_params = _parse_params(getattr(args, "speed_param", None))
    except ValueError as exc:
        print(f"sweep: {exc}")
        return 2
    telemetry = None
    if args.telemetry:
        telemetry = TelemetryConfig.create(args.telemetry)
    tracker = ProgressTracker()
    records, failures = [], []
    interrupted = False
    # SIGINT/SIGTERM drain the sweep cooperatively: the pool starts no
    # new jobs, terminates running workers (no orphans), and every
    # result that settled before the signal is already in the cache.
    with graceful_shutdown() as stop:
        for kind in ("tree", "graph", "game"):
            algorithms = [a for a in args.algorithms if workload_kind(a) == kind]
            if not algorithms:
                continue
            families = families_by_kind[kind]
            if not families:
                print(
                    f"skipping {', '.join(algorithms)}: no {kind} workload "
                    "family in --trees"
                )
                continue
            workloads = []
            for family in families:
                for n in args.n:
                    for seed in args.seeds:
                        label = f"{family}-n{n}" + (
                            f"-s{seed}" if len(args.seeds) > 1 else ""
                        )
                        workloads.append((label, TreeSpec.named(family, n, seed)))
            try:
                run = run_sweep_cached(
                    algorithms,
                    workloads,
                    team_sizes=args.k,
                    store=store,
                    max_workers=args.jobs,
                    timeout=args.timeout,
                    retries=args.retries,
                    tracker=tracker,
                    policy=args.policy if kind == "tree" else None,
                    adversary=args.adversary if kind == "tree" else None,
                    adversary_params=adversary_params if kind == "tree" else None,
                    telemetry=telemetry,
                    speed=getattr(args, "speed", None) if kind == "tree" else None,
                    speed_params=speed_params if kind == "tree" else None,
                )
            except ValueError as exc:
                print(f"sweep: {exc}")
                return 2
            records.extend(run.records)
            failures.extend(run.failures)
            if stop.is_set():
                break
        interrupted = stop.is_set()

    rows = [record.as_row() for record in records]
    if rows:
        print(render_table(rows))
    for outcome in failures:
        print(
            f"FAILED {outcome.spec.label} ({outcome.spec.algorithm}, "
            f"k={outcome.spec.k}) after {outcome.attempts} attempt(s): "
            f"{outcome.error}"
        )
    print(tracker.bar())
    print(tracker.summary())
    if telemetry is not None:
        print(f"telemetry: trace {telemetry.trace_id} -> {telemetry.path}")
    if args.out:
        save_rows(rows, args.out)
        print(f"wrote {args.out}")
    if interrupted:
        print(
            "sweep interrupted — partial results are flushed"
            + (" (resume with --resume)" if store is not None else "")
        )
        return INTERRUPT_EXIT_CODE
    if args.min_hit_rate is not None and tracker.hit_rate() < args.min_hit_rate:
        print(
            f"cache hit rate {tracker.hit_rate():.1%} below required "
            f"{args.min_hit_rate:.1%}"
        )
        return 1
    return 1 if failures else 0


def cmd_bench(args) -> int:
    """Run the pinned engine micro-benchmarks, or compare two snapshots.

    ``bench`` runs the suite and writes a ``BENCH_<date>.json`` snapshot;
    ``bench --compare OLD NEW`` is a pure diff (no benchmarks run) that
    exits non-zero when any case regresses beyond ``--threshold``;
    ``bench --profile`` runs the suite once under cProfile and prints the
    top ``--top`` hotspots by cumulative time.
    """
    from .perf import bench as perf_bench

    if args.compare:
        old_path, new_path = args.compare
        try:
            old = perf_bench.load_snapshot(old_path)
            new = perf_bench.load_snapshot(new_path)
        except (OSError, perf_bench.SnapshotError) as exc:
            print(f"bench --compare: {exc}")
            return 2
        lines, regressions = perf_bench.compare_snapshots(
            old, new, threshold=args.threshold
        )
        for line in lines:
            print(line)
        if regressions:
            print(
                f"{len(regressions)} case(s) regressed beyond "
                f"+{args.threshold:.0%}"
            )
            return 1
        print(f"no regressions beyond +{args.threshold:.0%}")
        return 0

    if args.profile:
        try:
            report = perf_bench.profile_suite(
                quick=args.quick, only=args.only, top=args.top
            )
        except ValueError as exc:
            print(f"bench --profile: {exc}")
            return 2
        print(report, end="")
        return 0

    try:
        snapshot = perf_bench.run_suite(
            quick=args.quick,
            repeats=args.repeats,
            only=args.only,
            progress=print,
        )
    except ValueError as exc:
        print(f"bench: {exc}")
        return 2
    for case in snapshot["cases"]:
        fractions = case["phase_fractions"]
        tag = "" if case["backend"] == "reference" else f" [{case['backend']}]"
        print(
            f"{case['name']}{tag}: {case['elapsed']:.4f}s  "
            f"{case['rounds']} rounds  "
            f"{case['rounds_per_sec']:.0f} rounds/s  "
            f"{case['reveals_per_sec']:.0f} reveals/s  "
            f"(select {fractions['select']:.0%} / apply "
            f"{fractions['apply']:.0%} / observe {fractions['observe']:.0%})"
        )
    out = args.out or perf_bench.default_snapshot_path()
    perf_bench.write_snapshot(snapshot, out)
    print(f"wrote {out}")
    return 0


def cmd_figure1(args) -> int:
    """Draw the Figure 1 region chart for the given team size."""
    from .bounds import EXTENDED_ALGORITHMS
    from .bounds import ALGORITHMS as FIGURE1_ALGORITHMS

    region_map = compute_region_map(
        1 << args.log2_k,
        resolution=args.resolution,
        log2_n_max=max(60.0, 6.5 * args.log2_k),
        log2_d_max=max(40.0, 5.0 * args.log2_k),
        contenders=EXTENDED_ALGORITHMS if args.extended else FIGURE1_ALGORITHMS,
    )
    print(render_ascii(region_map))
    print("cells won:", region_map.counts())
    return 0


def cmd_game(args) -> int:
    """Play the urn game and report simulated vs DP vs Theorem 3."""
    from .game import (
        BalancedPlayer,
        GreedyAdversary,
        UrnBoard,
        game_value,
        play_game,
    )

    record = play_game(
        UrnBoard(args.k, args.delta), GreedyAdversary(), BalancedPlayer()
    )
    print(f"k={args.k} Delta={args.delta}:")
    print(f"  simulated (greedy adversary) : {record.steps} steps")
    print(f"  exact DP optimum             : {game_value(args.k, args.delta)}")
    print(f"  Theorem 3 bound              : {theorem3_bound(args.k, args.delta):.1f}")
    return 0


def cmd_mission(args) -> int:
    """Auto-select the algorithm by guarantee and run the mission."""
    from .mission import run_mission

    tree = make_tree(args.tree, args.n)
    report = run_mission(tree, args.k, prefer_write_read=args.write_read)
    print(report.summary())
    return 0 if report.result.complete else 1


def cmd_experiment(args) -> int:
    """Run experiments from the registry (E1..E15) and print reports.

    Experiments enumerate scenarios and route through the orchestrator
    cache (default ``results/cache``), so re-running an experiment is
    cache hits; ``--no-cache`` runs everything fresh and
    ``--min-hit-rate`` turns the hit rate into an exit-code gate.
    """
    from .analysis import run_experiment
    from .analysis.experiments import ExperimentContext

    store = None
    if args.cache_dir and not args.no_cache:
        store = ResultStore(args.cache_dir)
    telemetry = None
    if args.telemetry:
        telemetry = TelemetryConfig.create(args.telemetry)
    ctx = ExperimentContext(store=store, max_workers=args.jobs,
                            telemetry=telemetry)
    for exp_id in args.ids:
        print(run_experiment(exp_id, ctx))
        print()
    if store is not None:
        print(ctx.tracker.summary())
    if telemetry is not None:
        print(f"telemetry: trace {telemetry.trace_id} -> {telemetry.path}")
    if args.min_hit_rate is not None and ctx.tracker.hit_rate() < args.min_hit_rate:
        print(
            f"cache hit rate {ctx.tracker.hit_rate():.1%} below required "
            f"{args.min_hit_rate:.1%}"
        )
        return 1
    return 0


def cmd_tail(args) -> int:
    """Summarise a telemetry trace: rounds/sec, margins, violations.

    Incomplete traces (spans with no ``run_end`` — truncation, worker
    crash) are reported loudly but do *not* fail: only theorem-budget
    violations flip the exit code.
    """
    try:
        summary_text = obs_tail(
            args.path, slowest=args.slowest, latency=args.latency,
            resources=args.resources,
        )
    except OSError as exc:
        print(f"tail: {exc}")
        return 2
    print(summary_text)
    return 1 if "VIOLATION" in summary_text else 0


def cmd_report(args) -> int:
    """Render the algorithm × family × size cost matrix (``repro report``).

    Reads a result cache and/or telemetry dir, prints the markdown
    matrix (optionally writing it and a self-contained HTML page), or —
    with ``--compare OLD NEW`` — diffs two sources with bench-style
    regression annotations and exits 1 when any regression survives the
    threshold.
    """
    from .obs.report import (
        collect_matrix,
        compare_reports,
        render_html,
        render_markdown,
    )

    def _sources(path: str):
        # A dir of trace-*.jsonl is telemetry; anything else is a cache.
        import glob as _glob
        if os.path.isdir(path) and _glob.glob(os.path.join(path, "trace-*.jsonl")):
            return {"telemetry_dir": path}
        return {"cache_dir": path}

    if args.compare:
        old_path, new_path = args.compare
        try:
            old = collect_matrix(**_sources(old_path))
            new = collect_matrix(**_sources(new_path))
        except (OSError, ValueError) as exc:
            print(f"report: {exc}")
            return 2
        lines, regressions = compare_reports(
            old, new, threshold=args.threshold
        )
        for line in lines:
            print(line)
        if regressions:
            print(
                f"{len(regressions)} regression(s) beyond "
                f"{args.threshold:.0%}"
            )
            return 1
        print("no regressions")
        return 0

    if not args.cache_dir and not args.telemetry:
        print("report: need --cache-dir and/or --telemetry (or --compare)")
        return 2
    try:
        matrix = collect_matrix(
            cache_dir=args.cache_dir, telemetry_dir=args.telemetry
        )
    except (OSError, ValueError) as exc:
        print(f"report: {exc}")
        return 2
    markdown = render_markdown(matrix, title=args.title)
    print(markdown)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(markdown + "\n")
        print(f"wrote {args.out}")
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(matrix, title=args.title))
        print(f"wrote {args.html}")
    return 0


def cmd_serve(args) -> int:
    """Run the scenario server until SIGINT/SIGTERM drains it."""
    import asyncio

    from .serve import ScenarioServer

    telemetry = (
        TelemetryConfig.create(args.telemetry) if args.telemetry else None
    )
    store = (
        None if args.no_cache
        else ResultStore(args.cache_dir or DEFAULT_CACHE_DIR)
    )
    server = ScenarioServer(
        store,
        workers=args.jobs,
        queue_depth=args.queue_depth,
        telemetry=telemetry,
        snapshot_every=args.snapshot_every,
    )

    async def _run() -> int:
        try:
            bound_host, bound_port = await server.start(args.host, args.port)
        except OSError as exc:
            print(f"serve: cannot bind {args.host}:{args.port}: {exc}")
            return 2
        print(
            f"serving http://{bound_host}:{bound_port} "
            "(POST /run, GET /healthz, GET /stats)"
        )
        if telemetry is not None:
            print(f"telemetry: {telemetry.path}")
        print("press Ctrl-C to drain and exit", flush=True)
        server.install_signal_handlers()
        await server.serve_until_drained(args.drain_timeout)
        return 0

    try:
        code = asyncio.run(_run())
    except KeyboardInterrupt:
        return INTERRUPT_EXIT_CODE
    if code:
        return code
    print(
        f"served {server.requests} requests ({server.errors} errors, "
        f"{server.pool.executions} executions, "
        f"{server.inflight.coalesced} coalesced)"
    )
    return 0


def cmd_load(args) -> int:
    """Drive a closed-loop load run against a running server."""
    import asyncio

    from .serve import ServeClient, default_payloads, run_load

    payloads = default_payloads(
        kinds=args.kinds,
        distinct=args.distinct,
        n=args.n,
        k=args.k,
        base_seed=args.seed,
    )

    def make_client(index: int) -> ServeClient:
        return ServeClient.http(args.host, args.port, name=f"load-{index}",
                                timeout=args.timeout)

    try:
        report = asyncio.run(run_load(
            make_client, payloads,
            clients=args.clients, requests=args.requests,
        ))
    except OSError as exc:
        print(f"load: cannot reach server at {args.host}:{args.port}: {exc}")
        return 2
    for line in report.render():
        print(line)
    if report.errors:
        print(f"load: FAILED ({report.errors} non-ok responses)")
        return 1
    if args.min_hit_rate is not None and report.hit_rate < args.min_hit_rate:
        print(
            f"load: FAILED (hit rate {report.hit_rate:.1%} below required "
            f"{args.min_hit_rate:.1%})"
        )
        return 1
    return 0


def cmd_demo(args) -> int:
    """Animate a small BFDN run frame by frame in the terminal."""
    from .sim.render import animate

    tree = make_tree(args.tree, args.n)
    tracer = TraceObserver()
    Simulator(tree, BFDN(), args.k, observers=[tracer]).run()
    for round_idx, frame in enumerate(animate(tracer.trace, tree, args.rounds)):
        print(f"--- round {round_idx} ---")
        print(frame)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro", description="BFDN collaborative tree exploration"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more logging (-v = INFO, -vv = DEBUG); goes before the command",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="less logging (-q = ERROR, -qq = CRITICAL)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="run one exploration")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="bfdn")
    p.add_argument("--tree", choices=sorted(tree_families()), default="random")
    p.add_argument("-n", type=int, default=1000, help="tree size")
    p.add_argument("-k", type=int, default=8, help="team size")
    p.add_argument(
        "--observe", default=None, metavar="KINDS",
        help="comma list of round observers: " + ", ".join(ROUND_OBSERVERS),
    )
    p.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="write a JSONL telemetry trace under DIR (see 'repro tail')",
    )
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.add_argument(
        "--policy", default=None, choices=sorted(REANCHOR_POLICIES),
        help="re-anchor policy ablation (policy-capable algorithms only)",
    )
    p.add_argument(
        "--adversary", default=None, metavar="NAME",
        help="break-down or reactive adversary from the registry "
        f"(known: {', '.join(sorted(ADVERSARIES))})",
    )
    p.add_argument(
        "--adversary-param", action="append", default=None, metavar="KEY=VALUE",
        dest="adversary_param",
        help="adversary parameter, repeatable (e.g. p=0.5 horizon_per_n=100)",
    )
    p.add_argument(
        "--speed", default=None, choices=sorted(SPEED_SCHEDULES),
        help="run asynchronously under this speed schedule "
        f"(async-capable: {', '.join(sorted(ASYNC_ALGORITHMS))})",
    )
    p.add_argument(
        "--speed-param", action="append", default=None, metavar="KEY=VALUE",
        dest="speed_param",
        help="speed-schedule parameter, repeatable (e.g. slow=2 factor=4)",
    )
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("compare", help="sweep algorithms over families")
    p.add_argument(
        "--algorithms", nargs="+", choices=sorted(ALGORITHMS),
        default=["bfdn", "cte"],
    )
    p.add_argument("-k", type=int, nargs="+", default=[4, 16])
    p.add_argument("--size", choices=["small", "medium", "large"], default="small")
    p.add_argument(
        "--cache-dir", default=None, dest="cache_dir",
        help="content-addressed result cache directory",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "sweep", help="orchestrated grid sweep (cached, fault-tolerant, resumable)"
    )
    p.add_argument(
        "--algorithms", nargs="+",
        choices=sorted(ALGORITHMS) + sorted(ENTRY_POINTS),
        default=["bfdn", "cte"],
    )
    p.add_argument(
        "--trees", nargs="+",
        choices=sorted(tree_families()) + sorted(GRAPHS) + [GAME_FAMILY],
        default=["random", "comb"],
        help="workload families: tree families, graph families, or 'urns'",
    )
    p.add_argument("-n", type=int, nargs="+", default=[200], help="tree sizes")
    p.add_argument("-k", type=int, nargs="+", default=[4, 16], help="team sizes")
    p.add_argument("--seeds", type=int, nargs="+", default=[0], help="tree seeds")
    p.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (0/1 = inline, no pool)",
    )
    p.add_argument(
        "--cache-dir", default=None, dest="cache_dir",
        help="content-addressed result cache directory (e.g. results/cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true", dest="no_cache",
        help="bypass the result cache entirely",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-job timeout in seconds (needs --jobs >= 2)",
    )
    p.add_argument(
        "--retries", type=int, default=1,
        help="additional attempts for a failed/timed-out job",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from --cache-dir (must exist)",
    )
    p.add_argument("--out", default=None, help="write rows to .csv/.json")
    p.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="stream a JSONL telemetry trace (spans, rounds, theorem "
        "budgets) under DIR; summarise it with 'repro tail DIR'",
    )
    p.add_argument(
        "--min-hit-rate", type=float, default=None, dest="min_hit_rate",
        help="exit non-zero if the cache hit rate falls below this fraction",
    )
    p.add_argument(
        "--policy", default=None, choices=sorted(REANCHOR_POLICIES),
        help="re-anchor policy ablation applied to the tree algorithms",
    )
    p.add_argument(
        "--adversary", default=None, metavar="NAME",
        help="adversarial scenario for the tree algorithms "
        f"(known: {', '.join(sorted(ADVERSARIES))})",
    )
    p.add_argument(
        "--adversary-param", action="append", default=None, metavar="KEY=VALUE",
        dest="adversary_param",
        help="adversary parameter, repeatable (e.g. p=0.5 horizon_per_n=100)",
    )
    p.add_argument(
        "--speed", default=None, choices=sorted(SPEED_SCHEDULES),
        help="run async-capable tree algorithms asynchronously under "
        "this speed schedule (mutually exclusive with --adversary)",
    )
    p.add_argument(
        "--speed-param", action="append", default=None, metavar="KEY=VALUE",
        dest="speed_param",
        help="speed-schedule parameter, repeatable (e.g. slow=2 factor=4)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "bench",
        help="pinned engine micro-benchmarks (writes BENCH_<date>.json)",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="run only the quick subset (CI smoke)",
    )
    p.add_argument(
        "--repeats", type=int, default=3,
        help="timed runs per case; the snapshot keeps the best",
    )
    p.add_argument(
        "--only", nargs="+", default=None, metavar="CASE",
        help="run only the named cases (see repro.perf.PINNED_SUITE)",
    )
    p.add_argument(
        "--out", default=None,
        help="snapshot path (default: BENCH_<date>.json)",
    )
    p.add_argument(
        "--compare", nargs=2, default=None, metavar=("OLD", "NEW"),
        help="diff two snapshots instead of benchmarking; exit 1 on "
        "regressions beyond --threshold",
    )
    p.add_argument(
        "--threshold", type=float, default=0.2,
        help="--compare regression threshold as a fraction (0.2 = +20%%)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="run the suite once under cProfile and print hotspots",
    )
    p.add_argument(
        "--top", type=int, default=25,
        help="--profile: number of functions to print",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("figure1", help="draw the Figure 1 region chart")
    p.add_argument("--log2-k", type=int, default=40, dest="log2_k")
    p.add_argument("--resolution", type=int, default=44)
    p.add_argument(
        "--extended",
        action="store_true",
        help="partition over the full algorithm zoo (adds DFS, "
        "tree-mining and potential-cte to the paper's four contenders)",
    )
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("game", help="play the balls-in-urns game")
    p.add_argument("-k", type=int, default=16)
    p.add_argument("--delta", type=int, default=16)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser(
        "mission", help="auto-select the best algorithm for an instance and run it"
    )
    p.add_argument("--tree", choices=sorted(tree_families()), default="random")
    p.add_argument("-n", type=int, default=1000)
    p.add_argument("-k", type=int, default=8)
    p.add_argument("--write-read", action="store_true", dest="write_read")
    p.set_defaults(func=cmd_mission)

    p = sub.add_parser(
        "experiment", help="run experiments from DESIGN.md's index (E1..E15)"
    )
    p.add_argument("ids", nargs="+", metavar="ID", help="e.g. E3 E8")
    p.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, dest="cache_dir",
        help="content-addressed result cache directory",
    )
    p.add_argument(
        "--no-cache", action="store_true", dest="no_cache",
        help="bypass the result cache entirely",
    )
    p.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (0/1 = inline, no pool)",
    )
    p.add_argument(
        "--min-hit-rate", type=float, default=None, dest="min_hit_rate",
        help="exit non-zero if the cache hit rate falls below this fraction",
    )
    p.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="stream a JSONL telemetry trace under DIR",
    )
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "tail", help="summarise a telemetry trace (margins, violations)"
    )
    p.add_argument(
        "path", metavar="DIR_OR_FILE",
        help="telemetry directory (trace-*.jsonl) or one .jsonl file",
    )
    p.add_argument(
        "--slowest", type=int, default=5,
        help="how many slowest spans to list",
    )
    p.add_argument(
        "--latency", action="store_true",
        help="render the serving layer's request-latency p50/p95/p99 and "
        "queue-depth gauges (from 'repro serve' request/queue/latency events)",
    )
    p.add_argument(
        "--resources", action="store_true",
        help="render per-span CPU/RSS/energy costs (from 'resource' events)",
    )
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser(
        "report",
        help="pivot a result cache / telemetry dir into an "
        "algorithm x family x size cost matrix (markdown + HTML)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache to report on (content-addressed store)",
    )
    p.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="telemetry trace dir to report on (merged with --cache-dir)",
    )
    p.add_argument(
        "--title", default="Resource report", help="report heading",
    )
    p.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the markdown report to FILE",
    )
    p.add_argument(
        "--html", default=None, metavar="FILE",
        help="also write a self-contained HTML page to FILE",
    )
    p.add_argument(
        "--compare", nargs=2, default=None, metavar=("OLD", "NEW"),
        help="diff two cache/telemetry dirs instead (regression "
        "annotations; exits 1 on regressions beyond --threshold)",
    )
    p.add_argument(
        "--threshold", type=float, default=0.2,
        help="relative regression gate for --compare (0.2 = 20%%)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "serve",
        help="run the long-lived scenario server (cache, dedup, backpressure)",
    )
    p.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    p.add_argument(
        "--port", type=int, default=8642,
        help="HTTP port (0 = ephemeral; the bound port is printed)",
    )
    p.add_argument(
        "--cache-dir", default=None, dest="cache_dir",
        help="shared content-addressed result cache directory",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="serve without a store (every request computes; tests only)",
    )
    p.add_argument(
        "--jobs", type=int, default=4,
        help="concurrent scenario executions",
    )
    p.add_argument(
        "--queue-depth", type=int, default=64, dest="queue_depth",
        help="bounded execution queue; beyond it requests get 503",
    )
    p.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="stream request/queue/latency events under DIR "
        "(see 'repro tail --latency')",
    )
    p.add_argument(
        "--snapshot-every", type=int, default=500, dest="snapshot_every",
        help="emit latency/queue telemetry snapshots every N requests",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=30.0, dest="drain_timeout",
        help="seconds to let queued work finish after SIGINT/SIGTERM",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "load", help="closed-loop load generator against a running server"
    )
    p.add_argument("--host", default="127.0.0.1", help="server HTTP address")
    p.add_argument("--port", type=int, default=8642, help="server HTTP port")
    p.add_argument(
        "--clients", type=int, default=8,
        help="concurrent closed-loop clients",
    )
    p.add_argument(
        "--requests", type=int, default=200,
        help="total requests across all clients",
    )
    p.add_argument(
        "--distinct", type=int, default=8,
        help="distinct scenarios cycled through (controls the hit rate)",
    )
    p.add_argument(
        "--kinds", nargs="+", choices=["tree", "graph", "game", "async-tree"],
        default=["tree", "graph", "game"],
        help="scenario kinds mixed into the batch",
    )
    p.add_argument("-n", type=int, default=400, help="scenario size knob")
    p.add_argument("-k", type=int, default=2, help="team size")
    p.add_argument("--seed", type=int, default=0, help="base scenario seed")
    p.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-request client timeout in seconds",
    )
    p.add_argument(
        "--min-hit-rate", type=float, default=None, dest="min_hit_rate",
        help="exit 1 unless cache+dedup hit rate reaches this fraction",
    )
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("demo", help="animate BFDN on a small tree")
    p.add_argument("--tree", choices=sorted(tree_families()), default="random")
    p.add_argument("-n", type=int, default=15)
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--rounds", type=int, default=10, help="frames to show")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    logger.debug("dispatching command %r", args.command)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away (`repro report | head`); exit quietly like
        # any well-behaved unix filter.  Detach stdout so the interpreter
        # shutdown flush cannot raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
