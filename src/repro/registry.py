"""Single registry of every name a scenario can be assembled from.

Historically the CLI and the sweep runner each kept their own
``ALGORITHMS`` dict; they drifted (the CLI was missing ``bfdn-shortcut``)
and the orchestrator needs one canonical name space so that job
fingerprints resolve identically everywhere.  This module is that single
source of truth: algorithm factories addressable by name, the set of
algorithms that run under the shared-reveal model, the named tree/graph
families, and — for the scenario layer (:mod:`repro.scenario`) — the
named break-down adversaries (Proposition 7), reactive adversaries
(Remark 8), re-anchor policies (the Lemma 2 ablations) and urn-game
players/adversaries (Section 3).

Names are part of the on-disk cache fingerprint (see
``repro.orchestrator.jobspec``), so renaming an entry invalidates cached
results for it — prefer adding aliases over renaming.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Mapping, Optional

from .algos import AsyncCTE, PotentialCTE, TreeMining
from .baselines import CTE, OnlineDFS
from .core import BFDN, BFDNEll, ShortcutBFDN, WriteReadBFDN
from .core.invariants import CheckedBFDN
from .graphs.graph import Graph
from .graphs.grid import random_obstacle_grid
from .graphs.mazes import braided_maze, perfect_maze
from .trees import generators as gen
from .trees.adversarial import cte_trap_tree, reanchor_stress_tree
from .trees.tree import Tree

#: Algorithms addressable by name (picklable indirection: job specs and
#: CLI flags carry the *name*, workers build a fresh instance per run).
ALGORITHMS: Dict[str, Callable[[], object]] = {
    "bfdn": BFDN,
    "bfdn-wr": WriteReadBFDN,
    "bfdn-shortcut": ShortcutBFDN,
    "bfdn-checked": CheckedBFDN,
    "bfdn-ell2": lambda: BFDNEll(2),
    "bfdn-ell3": lambda: BFDNEll(3),
    "cte": CTE,
    "dfs": OnlineDFS,
    # Follow-up literature (repro.algos): the tree-mining schedule of
    # arXiv:2309.07011 and the potential-function CTE of arXiv:2311.01354.
    "tree-mining": TreeMining,
    "potential-cte": PotentialCTE,
    # The distributed whiteboard strategy of arXiv:2507.15658 — the only
    # entry that is also async-capable (see ASYNC_ALGORITHMS); under the
    # default synchronous scheduler it runs like any other strategy.
    "async-cte": AsyncCTE,
}

#: Construction knobs each factory honours.  ``make_algorithm`` accepts
#: two knobs — ``policy`` (a named re-anchor policy, the Lemma 2 ablation)
#: and ``seed`` (algorithm-side randomness, today only consumed by seeded
#: policies) — and this table declares, per algorithm, which of them
#: actually reach the factory.  A knob passed to an algorithm that does
#: not declare it is *rejected by name* instead of silently dropped, and
#: registering an algorithm without declaring its knobs fails at import.
ALGORITHM_KNOBS: Dict[str, frozenset] = {
    "bfdn": frozenset({"policy", "seed"}),
    "bfdn-wr": frozenset(),
    "bfdn-shortcut": frozenset({"policy", "seed"}),
    "bfdn-checked": frozenset(),
    "bfdn-ell2": frozenset(),
    "bfdn-ell3": frozenset(),
    "cte": frozenset(),
    "dfs": frozenset(),
    "tree-mining": frozenset(),
    "potential-cte": frozenset(),
    "async-cte": frozenset(),
}

if set(ALGORITHM_KNOBS) != set(ALGORITHMS):  # pragma: no cover - import guard
    raise RuntimeError(
        "ALGORITHM_KNOBS out of sync with ALGORITHMS: every registered "
        "algorithm must declare which construction knobs it honours"
    )

#: Algorithms whose constructor accepts a ``policy=`` re-anchor policy
#: (derived from :data:`ALGORITHM_KNOBS`).
POLICY_ALGORITHMS = frozenset(
    name for name, knobs in ALGORITHM_KNOBS.items() if "policy" in knobs
)

#: Algorithms whose model permits two robots to traverse the same
#: dangling edge in one round (CTE's model; forbidden for BFDN, and not
#: needed by ``potential-cte``, which hands each port to one robot).
#: ``async-cte``'s whiteboard port rotation may wrap when more agents
#: than ports share a node, so it runs under the shared-reveal model.
SHARED_REVEAL = frozenset({"cte", "async-cte"})

#: Algorithms whose decision rule is *distributed* — each agent decides
#: from node-local information only, never from another agent's position
#: or clock — and therefore well-defined under the asynchronous
#: scheduler.  Only these may appear in ``kind=async-tree`` scenarios.
ASYNC_ALGORITHMS = frozenset({"async-cte"})


def algorithm_knobs(name: str) -> frozenset:
    """The construction knobs ``name``'s factory honours (see
    :data:`ALGORITHM_KNOBS`); ``ValueError`` for unknown names."""
    try:
        return ALGORITHM_KNOBS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r} (known: {', '.join(sorted(ALGORITHMS))})"
        ) from None


def make_algorithm(name: str, policy: Optional[str] = None, seed: int = 0):
    """Build a fresh algorithm instance for ``name``.

    ``policy`` optionally selects a named re-anchor policy (see
    :data:`REANCHOR_POLICIES`); passing it to an algorithm that does not
    declare the ``policy`` knob raises a ``ValueError`` naming the
    rejected knob.  ``seed`` is the scenario layer's run-replication
    knob: it is always accepted (every run carries one), and it reaches
    the factory exactly when the algorithm declares the ``seed`` knob —
    today the seeded re-anchor policies; the deterministic algorithms
    ignore it by declared contract (:data:`ALGORITHM_KNOBS`) rather than
    by accident.  Raises ``ValueError`` for unknown names so callers
    surface typos instead of silently caching results under a bogus key.
    """
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r} (known: {', '.join(sorted(ALGORITHMS))})"
        ) from None
    # Entries injected at runtime (tests, plugins) may not be in the
    # static knob table; they honour no knobs unless they declare some.
    knobs = ALGORITHM_KNOBS.get(name, frozenset())
    if policy is not None and "policy" not in knobs:
        raise ValueError(
            f"algorithm {name!r} rejected knob policy={policy!r}: it does "
            "not take a re-anchor policy (policy-capable: "
            f"{', '.join(sorted(POLICY_ALGORITHMS))})"
        )
    if policy is not None:
        return factory(policy=make_reanchor_policy(policy, seed=seed))
    return factory()


def shared_reveal_default(name: str) -> bool:
    """Whether ``name`` runs under the shared-reveal model by default."""
    return name in SHARED_REVEAL


#: Tree families by name.  Each builder takes ``(n, rng)`` — deterministic
#: families ignore the rng, random ones draw from it, so a ``(family, n,
#: seed)`` triple pins the tree exactly (the orchestrator fingerprints it).
_TREE_BUILDERS: Dict[str, Callable[[int, random.Random], Tree]] = {
    "random": lambda n, rng: gen.random_recursive(n, rng),
    "path": lambda n, rng: gen.path(n),
    "star": lambda n, rng: gen.star(n),
    "caterpillar": lambda n, rng: gen.caterpillar(max(2, n // 5), 4),
    "spider": lambda n, rng: gen.spider(8, max(1, n // 8)),
    "comb": lambda n, rng: gen.comb(max(2, n // 6), 5),
    "deep": lambda n, rng: gen.random_tree_with_depth(n, max(2, n // 4), rng),
    # Adversarial constructions from the literature, sized by n so they
    # are sweepable like any other family (the builders fix k-like shape
    # parameters; see repro.trees.adversarial for the constructions).
    "cte-trap": lambda n, rng: cte_trap_tree(8, max(1, (n - 1) // 57), 8),
    "reanchor-stress": lambda n, rng: reanchor_stress_tree(
        8, max(2, (n + 28) // 38)
    ),
}


def make_tree(family: str, n: int, seed: int = 0) -> Tree:
    """Materialise the named tree family at size ``n`` with ``seed``."""
    try:
        builder = _TREE_BUILDERS[family]
    except KeyError:
        raise ValueError(
            f"unknown tree family {family!r} (known: {', '.join(sorted(_TREE_BUILDERS))})"
        ) from None
    return builder(n, random.Random(seed))


def tree_families() -> Dict[str, Callable[[int], Tree]]:
    """CLI-compatible view: family name → ``n``-only builder (seed 0)."""
    return {
        name: (lambda n, _f=name: make_tree(_f, n, seed=0))
        for name in _TREE_BUILDERS
    }



# ---------------------------------------------------------------------
# Non-tree entry points (graph exploration, the urn game)
# ---------------------------------------------------------------------

#: Entry points beyond tree exploration, mapping the addressable name to
#: its workload kind.  ``graph-bfdn`` is Proposition 9's graph engine,
#: ``urn-game`` Theorem 3's balls-in-urns game; both now run through the
#: same round engine as the tree algorithms, so the orchestrator can
#: sweep them with the same cache/retry machinery.
ENTRY_POINTS: Dict[str, str] = {
    "graph-bfdn": "graph",
    "urn-game": "game",
}

#: The pseudo-family name for urn-game workloads (``n`` is ``Delta``).
GAME_FAMILY = "urns"


def workload_kind(name: str) -> str:
    """The workload kind (``tree`` / ``graph`` / ``game``) of ``name``."""
    if name in ALGORITHMS:
        return "tree"
    try:
        return ENTRY_POINTS[name]
    except KeyError:
        known = sorted(ALGORITHMS) + sorted(ENTRY_POINTS)
        raise ValueError(
            f"unknown algorithm {name!r} (known: {', '.join(known)})"
        ) from None


def _maze_dims(n: int) -> "tuple[int, int]":
    """Square-ish ``(width, height)`` with roughly ``n`` cells."""
    width = max(2, math.isqrt(max(n, 4)))
    height = max(2, (n + width - 1) // width)
    return width, height


#: Graph families by name.  Builders take ``(n, seed)`` where ``n`` is a
#: target node count; ``(family, n, seed)`` pins the graph exactly, the
#: same contract as the tree families.
_GRAPH_BUILDERS: Dict[str, Callable[[int, int], Graph]] = {
    "maze": lambda n, seed: perfect_maze(*_maze_dims(n), seed=seed),
    "braided": lambda n, seed: braided_maze(
        *_maze_dims(n), max(1, n // 6), seed=seed
    ),
    # The Ortolf–Schindelhauer-style obstacle grids of Proposition 9.
    "obstacle-grid": lambda n, seed: random_obstacle_grid(
        *_maze_dims(n), max(1, n // 32), seed=seed
    ),
}

#: Graph family names (for argparse choices).
GRAPHS = tuple(sorted(_GRAPH_BUILDERS))


def make_graph(family: str, n: int, seed: int = 0) -> Graph:
    """Materialise the named graph family at size ``n`` with ``seed``."""
    try:
        builder = _GRAPH_BUILDERS[family]
    except KeyError:
        raise ValueError(
            f"unknown graph family {family!r} (known: {', '.join(GRAPHS)})"
        ) from None
    return builder(n, seed)


# ---------------------------------------------------------------------
# Scenario ingredients: adversaries, re-anchor policies, game roles
# ---------------------------------------------------------------------

def _resolve_horizon(params: Mapping[str, object], n: int, default: int) -> int:
    """Resolve an adversary horizon from declarative params.

    Accepts either an absolute ``horizon`` or a substrate-relative
    ``horizon_per_n`` (multiplied by the materialised instance size) so a
    spec stays meaningful across sizes; ``default`` applies when neither
    is given.
    """
    if "horizon" in params:
        return int(params["horizon"])  # type: ignore[arg-type]
    if "horizon_per_n" in params:
        return int(float(params["horizon_per_n"]) * max(n, 1))  # type: ignore[arg-type]
    return default


def _check_params(name: str, params: Mapping[str, object], known: frozenset) -> None:
    unknown = set(params) - set(known)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for {name!r} "
            f"(known: {', '.join(sorted(known))})"
        )


#: Break-down adversaries by name (Section 4.2 / Proposition 7); values
#: are ``(builder, known_params)``.  Builders take the resolved params
#: plus the materialised instance size ``n`` (for per-n horizons).
_BREAKDOWN_ADVERSARIES = {
    "random-breakdowns": frozenset({"p", "horizon", "horizon_per_n", "seed"}),
    "round-robin-breakdowns": frozenset(
        {"num_blocked", "horizon", "horizon_per_n"}
    ),
    "targeted-breakdowns": frozenset({"blocked", "horizon", "horizon_per_n"}),
}

#: Reactive (move-observing) adversaries by name (Remark 8).
_REACTIVE_ADVERSARIES = {
    "block-explorers": frozenset({"budget", "horizon", "horizon_per_n"}),
    "block-deepest": frozenset({"budget", "horizon", "horizon_per_n"}),
    "random-reactive": frozenset({"p", "horizon", "horizon_per_n", "seed"}),
}

#: Every adversary name, mapped to the scenario kind it plugs into.
ADVERSARIES: Dict[str, str] = {
    **{name: "tree" for name in _BREAKDOWN_ADVERSARIES},
    **{name: "reactive" for name in _REACTIVE_ADVERSARIES},
}


def make_breakdown_adversary(
    name: str, params: Optional[Mapping[str, object]] = None, *, n: int = 1
):
    """Build a named break-down adversary (Proposition 7's model).

    ``n`` is the materialised instance size, used to resolve
    ``horizon_per_n`` params into absolute horizons.
    """
    from .sim.adversary import (
        RandomBreakdowns,
        RoundRobinBreakdowns,
        TargetedBreakdowns,
    )

    params = dict(params or {})
    if name not in _BREAKDOWN_ADVERSARIES:
        raise ValueError(
            f"unknown break-down adversary {name!r} "
            f"(known: {', '.join(sorted(_BREAKDOWN_ADVERSARIES))})"
        )
    _check_params(name, params, _BREAKDOWN_ADVERSARIES[name])
    horizon = _resolve_horizon(params, n, default=100 * max(n, 1))
    if name == "random-breakdowns":
        return RandomBreakdowns(
            float(params.get("p", 0.5)), horizon, seed=int(params.get("seed", 0))
        )
    if name == "round-robin-breakdowns":
        return RoundRobinBreakdowns(int(params.get("num_blocked", 1)), horizon)
    blocked = int(params.get("blocked", 1))
    return TargetedBreakdowns(list(range(blocked)), horizon)


def make_reactive_adversary(
    name: str, params: Optional[Mapping[str, object]] = None, *, n: int = 1
):
    """Build a named reactive adversary (Remark 8's model)."""
    from .sim.reactive import BlockDeepest, BlockExplorers, RandomReactive

    params = dict(params or {})
    if name not in _REACTIVE_ADVERSARIES:
        raise ValueError(
            f"unknown reactive adversary {name!r} "
            f"(known: {', '.join(sorted(_REACTIVE_ADVERSARIES))})"
        )
    _check_params(name, params, _REACTIVE_ADVERSARIES[name])
    horizon = _resolve_horizon(params, n, default=30 * max(n, 1))
    if name == "block-explorers":
        return BlockExplorers(int(params.get("budget", 1)), horizon)
    if name == "block-deepest":
        return BlockDeepest(int(params.get("budget", 1)), horizon)
    return RandomReactive(
        float(params.get("p", 0.5)), horizon, seed=int(params.get("seed", 0))
    )


#: Speed schedules for ``kind=async-tree`` scenarios, by name (the
#: asynchronous adversary of arXiv:2507.15658); values are the known
#: declarative params, mirroring the adversary registries.  Durations
#: are normalised to ``(0, 1]`` — the slowest agent needs at most one
#: time unit per edge traversal.
SPEED_SCHEDULES: Dict[str, frozenset] = {
    "unit": frozenset(),
    "adversarial-slowdown": frozenset({"slow", "factor"}),
    "stochastic": frozenset({"low", "seed"}),
}


def make_speed_schedule(
    name: str,
    params: Optional[Mapping[str, object]] = None,
    *,
    k: int = 1,
    seed: int = 0,
):
    """Build a named speed schedule (the asynchronous adversary).

    ``k`` is the team size, used to validate ``adversarial-slowdown``'s
    ``slow`` count; ``seed`` is the scenario seed, which ``stochastic``
    uses unless the params pin their own.
    """
    from .sim.scheduler import AdversarialSlowdown, StochasticSpeed, UnitSpeed

    params = dict(params or {})
    if name not in SPEED_SCHEDULES:
        raise ValueError(
            f"unknown speed schedule {name!r} "
            f"(known: {', '.join(sorted(SPEED_SCHEDULES))})"
        )
    _check_params(name, params, SPEED_SCHEDULES[name])
    if name == "unit":
        return UnitSpeed()
    if name == "adversarial-slowdown":
        slow = int(params.get("slow", 1))
        if not 1 <= slow <= k:
            raise ValueError(
                f"adversarial-slowdown: slow={slow} must lie in [1, k={k}]"
            )
        return AdversarialSlowdown(slow=slow, factor=float(params.get("factor", 4)))
    return StochasticSpeed(
        low=float(params.get("low", 0.25)), seed=int(params.get("seed", seed))
    )


#: Re-anchor policy names (Algorithm 1 line 28 and its ablations).
REANCHOR_POLICIES = ("least-loaded", "most-loaded", "random", "round-robin")


def make_reanchor_policy(name: str, seed: int = 0):
    """Build a named re-anchor policy; ``ValueError`` lists known names."""
    from .core.reanchor import make_policy

    if name not in REANCHOR_POLICIES:
        raise ValueError(
            f"unknown reanchor policy {name!r} "
            f"(known: {', '.join(REANCHOR_POLICIES)})"
        )
    return make_policy(name, seed=seed)


#: Round observers selectable by name (``--observe`` and programmatic
#: attachment).  ``trace``/``metrics``/``progress`` are the historical
#: CLI observers; ``telemetry`` is the obs-layer
#: :class:`~repro.obs.metrics.MetricsObserver`, ``budget`` the live
#: theorem monitor :class:`~repro.obs.budget.BudgetObserver`.
ROUND_OBSERVERS = ("trace", "metrics", "progress", "telemetry", "budget")


def make_round_observer(name: str, **context):
    """Build a named round observer; returns ``(observer, reporter)``.

    ``reporter`` is a zero-argument callback that prints the observer's
    post-run summary (or ``None`` when the observer has nothing to say).
    Recognised context keys (all optional unless noted):

    ``tree``            the materialised tree (required by ``trace``);
    ``shared_reveal``   bool, the run's reveal model (``trace`` replay);
    ``scenario``        the :class:`~repro.scenario.BuiltScenario`
                        (required by ``budget`` — budgets derive from it);
    ``writer``          a telemetry writer for ``telemetry``/``budget``;
    ``span_id`` / ``fingerprint`` / ``label``  correlation ids;
    ``every``           flush cadence for ``telemetry``/``budget``;
    ``printer``         output callable (default :func:`print`).
    """
    printer = context.get("printer", print)
    label = str(context.get("label", ""))
    if name == "trace":
        from .sim import TraceObserver, replay

        tree = context.get("tree")
        if tree is None:
            raise ValueError("the 'trace' observer needs tree= context")
        shared = bool(context.get("shared_reveal", False))
        obs = TraceObserver()

        def report_trace() -> None:
            rounds, _ = replay(obs.trace, tree, allow_shared_reveal=shared)
            printer(
                f"trace: {len(obs.trace.rounds)} rounds recorded, "
                f"replay-validated ({rounds} billed rounds)"
            )

        return obs, report_trace
    if name == "metrics":
        from .sim import TimeSeriesObserver

        obs = TimeSeriesObserver()

        def report_metrics() -> None:
            series = obs.series
            printer(
                f"metrics: {len(series.samples)} samples, "
                f"exploration rate {series.exploration_rate():.2f} "
                "nodes/round, working depth monotone: "
                f"{series.working_depth_is_monotone()}"
            )

        return obs, report_metrics
    if name == "progress":
        from .sim import ProgressEvents

        obs = ProgressEvents(
            lambda e: printer(
                f"progress[{e['wall_round']}]: billed={e['billed_round']} "
                f"{e['detail']}"
            ),
            label=label or "explore",
        )
        return obs, None
    if name == "telemetry":
        from .obs.metrics import MetricsObserver

        obs = MetricsObserver(
            writer=context.get("writer"),
            span_id=str(context.get("span_id", "")),
            fingerprint=str(context.get("fingerprint", "")),
            label=label,
            every=int(context.get("every", 100)),
        )

        def report_telemetry() -> None:
            snap = obs.snapshot()
            printer(
                f"telemetry: {snap['moves']} moves, {snap['idle']} idle, "
                f"{snap['reveals']} reveals, {snap['reanchors']} re-anchors, "
                f"{snap['blocked']} blocked"
            )

        return obs, report_telemetry
    if name == "budget":
        from .obs.budget import BudgetObserver, budgets_for_scenario

        scenario = context.get("scenario")
        if scenario is None:
            raise ValueError(
                "the 'budget' observer needs scenario= context (a "
                "BuiltScenario) to derive its theorem budgets"
            )
        budgets = budgets_for_scenario(scenario)
        obs = BudgetObserver(
            budgets,
            writer=context.get("writer"),
            span_id=str(context.get("span_id", "")),
            fingerprint=str(context.get("fingerprint", "")),
            label=label,
            every=int(context.get("every", 100)),
        )

        def report_budget() -> None:
            if not budgets:
                printer("budget: no theorem budget applies to this scenario")
                return
            margins = " ".join(
                f"{n}={m:+.1f}" for n, m in sorted(obs.margins().items())
            )
            printer(
                f"budget: {len(obs.violations)} violation(s), "
                f"margins {margins}"
            )

        return obs, report_budget
    raise ValueError(
        f"unknown round observer {name!r} "
        f"(known: {', '.join(ROUND_OBSERVERS)})"
    )


#: Urn-game player strategies by name (Section 3).
GAME_PLAYERS = ("balanced", "greedy-worst", "random")

#: Urn-game adversaries by name (Section 3).
GAME_ADVERSARIES = ("greedy", "dp", "fresh-urn", "min-load", "random")


def make_game_player(name: str, seed: int = 0):
    """Build a named urn-game player strategy."""
    from .game import BalancedPlayer, GreedyWorstPlayer, RandomPlayer

    players = {
        "balanced": BalancedPlayer,
        "greedy-worst": GreedyWorstPlayer,
        "random": lambda: RandomPlayer(seed),
    }
    if name not in players:
        raise ValueError(
            f"unknown game player {name!r} (known: {', '.join(GAME_PLAYERS)})"
        )
    return players[name]()


def make_game_adversary(name: str, seed: int = 0, *, k: int = 1, delta: int = 1):
    """Build a named urn-game adversary.

    ``k``/``delta`` size the DP adversary's table; the other adversaries
    ignore them.
    """
    from .game import (
        DPAdversary,
        FreshUrnAdversary,
        GreedyAdversary,
        MinLoadAdversary,
        RandomAdversary,
    )

    adversaries = {
        "greedy": GreedyAdversary,
        "dp": lambda: DPAdversary(k, delta),
        "fresh-urn": FreshUrnAdversary,
        "min-load": MinLoadAdversary,
        "random": lambda: RandomAdversary(seed),
    }
    if name not in adversaries:
        raise ValueError(
            f"unknown game adversary {name!r} "
            f"(known: {', '.join(GAME_ADVERSARIES)})"
        )
    return adversaries[name]()


__all__ = [
    "ADVERSARIES",
    "ALGORITHMS",
    "ALGORITHM_KNOBS",
    "ASYNC_ALGORITHMS",
    "ENTRY_POINTS",
    "GAME_ADVERSARIES",
    "GAME_FAMILY",
    "GAME_PLAYERS",
    "GRAPHS",
    "POLICY_ALGORITHMS",
    "REANCHOR_POLICIES",
    "ROUND_OBSERVERS",
    "SHARED_REVEAL",
    "SPEED_SCHEDULES",
    "algorithm_knobs",
    "make_algorithm",
    "make_breakdown_adversary",
    "make_game_adversary",
    "make_game_player",
    "make_graph",
    "make_reactive_adversary",
    "make_reanchor_policy",
    "make_round_observer",
    "make_speed_schedule",
    "make_tree",
    "shared_reveal_default",
    "tree_families",
    "workload_kind",
]
