"""Single registry of every name a scenario can be assembled from.

Historically the CLI and the sweep runner each kept their own
``ALGORITHMS`` dict; they drifted (the CLI was missing ``bfdn-shortcut``)
and the orchestrator needs one canonical name space so that job
fingerprints resolve identically everywhere.  This module is that single
source of truth: one entry per tree algorithm (its factory, knobs,
reveal model, async capability and monitored budgets), the named
tree/graph families, and — for the scenario layer (:mod:`repro.scenario`) — the
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
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from .algos import AsyncCTE, PotentialCTE, TreeMining
from .baselines import CTE, OnlineDFS
from .bounds.guarantees import (
    async_cte_bound,
    bfdn_bound,
    bfdn_ell_bound,
    lemma2_bound,
    potential_cte_bound,
    tree_mining_bound,
)
from .core import BFDN, BFDNEll, ShortcutBFDN, WriteReadBFDN
from .core.invariants import CheckedBFDN
from .graphs.graph import Graph
from .graphs.grid import random_obstacle_grid
from .graphs.mazes import braided_maze, perfect_maze
from .trees import generators as gen
from .trees.adversarial import cte_trap_tree, reanchor_stress_tree
from .trees.tree import Tree


@dataclass(frozen=True)
class BudgetSpec:
    """A bound an algorithm is monitored against at run time.

    :func:`repro.obs.budget.budgets_for_scenario` builds the live budgets
    from these.  ``quantity`` is what the bound limits: ``"billed
    rounds"``, ``"interior re-anchors"`` or ``"async completion time"``;
    ``limit`` maps ``(n, D, k, Delta)`` to the bound.  ``source`` is a
    result of the source paper (``"Theorem 1"``), a follow-up paper, or
    ``"empirical"`` when the constant is fitted to this implementation.
    """

    name: str
    quantity: str
    limit: Callable[[int, int, int, int], float]
    description: str
    source: str


@dataclass(frozen=True)
class AlgorithmEntry:
    """Everything the registry knows about one tree algorithm.

    ``knobs``: the construction knobs the factory honours (others are
    rejected by name); ``shared_reveal``: two robots may reveal through
    one dangling edge in a round; ``async_capable``: each agent decides
    from node-local information only, so ``kind=async-tree`` may run it.
    A name registered at runtime gets the defaults.
    """

    factory: Callable[..., object]
    knobs: frozenset = frozenset()
    shared_reveal: bool = False
    async_capable: bool = False
    budgets: Tuple[BudgetSpec, ...] = ()


_POLICY = frozenset({"policy", "seed"})

#: Theorem 1 and Lemma 2 hold for BFDN and the variants that keep its
#: re-anchoring structure.
_BFDN_BUDGETS = (
    BudgetSpec("theorem1", "billed rounds", bfdn_bound,
               "2n/k + D^2 (min(log Delta, log k) + 3) rounds", "Theorem 1"),
    BudgetSpec("lemma2", "interior re-anchors",
               lambda n, depth, k, delta: lemma2_bound(k, delta),
               "k (min(log Delta, log k) + 3) re-anchors at any interior "
               "depth", "Lemma 2"),
)


def _bfdn_ell(ell: int) -> AlgorithmEntry:
    return AlgorithmEntry(lambda: BFDNEll(ell), budgets=(BudgetSpec(
        "theorem10", "billed rounds",
        lambda n, depth, k, delta: bfdn_ell_bound(n, depth, k, ell, delta),
        f"4n/k^(1/{ell}) + 2^{ell + 1} (ell + 1 + min(log Delta, log k / "
        f"ell)) D^(1+1/{ell}) rounds (Theorem 10)", "Theorem 10"),))


#: One entry per tree algorithm, by name (picklable indirection: job
#: specs and CLI flags carry the *name*, workers build a fresh instance
#: per run).  Nothing is proved about ``cte`` and ``dfs``, so they carry
#: no budget: a budget is an assertion, not a comparison.
ALGORITHM_ENTRIES: Dict[str, AlgorithmEntry] = {
    "bfdn": AlgorithmEntry(BFDN, knobs=_POLICY, budgets=_BFDN_BUDGETS),
    "bfdn-wr": AlgorithmEntry(WriteReadBFDN, budgets=_BFDN_BUDGETS),
    "bfdn-shortcut": AlgorithmEntry(
        ShortcutBFDN, knobs=_POLICY, budgets=_BFDN_BUDGETS
    ),
    "bfdn-checked": AlgorithmEntry(CheckedBFDN, budgets=_BFDN_BUDGETS),
    "bfdn-ell2": _bfdn_ell(2),
    "bfdn-ell3": _bfdn_ell(3),
    "cte": AlgorithmEntry(CTE, shared_reveal=True),
    "dfs": AlgorithmEntry(OnlineDFS),
    # Follow-up literature (repro.algos).
    "tree-mining": AlgorithmEntry(TreeMining, budgets=(BudgetSpec(
        "tree-mining", "billed rounds", tree_mining_bound,
        "Theorem 10 at the uniform mining depth ell(k) = ceil(sqrt(log2 "
        "k)): 4n/2^sqrt(log2 k) + additive term (arXiv:2309.07011)",
        "arXiv:2309.07011"),)),
    "potential-cte": AlgorithmEntry(PotentialCTE, budgets=(BudgetSpec(
        "potential-cte", "billed rounds",
        lambda n, depth, k, delta: potential_cte_bound(n, depth, k),
        "2n/k + C D^2 rounds (arXiv:2311.01354; implementation-pinned C)",
        "empirical"),)),
    # Its whiteboard port rotation may wrap when more agents than ports
    # share a node, hence the shared-reveal model.
    "async-cte": AlgorithmEntry(
        AsyncCTE, shared_reveal=True, async_capable=True, budgets=(BudgetSpec(
            "async-cte", "async completion time",
            lambda n, depth, k, delta: async_cte_bound(n, depth, k),
            "2n/k + C D^2 completion time under any speed schedule "
            "(arXiv:2507.15658; implementation-pinned C)", "empirical"),),
    ),
}

#: Name → factory.  Tests and plugins register extra algorithms here at
#: runtime; such a name gets the :class:`AlgorithmEntry` defaults.
ALGORITHMS: Dict[str, Callable[[], object]] = {
    name: entry.factory for name, entry in ALGORITHM_ENTRIES.items()
}

# Views of ALGORITHM_ENTRIES for the modules that read one field.
ALGORITHM_KNOBS = {name: e.knobs for name, e in ALGORITHM_ENTRIES.items()}
POLICY_ALGORITHMS = frozenset(n for n, k in ALGORITHM_KNOBS.items() if "policy" in k)
SHARED_REVEAL = frozenset(n for n, e in ALGORITHM_ENTRIES.items() if e.shared_reveal)
ASYNC_ALGORITHMS = frozenset(n for n, e in ALGORITHM_ENTRIES.items() if e.async_capable)


def algorithm_entry(name: str) -> AlgorithmEntry:
    """``name``'s entry, or the defaults for a name registered at runtime.

    ``ValueError`` for unknown names."""
    if name not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {name!r} (known: {', '.join(sorted(ALGORITHMS))})"
        )
    return ALGORITHM_ENTRIES.get(name) or AlgorithmEntry(ALGORITHMS[name])


def algorithm_knobs(name: str) -> frozenset:
    """The construction knobs ``name``'s factory honours.

    ``ValueError`` for unknown names."""
    return algorithm_entry(name).knobs


def make_algorithm(name: str, policy: Optional[str] = None, seed: int = 0):
    """Build a fresh algorithm instance for ``name``.

    ``policy`` optionally selects a named re-anchor policy (see
    :data:`REANCHOR_POLICIES`); passing it to an algorithm that does not
    declare the ``policy`` knob raises a ``ValueError`` naming the
    rejected knob.  ``seed`` is the scenario layer's run-replication
    knob: it is always accepted (every run carries one), and it reaches
    the factory exactly when the algorithm declares the ``seed`` knob —
    today the seeded re-anchor policies; the deterministic algorithms
    ignore it by declared contract (:attr:`AlgorithmEntry.knobs`) rather
    than by accident.  Raises ``ValueError`` for unknown names so callers
    surface typos instead of silently caching results under a bogus key.
    """
    knobs = algorithm_knobs(name)  # ValueError for unknown names
    if policy is not None and "policy" not in knobs:
        raise ValueError(
            f"algorithm {name!r} rejected knob policy={policy!r}: it does "
            "not take a re-anchor policy (policy-capable: "
            f"{', '.join(sorted(POLICY_ALGORITHMS))})"
        )
    factory = ALGORITHMS[name]
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
    "ALGORITHM_ENTRIES",
    "ALGORITHM_KNOBS",
    "ASYNC_ALGORITHMS",
    "AlgorithmEntry",
    "BudgetSpec",
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
    "algorithm_entry",
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
