"""Declarative scenarios: one fingerprintable run description.

A :class:`ScenarioSpec` is the single, serializable description of a run
that every layer of the repo shares: the CLI builds one from flags, the
orchestrator fingerprints and caches it, ``perf.bench`` pins suites of
them, and the E1–E15 experiment registry enumerates them.  A spec names
its ingredients — the workload ``kind``, the algorithm, the substrate
(tree/graph/urn family or an explicit parent array), an optional
adversary with parameters, an optional re-anchor policy — and resolves
every name through :mod:`repro.registry`, so adding an entry to the
registry makes it reachable from sweeps, caches, benchmarks and
experiments at once.

Kinds:

* ``tree``     — the round-engine simulator, optionally against a
  break-down adversary (Section 4.2 / Proposition 7);
* ``reactive`` — the Remark 8 model: the adversary observes the selected
  moves before striking;
* ``graph``    — Proposition 9's graph exploration on maze/grid families;
* ``game``     — the Section 3 balls-in-urns game (player vs adversary);
* ``async-tree`` — the asynchronous model of arXiv:2507.15658: per-robot
  clocks driven by a named speed schedule (no global round barrier),
  restricted to the distributed algorithms in
  :data:`repro.registry.ASYNC_ALGORITHMS`.

``build()`` materialises the substrate once and returns a
:class:`BuiltScenario` whose ``run()`` may be repeated (benchmarks);
``run_scenario`` is the one-shot worker path the orchestrator ships to
worker processes.  Every run returns a flat result row; rows from the
same spec are cached under its :meth:`~ScenarioSpec.fingerprint`.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple, Union

from . import registry
from .orchestrator.jobspec import SCHEMA_VERSION, TreeSpec

logger = logging.getLogger(__name__)

#: Workload kinds a scenario can describe.
KINDS = ("tree", "graph", "game", "reactive", "async-tree")

#: Frozen parameter mapping: a sorted tuple of (key, value) pairs so the
#: spec stays hashable and canonically ordered.
Params = Tuple[Tuple[str, object], ...]

_SCALAR_TYPES = (str, int, float, bool, type(None))


def freeze_params(params: Union[Mapping[str, object], Params, None]) -> Params:
    """Normalise a parameter mapping into a canonical frozen form.

    Values must be JSON scalars — params travel inside fingerprints and
    cache rows, so anything richer would break canonical encoding.
    """
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    frozen = []
    for key, value in items:
        if not isinstance(key, str):
            raise ValueError(f"parameter names must be strings, got {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise ValueError(
                f"parameter {key!r} must be a JSON scalar, got {type(value).__name__}"
            )
        frozen.append((key, value))
    return tuple(sorted(frozen))


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully pinned, fingerprintable run description.

    Presentation-only fields (the display ``label``) are not
    fingerprinted; everything else is.  ``policy`` names a re-anchor
    policy for tree/reactive kinds and the *player* strategy for the
    game kind; ``adversary`` names a break-down, reactive or game
    adversary matching the kind.
    """

    kind: str
    algorithm: str
    substrate: TreeSpec
    k: int
    seed: int = 0
    policy: Optional[str] = None
    adversary: Optional[str] = None
    adversary_params: Params = ()
    params: Params = ()
    label: str = ""
    max_rounds: Optional[int] = None
    #: ``None`` resolves to the registry default for the algorithm.
    allow_shared_reveal: Optional[bool] = None
    #: Also compute the theoretical bounds in the worker, so a cache hit
    #: skips *all* recomputation.
    compute_bounds: bool = False
    #: Speed schedule for ``async-tree`` scenarios (``None`` resolves to
    #: ``unit``).  Both fields enter the canonical encoding only for the
    #: async kind, so every pre-async fingerprint is unchanged.
    speed: Optional[str] = None
    speed_params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "adversary_params", freeze_params(self.adversary_params)
        )
        object.__setattr__(self, "params", freeze_params(self.params))
        object.__setattr__(self, "speed_params", freeze_params(self.speed_params))
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r} (known: {', '.join(KINDS)})"
            )
        if self.k < 1:
            raise ValueError("team size k must be >= 1")
        if self.kind != "async-tree" and (
            self.speed is not None or self.speed_params
        ):
            raise ValueError(
                f"speed schedules apply to async-tree scenarios only, "
                f"got speed={self.speed!r} for kind={self.kind!r}"
            )
        self._validate_names()

    # -- validation ----------------------------------------------------

    def _validate_names(self) -> None:
        kind = self.kind
        if kind in ("tree", "reactive"):
            if self.algorithm not in registry.ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {self.algorithm!r} for a {kind} "
                    f"scenario (known: {', '.join(sorted(registry.ALGORITHMS))})"
                )
            if self.policy is not None and self.policy not in registry.REANCHOR_POLICIES:
                raise ValueError(
                    f"unknown reanchor policy {self.policy!r} "
                    f"(known: {', '.join(registry.REANCHOR_POLICIES)})"
                )
            if (
                self.policy is not None
                and self.algorithm not in registry.POLICY_ALGORITHMS
            ):
                raise ValueError(
                    f"algorithm {self.algorithm!r} does not take a re-anchor "
                    f"policy (policy-capable: "
                    f"{', '.join(sorted(registry.POLICY_ALGORITHMS))})"
                )
        elif kind == "async-tree":
            if self.algorithm not in registry.ASYNC_ALGORITHMS:
                raise ValueError(
                    f"async-tree scenarios need an async-capable algorithm, "
                    f"got {self.algorithm!r} (known: "
                    f"{', '.join(sorted(registry.ASYNC_ALGORITHMS))})"
                )
            if self.policy is not None:
                raise ValueError(
                    "async-tree scenarios do not take a re-anchor policy"
                )
            # Validates the schedule name and its parameters (and that
            # e.g. adversarial-slowdown's ``slow`` fits the team).
            registry.make_speed_schedule(
                self.resolved_speed(),
                dict(self.speed_params),
                k=self.k,
                seed=self.seed,
            )
        elif kind == "graph":
            if registry.workload_kind(self.algorithm) != "graph":
                raise ValueError(
                    f"graph scenarios need a graph entry point, got "
                    f"{self.algorithm!r} (known: graph-bfdn)"
                )
            if self.substrate.family is not None and (
                self.substrate.family not in registry.GRAPHS
            ):
                raise ValueError(
                    f"unknown graph family {self.substrate.family!r} "
                    f"(known: {', '.join(registry.GRAPHS)})"
                )
        elif kind == "game":
            if registry.workload_kind(self.algorithm) != "game":
                raise ValueError(
                    f"game scenarios need a game entry point, got "
                    f"{self.algorithm!r} (known: urn-game)"
                )
            if self.policy is not None and self.policy not in registry.GAME_PLAYERS:
                raise ValueError(
                    f"unknown game player {self.policy!r} "
                    f"(known: {', '.join(registry.GAME_PLAYERS)})"
                )
        if self.adversary is not None:
            self._validate_adversary()

    def _validate_adversary(self) -> None:
        kind, name = self.kind, self.adversary
        if kind == "tree":
            registry.make_breakdown_adversary(name, dict(self.adversary_params))
        elif kind == "reactive":
            registry.make_reactive_adversary(name, dict(self.adversary_params))
        elif kind == "game":
            if name not in registry.GAME_ADVERSARIES:
                raise ValueError(
                    f"unknown game adversary {name!r} "
                    f"(known: {', '.join(registry.GAME_ADVERSARIES)})"
                )
        else:
            raise ValueError(f"{kind} scenarios do not take an adversary")

    # -- identity ------------------------------------------------------

    def shared_reveal(self) -> bool:
        """The resolved shared-reveal flag (explicit or registry default)."""
        if self.allow_shared_reveal is not None:
            return self.allow_shared_reveal
        return registry.shared_reveal_default(self.algorithm)

    def resolved_speed(self) -> str:
        """The resolved speed-schedule name (``unit`` when unset)."""
        return self.speed or "unit"

    def canonical(self) -> Dict[str, object]:
        """Canonical encoding: resolved defaults, no presentation fields."""
        data = {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "tree": self.substrate.canonical(),
            "k": self.k,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "allow_shared_reveal": self.shared_reveal(),
            "compute_bounds": self.compute_bounds,
            "policy": self.policy,
            "adversary": self.adversary,
            "adversary_params": dict(self.adversary_params),
            "params": dict(self.params),
        }
        if self.kind == "async-tree":
            data["speed"] = self.resolved_speed()
            data["speed_params"] = dict(self.speed_params)
        return data

    def fingerprint(self) -> str:
        """Stable sha256 hex digest of the canonical encoding.

        Computed once per instance and kept in its ``__dict__`` (not a
        field, so equality and hashing ignore it); a pickled spec
        carries the digest with it into a pool worker.
        """
        digest = self.__dict__.get("_fingerprint")
        if digest is None:
            payload = json.dumps(
                self.canonical(), sort_keys=True, separators=(",", ":")
            )
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            self.__dict__["_fingerprint"] = digest
        return digest

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        """Serialise the full spec (including the label) as JSON."""
        data = self.canonical()
        del data["allow_shared_reveal"]  # store the raw, unresolved field
        data["allow_shared_reveal"] = self.allow_shared_reveal
        if "speed" in data:
            data["speed"] = self.speed  # raw too: ``None`` ≠ ``"unit"``
        data["label"] = self.label
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` output.

        Unknown keys are ignored, so payloads written by older versions
        (e.g. with a ``backend`` field) parse to the same fingerprint.
        """
        data = json.loads(payload)
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"scenario schema {data.get('schema')!r} != {SCHEMA_VERSION!r}"
            )
        tree = data["tree"]
        substrate = (
            TreeSpec(parents=tuple(tree["parents"]))
            if "parents" in tree
            else TreeSpec(
                family=tree["family"], n=tree["n"], seed=tree.get("seed", 0)
            )
        )
        return cls(
            kind=data["kind"],
            algorithm=data["algorithm"],
            substrate=substrate,
            k=data["k"],
            seed=data.get("seed", 0),
            policy=data.get("policy"),
            adversary=data.get("adversary"),
            adversary_params=freeze_params(data.get("adversary_params")),
            params=freeze_params(data.get("params")),
            label=data.get("label", ""),
            max_rounds=data.get("max_rounds"),
            allow_shared_reveal=data.get("allow_shared_reveal"),
            compute_bounds=data.get("compute_bounds", False),
            speed=data.get("speed"),
            speed_params=freeze_params(data.get("speed_params")),
        )

    def with_label(self, label: str) -> "ScenarioSpec":
        """A copy with a different display label (same fingerprint)."""
        return replace(self, label=label)

    # -- execution -----------------------------------------------------

    def build(self) -> "BuiltScenario":
        """Materialise the substrate and return a repeatable runner."""
        return BuiltScenario(self)

    def run(self) -> Dict[str, object]:
        """Build and run once, returning the flat result row."""
        return self.build().run()


class BuiltScenario:
    """A scenario with its substrate materialised, ready to run.

    Construction (tree/graph generation) happens here, once; ``run()``
    builds fresh algorithm/adversary instances per call so repeated runs
    (benchmark repeats) are independent.  ``size`` is the *actual*
    instance size (``tree.n``, graph nodes, or the game threshold) —
    named families round the requested ``n``, so result rows must carry
    this, not the request.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        kind = spec.kind
        if kind in ("tree", "reactive", "async-tree"):
            self.tree = spec.substrate.materialize()
            self.size = self.tree.n
        elif kind == "graph":
            if spec.substrate.family is None:
                raise ValueError(
                    "graph scenarios need a named graph family (not parents=)"
                )
            self.graph = registry.make_graph(
                spec.substrate.family, spec.substrate.n, spec.substrate.seed
            )
            self.size = self.graph.n
        else:  # game
            self.delta = max(1, spec.substrate.n)
            self.size = self.delta
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "built %s scenario %s (algorithm=%s, k=%d, size=%d)",
                kind, spec.label or spec.fingerprint()[:12], spec.algorithm,
                spec.k, self.size,
            )

    # -- per-kind runners ---------------------------------------------

    def run(self, observers: Sequence[object] = ()) -> Dict[str, object]:
        """Execute once and return the flat result row.

        ``observers`` are extra round observers (the benchmark harness
        passes its own timing observer); a timing observer is always
        attached internally for the row's throughput columns, and a
        :class:`~repro.obs.resources.ResourceSampler` brackets the run
        so every surface's rows carry ``cpu_sec`` / ``max_rss_kb`` (and
        ``energy_j`` where the host can measure it).
        """
        from .obs.resources import ResourceSampler
        from .perf import TimingObserver

        timing = TimingObserver()
        # The row reads only the run clock and the counters; per-round
        # phase timing stays with observers that ask for it.
        timing.wants_phase_timing = False
        all_observers = [timing, *observers]
        kind = self.spec.kind
        sampler = ResourceSampler().start()
        if kind == "tree":
            row = self._run_tree(all_observers, timing)
        elif kind == "async-tree":
            row = self._run_async_tree(all_observers, timing)
        elif kind == "reactive":
            row = self._run_reactive(all_observers, timing)
        elif kind == "graph":
            row = self._run_graph(all_observers, timing)
        else:
            row = self._run_game(all_observers, timing)
        if sampler.enabled:
            row.update(sampler.stop().as_columns())
        return row

    def _base_row(self) -> Dict[str, object]:
        spec = self.spec
        return {
            "schema": SCHEMA_VERSION,
            "fingerprint": spec.fingerprint(),
            "kind": spec.kind,
            "algorithm": spec.algorithm,
            "label": spec.label,
            "k": spec.k,
            "seed": spec.seed,
            "policy": spec.policy or "",
            "adversary": spec.adversary or "",
            # The loop that ran: ``tree`` rows overwrite it from the
            # timing observer when the array fast path took the run.
            "backend": "reference",
        }

    def _run_tree(self, observers, timing) -> Dict[str, object]:
        from .sim.engine import Simulator

        spec = self.spec
        tree = self.tree
        algorithm = registry.make_algorithm(
            spec.algorithm, policy=spec.policy, seed=spec.seed
        )
        adversary = None
        if spec.adversary is not None:
            adversary = registry.make_breakdown_adversary(
                spec.adversary, dict(spec.adversary_params), n=tree.n
            )
        result = Simulator(
            tree,
            algorithm,
            spec.k,
            adversary=adversary,
            # Against break-downs the success criterion is coverage, not
            # return (Section 4.2): stop as soon as every edge is seen.
            stop_when_complete=adversary is not None,
            allow_shared_reveal=spec.shared_reveal(),
            max_rounds=spec.max_rounds,
            observers=observers,
        ).run()
        interior = {
            d: c
            for d, c in result.metrics.reanchors_per_depth().items()
            if 1 <= d <= tree.depth - 1
        }
        row = self._base_row()
        row.update(
            n=tree.n,
            depth=tree.depth,
            max_degree=tree.max_degree,
            rounds=result.rounds,
            wall_rounds=result.wall_rounds,
            complete=result.complete,
            all_home=result.all_home,
            max_interior_reanchors=max(interior.values(), default=0),
            elapsed=round(timing.elapsed, 6),
            rounds_per_sec=round(timing.rounds_per_sec(), 1),
        )
        row["backend"] = timing.backend
        if adversary is not None:
            from .bounds.guarantees import adversarial_bound

            row["average_allowed"] = round(
                adversary.average_allowed(result.wall_rounds, spec.k), 3
            )
            row["adversarial_bound"] = round(
                adversarial_bound(tree.n, tree.depth, spec.k), 3
            )
        if spec.compute_bounds:
            from .baselines.offline import (
                offline_lower_bound,
                offline_split_runtime,
            )
            from .bounds.guarantees import bfdn_bound

            row["bfdn_bound"] = bfdn_bound(
                tree.n, tree.depth, spec.k, tree.max_degree
            )
            row["lower_bound"] = offline_lower_bound(tree.n, tree.depth, spec.k)
            row["offline_split"] = offline_split_runtime(tree, spec.k)
        return row

    def _run_async_tree(self, observers, timing) -> Dict[str, object]:
        from .sim.scheduler import AsyncSimulator

        spec = self.spec
        tree = self.tree
        algorithm = registry.make_algorithm(spec.algorithm, seed=spec.seed)
        speeds = registry.make_speed_schedule(
            spec.resolved_speed(),
            dict(spec.speed_params),
            k=spec.k,
            seed=spec.seed,
        )
        result = AsyncSimulator(
            tree,
            algorithm,
            spec.k,
            speeds,
            allow_shared_reveal=spec.shared_reveal(),
            max_rounds=spec.max_rounds,
            observers=observers,
        ).run()
        clock = result.clock
        row = self._base_row()
        row.update(
            n=tree.n,
            depth=tree.depth,
            max_degree=tree.max_degree,
            rounds=result.rounds,
            wall_rounds=result.wall_batches,
            complete=result.complete,
            all_home=result.all_home,
            speed=spec.resolved_speed(),
            clock_time=round(result.clock_time, 6),
            clock_skew=round(clock.skew(), 6),
            slowest_robot=clock.slowest(),
            elapsed=round(timing.elapsed, 6),
            rounds_per_sec=round(timing.rounds_per_sec(), 1),
        )
        if spec.compute_bounds:
            from .baselines.offline import (
                offline_lower_bound,
                offline_split_runtime,
            )
            from .bounds.guarantees import async_cte_bound

            row["async_bound"] = round(
                async_cte_bound(tree.n, tree.depth, spec.k), 3
            )
            row["lower_bound"] = offline_lower_bound(tree.n, tree.depth, spec.k)
            row["offline_split"] = offline_split_runtime(tree, spec.k)
        return row

    def _run_reactive(self, observers, timing) -> Dict[str, object]:
        from .sim.reactive import run_reactive

        spec = self.spec
        tree = self.tree
        algorithm = registry.make_algorithm(
            spec.algorithm, policy=spec.policy, seed=spec.seed
        )
        adversary = registry.make_reactive_adversary(
            spec.adversary or "block-explorers",
            dict(spec.adversary_params),
            n=tree.n,
        )
        out = run_reactive(
            tree,
            algorithm,
            spec.k,
            adversary,
            max_wall_rounds=spec.max_rounds,
            observers=observers,
        )
        result = out.result
        row = self._base_row()
        row.update(
            n=tree.n,
            depth=tree.depth,
            max_degree=tree.max_degree,
            rounds=result.rounds,
            wall_rounds=result.wall_rounds,
            complete=result.complete,
            all_home=result.all_home,
            blocked_moves=out.blocked_moves,
            executed_moves=out.executed_moves,
            interference=round(out.interference, 4),
            elapsed=round(timing.elapsed, 6),
            rounds_per_sec=round(timing.rounds_per_sec(), 1),
        )
        if spec.compute_bounds:
            from .baselines.offline import (
                offline_lower_bound,
                offline_split_runtime,
            )
            from .bounds.guarantees import bfdn_bound

            row["bfdn_bound"] = bfdn_bound(
                tree.n, tree.depth, spec.k, tree.max_degree
            )
            row["lower_bound"] = offline_lower_bound(tree.n, tree.depth, spec.k)
            row["offline_split"] = offline_split_runtime(tree, spec.k)
        return row

    def _run_graph(self, observers, timing) -> Dict[str, object]:
        from .graphs.exploration import proposition9_bound, run_graph_bfdn

        spec = self.spec
        graph = self.graph
        result = run_graph_bfdn(
            graph, spec.k, max_rounds=spec.max_rounds, observers=observers
        )
        row = self._base_row()
        row.update(
            # Proposition 9's quantities are edges and radius; mapping
            # them onto the (n, depth) columns keeps sweep tables
            # uniform.  ``nodes`` carries the actual substrate size.
            n=graph.num_edges,
            depth=graph.radius,
            max_degree=graph.max_degree,
            nodes=graph.n,
            rounds=result.rounds,
            wall_rounds=result.rounds,
            complete=result.complete,
            all_home=result.all_home,
            closed_edges=result.closed_edges,
            elapsed=round(timing.elapsed, 6),
            rounds_per_sec=round(timing.rounds_per_sec(), 1),
        )
        if spec.compute_bounds:
            row["bfdn_bound"] = proposition9_bound(
                graph.num_edges, graph.radius, spec.k, graph.max_degree
            )
            row["lower_bound"] = 2 * graph.num_edges // spec.k
            row["offline_split"] = 0
        return row

    def _run_game(self, observers, timing) -> Dict[str, object]:
        from .game import UrnBoard, play_game

        spec = self.spec
        board = UrnBoard(spec.k, self.delta)
        player = registry.make_game_player(
            spec.policy or "balanced", seed=spec.seed
        )
        adversary = registry.make_game_adversary(
            spec.adversary or "greedy",
            seed=spec.seed,
            k=spec.k,
            delta=self.delta,
        )
        record = play_game(
            board,
            adversary,
            player,
            max_steps=spec.max_rounds,
            observers=observers,
        )
        row = self._base_row()
        row.update(
            n=spec.k,
            depth=self.delta,
            max_degree=self.delta,
            rounds=record.steps,
            wall_rounds=record.steps,
            complete=board.is_over(),
            all_home=board.is_over(),
            elapsed=round(timing.elapsed, 6),
            rounds_per_sec=round(timing.rounds_per_sec(), 1),
        )
        if spec.compute_bounds:
            row["bfdn_bound"] = board.theorem3_bound()
            row["lower_bound"] = spec.k
            row["offline_split"] = 0
        return row


def run_scenario(spec: ScenarioSpec) -> Dict[str, object]:
    """Execute one scenario spec and return its flat result row.

    This is the pure worker function the orchestrator ships to worker
    processes; everything it needs travels inside ``spec``.
    """
    return spec.build().run()


def preload() -> None:
    """Import the modules a first run of any kind would load.

    :meth:`BuiltScenario.run` imports its row observers, the array
    backend and the urn game on first use, so a process that only parses
    or fingerprints specs never loads them.  A process about to fork
    sweep workers or to accept requests calls this first; otherwise each
    forked worker of every batch, or the first request of a kind, pays
    for the import.
    """
    from . import game  # noqa: F401
    from .obs import resources  # noqa: F401
    from .perf import timing  # noqa: F401
    from .sim import array_backend  # noqa: F401


# ---------------------------------------------------------------------
# Grid enumeration helper
# ---------------------------------------------------------------------

def scenario_grid(
    algorithms: Sequence[str],
    workloads: Sequence[Tuple[str, TreeSpec]],
    team_sizes: Sequence[int],
    *,
    policy: Optional[str] = None,
    adversary: Optional[str] = None,
    adversary_params: Union[Mapping[str, object], Params, None] = None,
    max_rounds: Optional[int] = None,
    compute_bounds: bool = True,
    speed: Optional[str] = None,
    speed_params: Union[Mapping[str, object], Params, None] = None,
) -> "list[ScenarioSpec]":
    """Enumerate the ``(workload × k × algorithm)`` grid as scenario specs.

    The scenario kind is inferred per algorithm from the registry: tree
    algorithms with an adversary that is reactive become ``reactive``
    scenarios, with a break-down adversary ``tree`` scenarios; graph and
    game entry points keep their kinds.  This is the shared enumeration
    behind ``run_sweep_cached`` and the ``repro sweep`` CLI.

    ``speed`` switches the grid to the asynchronous model: tree
    algorithms that are async-capable (``registry.ASYNC_ALGORITHMS``)
    become ``async-tree`` scenarios driven by the named speed schedule;
    combining ``speed`` with an ``adversary`` is rejected (the schedule
    *is* the adversary in the asynchronous model).
    """
    if speed is not None and adversary is not None:
        raise ValueError(
            "speed schedules and adversaries are mutually exclusive: in "
            "the asynchronous model the speed schedule is the adversary"
        )
    frozen = freeze_params(adversary_params)
    frozen_speed = freeze_params(speed_params)
    specs = []
    for label, substrate in workloads:
        for k in team_sizes:
            for name in algorithms:
                kind = registry.workload_kind(name)
                if kind == "tree" and adversary is not None:
                    kind = registry.ADVERSARIES.get(adversary, "tree")
                    if kind not in ("tree", "reactive"):
                        kind = "tree"
                if (
                    speed is not None
                    and kind == "tree"
                    and name in registry.ASYNC_ALGORITHMS
                ):
                    kind = "async-tree"
                async_kind = kind == "async-tree"
                specs.append(
                    ScenarioSpec(
                        kind=kind,
                        algorithm=name,
                        substrate=substrate,
                        k=k,
                        label=label,
                        policy=policy if kind in ("tree", "reactive") else None,
                        adversary=adversary if kind in ("tree", "reactive") else None,
                        adversary_params=frozen if kind in ("tree", "reactive") else (),
                        max_rounds=max_rounds,
                        compute_bounds=compute_bounds,
                        speed=speed if async_kind else None,
                        speed_params=frozen_speed if async_kind else (),
                    )
                )
    return specs


__all__ = [
    "KINDS",
    "BuiltScenario",
    "ScenarioSpec",
    "freeze_params",
    "preload",
    "run_scenario",
    "scenario_grid",
]
