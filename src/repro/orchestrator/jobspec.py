"""Canonical job specifications and deterministic fingerprints.

A :class:`JobSpec` pins everything that determines a simulation's outcome
— the algorithm name, the tree (either a named generator family with its
``(n, seed)`` or an explicit parent array), the team size ``k``, the run
seed and the engine options — and hashes a canonical JSON encoding of it
to a stable sha256 fingerprint.  The fingerprint is the key of the
content-addressed result store: two sweeps that describe the same job in
different orders, or with defaulted vs. explicit option values, map to
the same cache entry.

Presentation-only fields (the display ``label``) are deliberately *not*
fingerprinted, so relabelling a workload does not invalidate its cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .. import registry
from ..trees.tree import Tree

#: Bump when the result row schema or the canonical encoding changes;
#: the store ignores rows written under a different tag.
#: v2: workers run under the perf timing observer, rows carry
#: ``rounds_per_sec`` and ``elapsed`` measures engine time only.
#: v3: jobs are described by :class:`repro.scenario.ScenarioSpec`; the
#: canonical encoding gains ``kind``, ``policy``, ``adversary``,
#: ``adversary_params`` and ``params`` keys, and a plain ``JobSpec``
#: fingerprints identically to its equivalent scenario.  Migration: v2
#: cache rows are *not* rewritten — the store filters rows by schema
#: tag, so v2 entries are simply ignored and jobs re-run once under v3.
#: v4: every run is bracketed by the resource sampler, so rows gain the
#: ``cpu_sec`` / ``cpu_user_s`` / ``cpu_sys_s`` / ``max_rss_kb`` (and,
#: where RAPL is readable, ``energy_j``) accounting columns consumed by
#: ``repro report``.  Migration follows the v2→v3 pattern: v3 cache
#: rows are ignored by tag and jobs re-run once under v4.
SCHEMA_VERSION = "repro-orchestrator-v4"


@dataclass(frozen=True)
class TreeSpec:
    """A reproducible description of a rooted tree.

    Either a named family (``family``, ``n``, ``seed`` — resolved through
    :func:`repro.registry.make_tree`) or an explicit ``parents`` array.
    Named specs keep fingerprints and cache entries small; parent arrays
    make any concrete tree cacheable.
    """

    family: Optional[str] = None
    n: int = 0
    seed: int = 0
    parents: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if (self.family is None) == (self.parents is None):
            raise ValueError("specify exactly one of family= or parents=")
        if self.family is not None and self.n < 1:
            raise ValueError("named tree specs need n >= 1")

    @classmethod
    def from_tree(cls, tree: Tree) -> "TreeSpec":
        """Spec for a concrete tree, via its parent array."""
        parents = tuple(
            -1 if v == 0 else tree.parent(v) for v in range(tree.n)
        )
        return cls(parents=parents)

    @classmethod
    def named(cls, family: str, n: int, seed: int = 0) -> "TreeSpec":
        """Spec for a registry family; validates the name eagerly.

        Accepts tree families, graph families and the urn-game pseudo
        family (where ``n`` is the threshold ``Delta``); which one is
        meaningful depends on the job's entry-point kind.
        """
        known = (
            set(registry.tree_families()) | set(registry.GRAPHS) | {registry.GAME_FAMILY}
        )
        if family not in known:
            raise ValueError(
                f"unknown tree family {family!r} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(family=family, n=n, seed=seed)

    def materialize(self) -> Tree:
        """Build the concrete :class:`~repro.trees.tree.Tree`."""
        if self.parents is not None:
            return Tree([-1] + list(self.parents[1:]))
        assert self.family is not None
        return registry.make_tree(self.family, self.n, self.seed)

    def canonical(self) -> Dict[str, object]:
        """Order-stable dict feeding the fingerprint."""
        if self.parents is not None:
            return {"parents": list(self.parents)}
        return {"family": self.family, "n": self.n, "seed": self.seed}


@dataclass(frozen=True)
class JobSpec:
    """One simulation to run, fully pinned and fingerprintable."""

    algorithm: str
    tree: TreeSpec
    k: int
    seed: int = 0
    #: Display label carried into result rows; NOT fingerprinted.
    label: str = ""
    max_rounds: Optional[int] = None
    #: ``None`` resolves to the registry default for the algorithm.
    allow_shared_reveal: Optional[bool] = None
    #: Also compute the Theorem 1 bound and the offline lower bounds in
    #: the worker, so a cache hit skips *all* recomputation.
    compute_bounds: bool = False

    def __post_init__(self) -> None:
        # workload_kind raises for names that are neither tree algorithms
        # nor registered entry points (graph-bfdn, urn-game).
        registry.workload_kind(self.algorithm)
        if self.k < 1:
            raise ValueError("team size k must be >= 1")

    def shared_reveal(self) -> bool:
        """The resolved shared-reveal flag (explicit or registry default)."""
        if self.allow_shared_reveal is not None:
            return self.allow_shared_reveal
        return registry.shared_reveal_default(self.algorithm)

    def to_scenario(self):
        """The equivalent :class:`repro.scenario.ScenarioSpec`.

        A ``JobSpec`` is the adversary-free, policy-free special case of
        a scenario; converting here (rather than keeping two run paths)
        means both spell the same canonical encoding and share one cache
        namespace.
        """
        from ..scenario import ScenarioSpec  # local: avoid import cycle

        return ScenarioSpec(
            kind=registry.workload_kind(self.algorithm),
            algorithm=self.algorithm,
            substrate=self.tree,
            k=self.k,
            seed=self.seed,
            label=self.label,
            max_rounds=self.max_rounds,
            allow_shared_reveal=self.allow_shared_reveal,
            compute_bounds=self.compute_bounds,
        )

    def canonical(self) -> Dict[str, object]:
        """Canonical encoding: resolved defaults, no presentation fields.

        Delegates to the equivalent scenario, so a ``JobSpec`` and the
        ``ScenarioSpec`` it denotes fingerprint identically (and hit the
        same cache entries).
        """
        return self.to_scenario().canonical()

    def fingerprint(self) -> str:
        """Stable sha256 hex digest of the canonical encoding."""
        payload = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_jobspec(spec) -> Dict[str, object]:
    """Execute one job or scenario spec and return its flat result row.

    This is the pure worker function the executor ships to worker
    processes; everything it needs travels inside ``spec``.  Accepts a
    :class:`JobSpec` (converted to its equivalent scenario) or a
    :class:`repro.scenario.ScenarioSpec` directly; either way the run
    goes through the one ``build()``/``run()`` path into the round
    engine.
    """
    if isinstance(spec, JobSpec):
        spec = spec.to_scenario()
    return spec.build().run()


__all__ = ["SCHEMA_VERSION", "JobSpec", "TreeSpec", "run_jobspec"]
