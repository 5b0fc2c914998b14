"""Tree substrates, the cache schema tag and the pool's worker function.

Jobs are described by :class:`repro.scenario.ScenarioSpec`, which pins
everything that determines a run's outcome and hashes a canonical JSON
encoding of it to the sha256 fingerprint keying the content-addressed
result store.  This module holds the pieces underneath it:

* :class:`TreeSpec` — a reproducible substrate (a named registry family
  with ``(n, seed)``, or an explicit parent array);
* :data:`SCHEMA_VERSION` — the tag every canonical encoding and cached
  row carries;
* :func:`run_jobspec` — the worker function the executor ships to pool
  processes.
"""

from __future__ import annotations

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
#: ``adversary_params`` and ``params`` keys (a plain algorithm-on-tree
#: job is the adversary-free, policy-free tree scenario).  Migration: v2
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


def run_jobspec(spec) -> Dict[str, object]:
    """Execute one :class:`repro.scenario.ScenarioSpec`; return its row.

    This is the pure worker function the executor ships to worker
    processes; everything it needs travels inside ``spec``.  The
    executor looks it up as a module global at dispatch time, so a
    wrapper patched over ``repro.orchestrator.executor.run_jobspec``
    sees every job of a batch.
    """
    return spec.build().run()


__all__ = ["SCHEMA_VERSION", "TreeSpec", "run_jobspec"]
