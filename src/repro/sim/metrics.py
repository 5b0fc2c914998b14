"""Metrics collected during a simulated exploration.

The fields mirror the quantities the paper's analysis reasons about:
rounds, idle rounds (Claim 1), per-depth re-anchor counts (Lemma 2),
edge first-traversals (Claim 2) and per-robot move counts (used for the
``T_i^1 / T_i^2`` decomposition in the proof of Theorem 1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ReanchorRecord:
    """One call to ``Reanchor`` that assigned a new anchor."""

    round: int
    robot: int
    anchor: int
    depth: int


@dataclass
class ExplorationMetrics:
    """Aggregated counters for one exploration run."""

    rounds: int = 0
    #: Rounds in which at least one robot did not move (Claim 1 bounds
    #: this by D + 1 for BFDN).
    idle_rounds: int = 0
    #: Total robot-moves (edges traversed, counted with multiplicity).
    total_moves: int = 0
    #: Moves per robot.
    moves_per_robot: Counter = field(default_factory=Counter)
    #: Number of dangling-edge first traversals (== n - 1 at the end).
    reveals: int = 0
    #: Re-anchor log, appended by anchor-based algorithms.
    reanchors: List[ReanchorRecord] = field(default_factory=list)
    #: Team size: robots ``0 .. k - 1``.
    k: int = 0

    @property
    def idle_per_robot(self) -> Counter:
        """Idle billed rounds per robot, ``rounds - moves_per_robot[i]``
        (each billed round a robot moved or idled); robots with none are
        left out."""
        rounds, moves = self.rounds, self.moves_per_robot
        return Counter({i: rounds - moves[i] for i in range(self.k) if moves[i] < rounds})

    def reanchors_per_depth(self) -> Dict[int, int]:
        """Number of ``Reanchor`` calls returning an anchor at each depth.

        Lemma 2: for BFDN this is at most ``k (min(log k, log D) + 3)`` at
        every depth ``d >= 1``.
        """
        counts: Counter = Counter()
        for rec in self.reanchors:
            counts[rec.depth] += 1
        return dict(counts)

    def log_reanchor(self, round_: int, robot: int, anchor: int, depth: int) -> None:
        """Record one anchor assignment (called by algorithms)."""
        self.reanchors.append(ReanchorRecord(round_, robot, anchor, depth))

    def summary(self) -> Dict[str, float]:
        """A flat summary convenient for tables."""
        return {
            "rounds": self.rounds,
            "idle_rounds": self.idle_rounds,
            "total_moves": self.total_moves,
            "reveals": self.reveals,
            "reanchor_calls": len(self.reanchors),
        }
