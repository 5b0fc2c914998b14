"""Per-round time series of an exploration run.

The paper's analysis is organised around quantities that evolve round by
round — the *working depth* (minimum depth of an open node, which is
non-decreasing and drives ``Reanchor``), the number of explored nodes,
the robots' depth profile.  :class:`TimeSeriesObserver` hooks the round
engine and samples these each round, enabling the working-depth
progression plots/checks and regression tests on the exploration dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .engine import Exploration, TreeRoundState
from .runloop import RoundObserver, RoundRecord


@dataclass
class RoundSample:
    """One row of the time series (sampled after the round's moves)."""

    round: int
    explored: int
    dangling: int
    working_depth: Optional[int]
    robots_at_root: int
    max_robot_depth: int
    mean_robot_depth: float


@dataclass
class TimeSeries:
    """The full per-round record of one run."""

    samples: List[RoundSample] = field(default_factory=list)

    def column(self, name: str) -> List:
        """One column across all samples."""
        return [getattr(s, name) for s in self.samples]

    def working_depth_is_monotone(self) -> bool:
        """The paper's key structural fact: the minimum open depth never
        decreases during an execution."""
        last = -1
        for s in self.samples:
            if s.working_depth is None:
                continue
            if s.working_depth < last:
                return False
            last = s.working_depth
        return True

    def exploration_rate(self) -> float:
        """Average nodes revealed per round."""
        if not self.samples:
            return 0.0
        first, final = self.samples[0], self.samples[-1]
        rounds = max(final.round - first.round, 1)
        return (final.explored - first.explored) / rounds


def sample_round(expl: Exploration) -> RoundSample:
    """Snapshot the exploration state as one :class:`RoundSample`."""
    ptree = expl.ptree
    depths = [ptree.node_depth(p) for p in expl.positions]
    return RoundSample(
        round=expl.round,
        explored=ptree.num_explored,
        dangling=ptree.num_dangling,
        working_depth=ptree.min_open_depth,
        robots_at_root=sum(1 for p in expl.positions if p == expl.tree.root),
        max_robot_depth=max(depths),
        mean_robot_depth=sum(depths) / len(depths),
    )


class TimeSeriesObserver(RoundObserver):
    """Round-engine observer sampling the exploration state each round.

    It hooks the engine rather than wrapping the algorithm, so it
    composes with any algorithm (and any other observer) without changing
    the algorithm's ``name``.  Samples once on attach and once after
    every round.
    """

    def __init__(self) -> None:
        self.series = TimeSeries()

    def on_attach(self, state: TreeRoundState) -> None:
        """Reset the series and take the round-0 sample."""
        self.series = TimeSeries()
        self.series.samples.append(sample_round(state.expl))

    def on_round(self, state: TreeRoundState, record: RoundRecord) -> None:
        """Sample the post-round state."""
        self.series.samples.append(sample_round(state.expl))
