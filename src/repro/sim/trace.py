"""Trace recording and replay.

A :class:`TraceObserver` hooks the round engine and logs every round's
robot positions and surviving moves.  Traces serve three purposes: debugging,
golden-file regression tests, and driving visualisations.  A recorded trace
can be *replayed* against the same tree to verify it is a legal execution
(every move valid, synchronous semantics respected).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..trees.partial import PartialTree
from ..trees.tree import Tree
from .engine import Exploration, Move, TreeRoundState
from .runloop import RoundObserver, RoundRecord


@dataclass
class TraceRound:
    """One round of a recorded execution."""

    round: int
    positions_before: List[int]
    moves: Dict[int, Move]


@dataclass
class Trace:
    """A full recorded execution."""

    k: int
    rounds: List[TraceRound] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "k": self.k,
            "rounds": [
                {
                    "round": r.round,
                    "positions": list(r.positions_before),
                    "moves": {str(i): list(m) for i, m in r.moves.items()},
                }
                for r in self.rounds
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Trace":
        """Inverse of :meth:`to_dict`."""
        trace = cls(k=data["k"])
        for r in data["rounds"]:
            trace.rounds.append(
                TraceRound(
                    round=r["round"],
                    positions_before=list(r["positions"]),
                    moves={int(i): tuple(m) for i, m in r["moves"].items()},
                )
            )
        return trace


class TraceObserver(RoundObserver):
    """Round-engine observer that records a replayable :class:`Trace`.

    It hooks the engine rather than the algorithm and records the moves
    that *survived* interference — so the trace replays cleanly even for
    runs under a reactive adversary.  Pass it to ``Simulator`` via the
    ``observers`` parameter, or use ``--observe trace`` from the CLI.
    """

    def __init__(self) -> None:
        self.trace: Trace = Trace(k=0)

    def on_attach(self, state: TreeRoundState) -> None:
        """Start a fresh trace for this run."""
        self.trace = Trace(k=state.expl.k)

    def on_round(self, state: TreeRoundState, record: RoundRecord) -> None:
        """Record the round's pre-move positions and surviving moves."""
        self.trace.rounds.append(
            TraceRound(
                round=record.billed_before,
                positions_before=list(record.before),
                moves=dict(record.surviving_moves()),
            )
        )


def replay(trace: Trace, tree: Tree, allow_shared_reveal: bool = False) -> Tuple[int, PartialTree]:
    """Re-execute a trace on ``tree`` and validate every move.

    Returns the number of (billed) rounds and the final partial tree.
    Raises if any recorded move is illegal, which makes traces usable as
    machine-checked certificates of an execution.
    """
    expl = Exploration(tree, trace.k, allow_shared_reveal)
    everyone = set(range(trace.k))
    for entry in trace.rounds:
        if entry.positions_before != expl.positions:
            raise ValueError(
                f"trace mismatch at round {entry.round}: positions "
                f"{entry.positions_before} != {expl.positions}"
            )
        expl.apply(entry.moves, everyone)
    return expl.round, expl.ptree
