"""The per-round engine metrics observer.

:class:`MetricsObserver` is the bridge from the shared
:class:`~repro.sim.runloop.RoundEngine` into the telemetry event log.
It extends :class:`~repro.perf.timing.TimingObserver`, which already
counts rounds, billed rounds and reveals and accumulates the engine's
per-phase wall times, with the moves, interference blocks, idle
robot-rounds and re-anchors of the run, and periodically flushes the
cumulative counters as ``round`` events carrying its trace/span ids.
"""

from __future__ import annotations

from itertools import repeat
from operator import countOf, itemgetter
from typing import Any, Dict

from ..perf.timing import TimingObserver
from ..sim.runloop import RoundRecord, RoundState, RunOutcome, _is_mover
from .writer import NullWriter

_first = itemgetter(0)

#: Moves per round above which :meth:`MetricsObserver.on_round` counts
#: movers in C.  Below it the per-move test is cheaper than setting up
#: the C-level count (measured on CPython 3.11: 0.5 vs 1.4 us for one
#: move, 12.6 vs 8.9 us for 64; the two cross at about 8).
_C_COUNT_MIN_MOVES = 8


class MetricsObserver(TimingObserver):
    """Streams per-round engine metrics into the event log.

    On top of the :class:`~repro.perf.timing.TimingObserver` counters it
    counts, per run: mover moves executed, interference-struck moves,
    idle robot-rounds and re-anchor calls (tree states expose them
    through ``state.expl.metrics.reanchors``).  Every ``every`` rounds —
    and once at termination — the cumulative counters are flushed as
    one ``round`` telemetry event carrying the observer's trace/span
    ids.

    Batch-capable: on the array fast path the same counters arrive in
    one whole-run summary (:meth:`on_batch`), so such a run emits no
    intermediate ``round`` events, only the final one.
    """

    def __init__(
        self,
        writer=None,
        span_id: str = "",
        fingerprint: str = "",
        label: str = "",
        every: int = 100,
    ):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.writer = writer if writer is not None else NullWriter()
        self.span_id = span_id
        self.fingerprint = fingerprint
        self.label = label
        self.every = every
        super().__init__()

    def reset(self) -> None:
        """Zero every counter (also called by ``on_attach``)."""
        super().reset()
        self.moves = 0
        self.blocked = 0
        self.idle = 0
        self.reanchors = 0
        self._reanchor_seen = 0

    # ------------------------------------------------------------------
    def on_round(self, state: RoundState, record: RoundRecord) -> None:
        """Fold one :class:`RoundRecord` into the counters."""
        super().on_round(state, record)
        moves = record.moves
        movers = 0
        if isinstance(moves, dict):
            values = moves.values()
            if (
                not record.struck
                and len(values) > _C_COUNT_MIN_MOVES
                and all(map(isinstance, values, repeat(tuple)))
                and () not in values
            ):
                # Every move is a non-empty tuple and none was struck:
                # the movers are the moves whose kind is not "stay".
                movers = len(values) - countOf(map(_first, values), "stay")
            else:
                for agent, move in moves.items():
                    if not _is_mover(move):
                        continue
                    if agent in record.struck:
                        self.blocked += 1
                    else:
                        movers += 1
        self.moves += movers
        team = state.team()
        if team is not None and record.billed > record.billed_before:
            self.idle += len(team) - movers
        metrics = getattr(getattr(state, "expl", None), "metrics", None)
        if metrics is not None:
            total = len(metrics.reanchors)
            self.reanchors += total - self._reanchor_seen
            self._reanchor_seen = total
        if self.rounds % self.every == 0:
            self._flush(record.t + 1, final=False)

    def on_batch(self, state: RoundState, summary: Dict[str, Any]) -> None:
        """Take the array fast path's whole-run totals as the counters."""
        super().on_batch(state, summary)
        self.moves = summary["moves"]
        self.idle = summary["idle"]
        self.reanchors = summary["reanchors"]

    def on_stop(self, state: RoundState, outcome: RunOutcome) -> None:
        """Flush the final cumulative ``round`` event.

        Asynchronous runs publish their per-robot clock on the state
        (:class:`~repro.sim.scheduler.AsyncClock`); when present, its
        summary goes out as one ``clock`` event so trace readers
        (``repro tail``) can attribute wall time to the slowest robot.
        """
        super().on_stop(state, outcome)
        self._flush(outcome.wall_rounds, final=True)
        clock = getattr(state, "clock", None)
        if clock is not None and hasattr(clock, "summary"):
            self.writer.emit(
                "clock",
                span_id=self.span_id,
                fingerprint=self.fingerprint,
                label=self.label,
                data=clock.summary(),
            )

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Flat cumulative counters (merged into orchestrator rows)."""
        return {
            "rounds": self.rounds,
            "billed_rounds": self.billed_rounds,
            "moves": self.moves,
            "blocked": self.blocked,
            "idle": self.idle,
            "reveals": self.reveals,
            "reanchors": self.reanchors,
            "select_s": round(self.select_s, 6),
            "apply_s": round(self.apply_s, 6),
            "observe_s": round(self.observe_s, 6),
        }

    def _flush(self, wall_round: int, final: bool) -> None:
        data = self.snapshot()
        data["wall_round"] = wall_round
        data["final"] = final
        self.writer.emit(
            "round",
            span_id=self.span_id,
            fingerprint=self.fingerprint,
            label=self.label,
            data=data,
        )


__all__ = ["MetricsObserver"]
