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

from typing import Any, Dict

from ..perf.timing import TimingObserver
from ..sim.runloop import RoundRecord, RoundState, RunOutcome, _is_mover
from .writer import NullWriter


class MetricsObserver(TimingObserver):
    """Streams per-round engine metrics into the event log.

    On top of the :class:`~repro.perf.timing.TimingObserver` counters it
    reports, per run: moves executed and idle robot-rounds, read from the
    state's own counters (``executed_moves()``; ``k`` times the billed
    rounds less the moves), re-anchor calls (tree states log them in
    ``state.expl.metrics.reanchors``) and interference-struck mover
    moves, the one count it takes per round.  Every ``every`` rounds —
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
        self._state = None

    # ------------------------------------------------------------------
    def on_attach(self, state: RoundState) -> None:
        """Start the run clock and keep the state whose counters it reads."""
        super().on_attach(state)
        self._state = state

    def on_round(self, state: RoundState, record: RoundRecord) -> None:
        """Count the round's struck movers; flush every ``every`` rounds."""
        super().on_round(state, record)
        struck = record.struck
        if struck and isinstance(record.moves, dict):
            self.blocked += sum(map(_is_mover, map(record.moves.get, struck)))
        if self.rounds % self.every == 0:
            self._flush(record.t + 1, final=False)

    def on_batch(self, state: RoundState, summary: Dict[str, Any]) -> None:
        """Take the array fast path's whole-run totals as the counters."""
        super().on_batch(state, summary)
        self._state = None
        self.moves = summary["moves"]
        self.idle = summary["idle"]
        self.reanchors = summary["reanchors"]

    def _read_counters(self) -> None:
        """Take moves, idle robot-rounds and re-anchors from the run's own
        counters: each billed round a robot moved or idled, and models
        without a team (the urn game) have neither."""
        state = self._state
        if state is None:
            return
        team = state.team()
        if team is not None:
            self.moves = state.executed_moves()
            self.idle = self.billed_rounds * len(team) - self.moves
        metrics = getattr(getattr(state, "expl", None), "metrics", None)
        if metrics is not None:
            self.reanchors = len(metrics.reanchors)

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
        self._read_counters()
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
