"""Low-overhead per-run timing instrumentation.

:class:`TimingObserver` plugs into the shared
:class:`~repro.sim.runloop.RoundEngine` and aggregates, for one run:

* wall time per engine phase — move selection (``select``), the
  synchronous state update (``apply``), and the policy's post-round
  observation (``observe``);
* round and reveal counters, and the derived rounds/sec and reveals/sec
  throughputs.

The engine only reads the clock when an attached observer sets
``wants_phase_timing``, so instrumented and uninstrumented runs share
the same loop and the uninstrumented path stays free.  One observer
instance can be reused across runs: ``on_attach`` resets it.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Optional

from ..sim.runloop import RoundObserver, RoundRecord, RoundState, RunOutcome


class TimingObserver(RoundObserver):
    """Accumulates per-phase wall time and throughput for one run.

    Batch-capable: the array fast path reports one whole-run summary
    through :meth:`on_batch` instead of per-round records; its fused
    loop has no select/observe phases, so it attributes its simulation
    time to ``apply`` (folded in only when ``wants_phase_timing``, as on
    the scheduler loop).
    """

    wants_phase_timing = True
    supports_batch = True

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (also called by ``on_attach``)."""
        self.rounds = 0
        self.billed_rounds = 0
        self.reveals = 0
        #: The loop that actually ran: the array fast path announces
        #: itself via ``on_batch``; the per-round path means the
        #: reference (scheduler) loop.
        self.backend = "reference"
        self.select_s = 0.0
        self.apply_s = 0.0
        self.observe_s = 0.0
        self.elapsed = 0.0
        self.stop_reason: Optional[str] = None
        self._started = 0.0

    # ------------------------------------------------------------------
    def on_attach(self, state: RoundState) -> None:
        """Start the run clock."""
        self.reset()
        self._started = perf_counter()

    def on_phase_times(
        self, select_s: float, apply_s: float, observe_s: float
    ) -> None:
        """Accumulate one round's phase durations."""
        self.select_s += select_s
        self.apply_s += apply_s
        self.observe_s += observe_s

    def on_round(self, state: RoundState, record: RoundRecord) -> None:
        """Count the round and its events."""
        self.rounds += 1
        self.billed_rounds = record.billed
        events = record.events
        if events is not None:
            try:
                self.reveals += len(events)
            except TypeError:
                pass

    def on_batch(self, state: RoundState, summary: Dict[str, Any]) -> None:
        """Fold the array fast path's whole-run summary into the counters."""
        self.rounds = summary.get("rounds", 0)
        self.billed_rounds = summary.get("billed", 0)
        self.reveals = summary.get("reveals", 0)
        self.backend = summary.get("backend", "reference")
        phases = summary.get("phases")
        if phases and self.wants_phase_timing:
            self.select_s = phases.get("select", 0.0)
            self.apply_s = phases.get("apply", 0.0)
            self.observe_s = phases.get("observe", 0.0)

    def on_stop(self, state: RoundState, outcome: RunOutcome) -> None:
        """Freeze the totals."""
        self.elapsed = perf_counter() - self._started
        self.billed_rounds = outcome.billed_rounds
        self.stop_reason = outcome.stop_reason

    # ------------------------------------------------------------------
    def rounds_per_sec(self) -> float:
        """Wall-clock rounds per second over the whole run."""
        return self.rounds / self.elapsed if self.elapsed > 0 else 0.0

    def reveals_per_sec(self) -> float:
        """Reveal events per second over the whole run."""
        return self.reveals / self.elapsed if self.elapsed > 0 else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Machine-readable summary (the bench snapshot's per-case core).

        ``phases`` carries absolute seconds; ``phase_fractions`` the same
        normalised by the measured phase total, which excludes the
        engine's own bookkeeping (record construction, observer
        dispatch, termination tests).
        """
        phase_total = self.select_s + self.apply_s + self.observe_s
        fractions = (
            {
                "select": self.select_s / phase_total,
                "apply": self.apply_s / phase_total,
                "observe": self.observe_s / phase_total,
            }
            if phase_total > 0
            else {"select": 0.0, "apply": 0.0, "observe": 0.0}
        )
        return {
            "rounds": self.rounds,
            "billed_rounds": self.billed_rounds,
            "reveals": self.reveals,
            "backend": self.backend,
            "elapsed": self.elapsed,
            "rounds_per_sec": self.rounds_per_sec(),
            "reveals_per_sec": self.reveals_per_sec(),
            "phases": {
                "select": self.select_s,
                "apply": self.apply_s,
                "observe": self.observe_s,
            },
            "phase_fractions": fractions,
            "stop_reason": self.stop_reason,
        }


__all__ = ["TimingObserver"]
