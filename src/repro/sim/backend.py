"""Engine backend names and the array fallback log.

The round engine's *protocol* (state / policy / interference /
observers) is fixed; **how** a run is driven to termination is a
backend decision.  Two backends ship:

* ``reference`` — the scheduler's round loop
  (:meth:`repro.sim.scheduler.Scheduler.run`), the semantics oracle.
  Every model and every observer runs here.
* ``array`` — :mod:`repro.sim.array_backend`: flat-array state plus an
  event-driven round loop for the standard BFDN-on-tree model, ~10-30x
  the reference's rounds/sec.  ``RoundEngine.run`` calls it directly;
  it *declines* configurations outside its supported envelope (other
  algorithms, adversaries, non-batch observers, graph/game states) and
  the engine falls back to the reference loop — same results, reference
  speed — logging the reason once per process.

Names are checked by :func:`validate_backend`; unknown names raise the
registry-style "known names" ValueError, so the same message surfaces
from the CLI, :class:`~repro.scenario.ScenarioSpec` validation and the
serve daemon.
"""

from __future__ import annotations

import logging
from typing import Set, Tuple

logger = logging.getLogger(__name__)

#: The default backend: the dict-based loop, able to run everything.
DEFAULT_BACKEND = "reference"

#: Known backend names (sorted; the single authority for validation).
BACKENDS: Tuple[str, ...] = ("array", "reference")


def validate_backend(name: str) -> str:
    """Return ``name`` if it is a known backend, else raise ValueError."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r} (known: {', '.join(BACKENDS)})"
        )
    return name


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this process.

    Both shipped backends are always available — ``array`` degrades to
    its pure-python path when numpy is missing rather than disappearing.
    The indirection exists so the serve daemon can refuse requests for
    backends a *differently built* server does not carry.
    """
    return BACKENDS


#: Reasons already logged for declined array runs (log once per process,
#: not once per run — sweeps run thousands of scenarios).
_warned_fallbacks: Set[str] = set()


def note_fallback(reason: str) -> None:
    """Log one warning per distinct fallback reason per process."""
    if reason not in _warned_fallbacks:
        _warned_fallbacks.add(reason)
        logger.warning("backend=array falling back to reference: %s", reason)


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "available_backends",
    "note_fallback",
    "validate_backend",
]
