"""Telemetry runs give the same answers on both loops.

The telemetry observers are batch-capable, so a plain BFDN
``run_telemetry_job`` takes the array fast path; attaching any
per-round observer (here a bare ``RoundObserver``) forces the scheduler
loop.  Every budget quantity is cumulative, so apart from timing, ids
and the ``backend`` column the two rows — and the final ``round`` and
``budget`` events — must be identical.
"""

import pytest

from repro.obs.runner import TelemetryJob, run_telemetry_job
from repro.obs.writer import TelemetryConfig, read_events
from repro.orchestrator import TreeSpec
from repro.scenario import ScenarioSpec
from repro.sim.runloop import RoundObserver

from .test_telemetry_row_pins import UNPINNED

#: Row columns allowed to differ between the loops.
VARYING = UNPINNED | {"backend"}

#: Event-payload fields allowed to differ (per-phase wall time).
PHASE_FIELDS = ("select_s", "apply_s", "observe_s")

#: (family, n): n kept between 60 and 300.
TREES = (
    ("random", 300),
    ("comb", 120),
    ("spider", 200),
    ("star", 60),
    ("caterpillar", 150),
)

CASES = [(family, n, k) for family, n in TREES for k in (1, 2, 5, 16)]


def _telemetry(family, n, k, trace_dir, extra_observers=()):
    """One bfdn telemetry run: its row and its span's events."""
    spec = ScenarioSpec(
        kind="tree",
        algorithm="bfdn",
        substrate=TreeSpec.named(family, n, seed=3),
        k=k,
        seed=3,
    )
    # A short flush period gives the scheduler loop intermediate events.
    config = TelemetryConfig.create(str(trace_dir), round_every=7)
    job = TelemetryJob(spec=spec, config=config)
    row = run_telemetry_job(job, extra_observers=extra_observers)
    events = [ev for ev in read_events(config.path) if ev.span_id == job.span_id]
    return row, events


def _final(events, kind):
    finals = [ev for ev in events if ev.event == kind and ev.data["final"]]
    assert len(finals) == 1, kind
    data = dict(finals[0].data)
    for name in PHASE_FIELDS:
        data.pop(name, None)
    return data


@pytest.mark.parametrize(
    "family,n,k", CASES, ids=[f"{f}-{n}-k{k}" for f, n, k in CASES]
)
def test_rows_and_final_events_match_across_loops(family, n, k, tmp_path):
    fast_row, fast_events = _telemetry(family, n, k, tmp_path / "fast")
    ref_row, ref_events = _telemetry(
        family, n, k, tmp_path / "ref", extra_observers=[RoundObserver()]
    )
    assert fast_row["backend"] == "array"
    assert ref_row["backend"] == "reference"
    assert {key: v for key, v in fast_row.items() if key not in VARYING} == {
        key: v for key, v in ref_row.items() if key not in VARYING
    }
    for kind in ("round", "budget"):
        assert _final(fast_events, kind) == _final(ref_events, kind), kind
    # The fast path's span has no intermediate round or budget events.
    assert [ev.event for ev in fast_events if ev.event in ("round", "budget")] == [
        "round", "budget"
    ]
    ends = {
        ev.data["backend"] for ev in fast_events + ref_events
        if ev.event == "run_end"
    }
    assert ends == {"array", "reference"}
