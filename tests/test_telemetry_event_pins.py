"""Pinned telemetry traces: the observers' events must not drift.

``tests/data/telemetry_events.json`` holds, for every case of
:mod:`tests.test_telemetry_row_pins`, the event log one
``run_telemetry_job`` writes at ``round_every=10``: the event kinds in
order and each event's ``data``.  The per-phase wall times
(``select_s``/``apply_s``/``observe_s``) differ from run to run and are
left out; ``resource`` events (CPU, RSS, energy) are pinned by kind
only.  Everything else — the ``round`` counters, the ``budget`` margins,
``violation`` and ``clock`` payloads, the ``run_start``/``run_end``
brackets — must match exactly.

Regenerate (only when a change is *meant* to move these events) with::

    PYTHONPATH=src python -c "import json, tests.test_telemetry_event_pins as t; \\
        print(json.dumps(t.capture(), indent=1, sort_keys=True))" \\
        > tests/data/telemetry_events.json
"""

import json
from pathlib import Path

import pytest

from repro.obs.runner import TelemetryJob, run_telemetry_job
from repro.obs.writer import TelemetryConfig, read_events
from repro.orchestrator import TreeSpec
from repro.scenario import ScenarioSpec

from tests.test_telemetry_row_pins import CASES, _case_id

PINS_PATH = Path(__file__).parent / "data" / "telemetry_events.json"

#: ``data`` fields that vary between identical runs.
UNPINNED = frozenset({"select_s", "apply_s", "observe_s"})

#: Events whose whole payload varies between identical runs.
KIND_ONLY = frozenset({"resource"})


def _events(case, trace_dir):
    kind, algorithm, family, n, k, speed = case
    spec = ScenarioSpec(
        kind=kind,
        algorithm=algorithm,
        substrate=TreeSpec.named(family, n, seed=7),
        k=k,
        seed=7,
        speed=speed,
    )
    config = TelemetryConfig.create(str(trace_dir), round_every=10)
    run_telemetry_job(TelemetryJob(spec=spec, config=config))
    out = []
    for event in read_events(config.path):
        if event.event in KIND_ONLY:
            out.append({"event": event.event})
            continue
        data = {
            key: value
            for key, value in event.data.items()
            if key not in UNPINNED
        }
        out.append({"event": event.event, "data": data})
    return json.loads(json.dumps(out))


def capture():
    """The pinned traces, keyed by case id (used to regenerate the file)."""
    import tempfile

    with tempfile.TemporaryDirectory() as trace_dir:
        return {_case_id(case): _events(case, trace_dir) for case in CASES}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


def test_every_case_is_pinned(pins):
    assert sorted(pins) == sorted(_case_id(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_trace_matches_pin(pins, case, tmp_path):
    assert _events(case, tmp_path) == pins[_case_id(case)]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_pins_carry_round_events(pins, case):
    kinds = [event["event"] for event in pins[_case_id(case)]]
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"
    assert "round" in kinds
    # CTE and interference runs carry no theorem budget.
    if case[1] != "cte" and case[0] != "reactive":
        assert "budget" in kinds
