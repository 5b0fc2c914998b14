"""Pinned telemetry rows: the observers' columns must not drift.

``tests/data/telemetry_rows.json`` holds the ``run_telemetry_job`` rows
of one small scenario per algorithm of the benchmark's explore mix,
captured before the round hot path and the observers were trimmed.
Timing, resource and id columns are left out (they differ from run to
run); everything else — the scenario row, the ``obs_*`` counters, the
``margin_*`` budgets and ``violations`` — must match exactly.

Regenerate (only when a change is *meant* to move these columns) with::

    PYTHONPATH=src python -c "import json, tests.test_telemetry_row_pins as t; \\
        print(json.dumps(t.capture(), indent=1, sort_keys=True))" \\
        > tests/data/telemetry_rows.json
"""

import json
from pathlib import Path

import pytest

from repro.obs.runner import TelemetryJob, run_telemetry_job
from repro.obs.writer import TelemetryConfig
from repro.orchestrator import TreeSpec
from repro.scenario import ScenarioSpec

PINS_PATH = Path(__file__).parent / "data" / "telemetry_rows.json"

#: Columns that vary between identical runs.
UNPINNED = frozenset({
    "elapsed", "rounds_per_sec", "cpu_sec", "cpu_user_s", "cpu_sys_s",
    "max_rss_kb", "energy_j", "trace_id", "span_id",
    "obs_select_s", "obs_apply_s", "obs_observe_s",
})

#: (kind, algorithm, family, n, k, speed) — the explore mix, shrunk.
CASES = (
    ("tree", "bfdn", "random", 300, 8, None),
    ("tree", "bfdn", "comb", 120, 8, None),
    ("tree", "cte", "random", 300, 8, None),
    ("tree", "tree-mining", "random", 300, 8, None),
    ("tree", "potential-cte", "random", 300, 8, None),
    ("async-tree", "async-cte", "random", 150, 8, "stochastic"),
    ("graph", "graph-bfdn", "maze", 60, 4, None),
    # The reactive default adversary (block-explorers) strikes moves, so
    # this case pins a nonzero ``obs_blocked``.
    ("reactive", "bfdn", "random", 150, 8, None),
)


def _case_id(case):
    base = f"{case[1]}/{case[2]}"
    return f"{base}/reactive" if case[0] == "reactive" else base


def _row(case, trace_dir):
    kind, algorithm, family, n, k, speed = case
    spec = ScenarioSpec(
        kind=kind,
        algorithm=algorithm,
        substrate=TreeSpec.named(family, n, seed=7),
        k=k,
        seed=7,
        speed=speed,
    )
    config = TelemetryConfig.create(str(trace_dir))
    row = run_telemetry_job(TelemetryJob(spec=spec, config=config))
    return {key: value for key, value in row.items() if key not in UNPINNED}


def capture():
    """The pinned rows, keyed by case id (used to regenerate the file)."""
    import tempfile

    with tempfile.TemporaryDirectory() as trace_dir:
        return {_case_id(case): _row(case, trace_dir) for case in CASES}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


def test_every_case_is_pinned(pins):
    assert sorted(pins) == sorted(_case_id(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_row_matches_pin(pins, case, tmp_path):
    row = json.loads(json.dumps(_row(case, tmp_path)))
    assert row == pins[_case_id(case)]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_pins_carry_observer_columns(pins, case):
    row = pins[_case_id(case)]
    for key in ("obs_rounds", "obs_moves", "obs_idle", "obs_reveals"):
        assert key in row
    # CTE and interference runs carry no theorem budget.
    if case[1] != "cte" and case[0] != "reactive":
        assert "violations" in row
        assert any(key.startswith("margin_") for key in row)


def test_interference_case_pins_blocked_moves(pins):
    row = pins["bfdn/random/reactive"]
    assert row["obs_blocked"] == row["blocked_moves"] > 0
