"""Golden round counts for every registered algorithm on the scheduler loop.

``tests/data/runloop_golden.json`` pins bfdn, cte and dfs; this file pins
the rest of ``registry.ALGORITHMS`` the same way, so a change to the
shared round body or the partial-tree substrate cannot shift any of
them silently.  Every synchronous run attaches a bare
:class:`~repro.sim.runloop.RoundObserver`, which keeps it on the
scheduler loop.  ``async-cte`` runs on the asynchronous event scheduler
under both the ``unit`` and the ``stochastic`` speed schedules, with its
per-robot clock accounting pinned too.

``tests/data/zoo_golden.json`` was captured with the engine before the
round body was trimmed.  Regenerate (only when a change is *meant* to
move these numbers) with::

    PYTHONPATH=src python -c "import json, tests.test_zoo_golden as t; \\
        print(json.dumps(t.capture(), indent=1, sort_keys=True))" \\
        > tests/data/zoo_golden.json
"""

import json
from pathlib import Path

import pytest

from repro.registry import make_algorithm, make_tree, shared_reveal_default
from repro.sim import Simulator
from repro.sim.runloop import RoundObserver
from repro.sim.scheduler import AsyncSimulator, StochasticSpeed, UnitSpeed

GOLDEN_PATH = Path(__file__).parent / "data" / "zoo_golden.json"

#: Registered algorithms with no round-count pin in runloop_golden.json
#: (bfdn-wr has one spider trace in golden_writeread_spider.json).
SYNC_ALGORITHMS = (
    "bfdn-shortcut", "bfdn-checked", "bfdn-ell2", "bfdn-ell3",
    "bfdn-wr", "tree-mining", "potential-cte",
)

SPEEDS = {"unit": UnitSpeed, "stochastic": lambda: StochasticSpeed(seed=3)}

GRID = [
    (family, n, k)
    for family in ("random", "comb", "caterpillar", "spider")
    for n in (60, 150)
    for k in (2, 5)
]


def _sync_row(alg, family, n, k):
    tree = make_tree(family, n, seed=3)
    result = Simulator(
        tree, make_algorithm(alg), k,
        allow_shared_reveal=shared_reveal_default(alg),
        observers=[RoundObserver()],
    ).run()
    m = result.metrics
    return [
        result.rounds,
        result.wall_rounds,
        result.complete,
        result.all_home,
        m.total_moves,
        m.idle_rounds,
        m.reveals,
    ]


def _async_row(speed, family, n, k):
    tree = make_tree(family, n, seed=3)
    result = AsyncSimulator(
        tree, make_algorithm("async-cte"), k, SPEEDS[speed](),
        allow_shared_reveal=shared_reveal_default("async-cte"),
    ).run()
    m = result.metrics
    clock = result.clock
    return [
        result.rounds,
        result.wall_batches,
        result.complete,
        result.all_home,
        m.total_moves,
        m.idle_rounds,
        m.reveals,
        round(result.clock_time, 9),
        list(clock.ticks),
        list(clock.moves),
        list(clock.idle),
    ]


def capture():
    """Every pinned row, keyed like the tests look them up."""
    rows = {}
    for alg in SYNC_ALGORITHMS:
        for family, n, k in GRID:
            rows[f"sim/{alg}/{family}/{n}/{k}"] = _sync_row(alg, family, n, k)
    for speed in SPEEDS:
        for family, n, k in GRID:
            rows[f"async/{speed}/{family}/{n}/{k}"] = _async_row(
                speed, family, n, k
            )
    return rows


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_is_pinned(golden):
    expected = {f"sim/{alg}/{f}/{n}/{k}" for alg in SYNC_ALGORITHMS
                for f, n, k in GRID}
    expected |= {f"async/{s}/{f}/{n}/{k}" for s in SPEEDS for f, n, k in GRID}
    assert set(golden) == expected


@pytest.mark.parametrize("family,n,k", GRID)
@pytest.mark.parametrize("alg", SYNC_ALGORITHMS)
def test_sync_zoo_matches_golden(golden, alg, family, n, k):
    assert _sync_row(alg, family, n, k) == golden[f"sim/{alg}/{family}/{n}/{k}"]


@pytest.mark.parametrize("family,n,k", GRID)
@pytest.mark.parametrize("speed", sorted(SPEEDS))
def test_async_cte_matches_golden(golden, speed, family, n, k):
    assert (
        _async_row(speed, family, n, k)
        == golden[f"async/{speed}/{family}/{n}/{k}"]
    )
