"""Round records keep the positions they were taken with.

The tree and graph states hand out their live position list as the
progress token, without a copy: ``apply`` binds a fresh list every
round and never mutates the old one.  These tests hold that contract
from the outside — after a full run, every logged record's ``before``
must still equal the positions the run had when that round started.
"""

from repro.graphs.exploration import run_graph_bfdn
from repro.graphs.mazes import braided_maze
from repro.registry import make_algorithm, make_tree
from repro.sim import AsyncSimulator, Simulator, StochasticSpeed
from repro.sim.runloop import RoundLog, RoundObserver


class PositionSnapshots(RoundObserver):
    """Copies the positions at attach time and after every round."""

    def on_attach(self, state):
        self.snapshots = [list(state.expl.positions)]

    def on_round(self, state, record):
        self.snapshots.append(list(state.expl.positions))


def _assert_records_intact(log, snaps, positions_of=lambda token: token):
    records = log.records
    assert len(records) == len(snaps.snapshots) - 1
    befores = [positions_of(record.before) for record in records]
    assert befores == snaps.snapshots[:-1]
    # Not vacuous: the robots did move between records.
    assert len({tuple(before) for before in befores}) > 1


def test_sync_tree_run_keeps_round_positions():
    log, snaps = RoundLog(), PositionSnapshots()
    result = Simulator(
        make_tree("random", 200, seed=3), make_algorithm("bfdn"), 5,
        observers=[log, snaps],
    ).run()
    assert result.done
    _assert_records_intact(log, snaps)


def test_sync_shared_reveal_run_keeps_round_positions():
    log, snaps = RoundLog(), PositionSnapshots()
    Simulator(
        make_tree("comb", 120, seed=1), make_algorithm("cte"), 6,
        allow_shared_reveal=True, observers=[log, snaps],
    ).run()
    _assert_records_intact(log, snaps)


def test_async_tree_run_keeps_round_positions():
    log, snaps = RoundLog(), PositionSnapshots()
    result = AsyncSimulator(
        make_tree("random", 150, seed=2), make_algorithm("async-cte"), 4,
        StochasticSpeed(low=0.25, seed=5), observers=[log, snaps],
    ).run()
    assert result.done
    _assert_records_intact(log, snaps)


def test_graph_run_keeps_round_positions():
    log, snaps = RoundLog(), PositionSnapshots()
    result = run_graph_bfdn(braided_maze(6, 6, 8, seed=2), 3, observers=[log, snaps])
    assert result.complete
    _assert_records_intact(log, snaps, positions_of=lambda token: token[0])
