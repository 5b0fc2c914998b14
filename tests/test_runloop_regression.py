"""Golden regression: the four ported loops vs their pre-refactor outputs.

``tests/data/runloop_golden.json`` was captured by running the four
original, independent loops (``Simulator.run``, ``run_reactive``,
``run_graph_bfdn``, ``play_game``) *before* they were ported onto the
shared :class:`repro.sim.runloop.RoundEngine`.  These tests re-run the
same seeded workloads through the adapters and require byte-identical
results — rounds, wall rounds, completion flags, move/interference
accounting, even the game's full move history.

The simulator grid runs on **both** round loops: with no observer, a
plain BFDN run takes the array fast path, which must reproduce the
reference loop's goldens byte for byte (its parity contract), and runs
outside its envelope (cte's shared reveal, dfs) take the reference
loop.  A per-round observer pins a run to the reference loop.
"""

import json
from pathlib import Path

import pytest

from repro.game.adversaries import FreshUrnAdversary, GreedyAdversary, RandomAdversary
from repro.game.board import UrnBoard
from repro.game.play import play_game
from repro.game.players import BalancedPlayer, RandomPlayer
from repro.graphs.exploration import run_graph_bfdn
from repro.graphs.mazes import braided_maze, perfect_maze
from repro.registry import make_algorithm, make_tree
from repro.sim import (
    BlockDeepest,
    BlockExplorers,
    RandomBreakdowns,
    RandomReactive,
    RoundRobinBreakdowns,
    Simulator,
    run_reactive,
)
from repro.sim.runloop import RoundObserver

GOLDEN_PATH = Path(__file__).parent / "data" / "runloop_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


SIM_GRID = [
    (family, n, k, alg)
    for family in ("random", "comb", "caterpillar", "spider")
    for n in (60, 150)
    for k in (2, 5)
    for alg in ("bfdn", "cte", "dfs")
]


@pytest.mark.parametrize("loop", ["reference", "array"])
@pytest.mark.parametrize("family,n,k,alg", SIM_GRID)
def test_simulator_matches_pre_refactor(golden, family, n, k, alg, loop):
    tree = make_tree(family, n, seed=3)
    result = Simulator(
        tree, make_algorithm(alg), k,
        allow_shared_reveal=(alg == "cte"),
        observers=[RoundObserver()] if loop == "reference" else [],
    ).run()
    m = result.metrics
    assert [
        result.rounds,
        result.wall_rounds,
        result.complete,
        result.all_home,
        m.total_moves,
        m.idle_rounds,
        m.reveals,
    ] == golden[f"sim/{family}/{n}/{k}/{alg}"]


BREAKDOWNS = {
    "rand": lambda: RandomBreakdowns(0.6, 50, seed=1),
    "rr": lambda: RoundRobinBreakdowns(2, 40),
}


@pytest.mark.parametrize("adv", sorted(BREAKDOWNS))
@pytest.mark.parametrize("family", ["comb", "random"])
def test_breakdown_runs_match_pre_refactor(golden, adv, family):
    tree = make_tree(family, 80, seed=5)
    result = Simulator(tree, make_algorithm("bfdn"), 4, adversary=BREAKDOWNS[adv]()).run()
    assert [
        result.rounds,
        result.wall_rounds,
        result.complete,
        result.all_home,
        result.metrics.total_moves,
    ] == golden[f"bd/{adv}/{family}"]


REACTIVES = {
    "expl": lambda: BlockExplorers(1, 30),
    "deep": lambda: BlockDeepest(2, 25),
    "rand": lambda: RandomReactive(0.3, 40, seed=2),
}


@pytest.mark.parametrize("adv", sorted(REACTIVES))
@pytest.mark.parametrize("alg", ["comb", "random"])
def test_reactive_runs_match_pre_refactor(golden, adv, alg):
    tree = make_tree(alg, 70, seed=7)
    rr = run_reactive(tree, make_algorithm("bfdn"), 3, REACTIVES[adv]())
    assert [
        rr.result.rounds,
        rr.result.wall_rounds,
        rr.result.complete,
        rr.blocked_moves,
        rr.executed_moves,
    ] == golden[f"re/{adv}/{alg}"]


@pytest.mark.parametrize("name,builder", [
    ("pm", lambda: perfect_maze(6, 5, seed=1)),
    ("bm", lambda: braided_maze(6, 6, 8, seed=2)),
])
@pytest.mark.parametrize("k", [2, 4])
def test_graph_runs_match_pre_refactor(golden, name, builder, k):
    gr = run_graph_bfdn(builder(), k)
    assert [
        gr.rounds,
        gr.complete,
        gr.all_home,
        gr.closed_edges,
        gr.tree_edges,
    ] == golden[f"g/{name}/{k}"]


PLAYERS = {"bal": BalancedPlayer, "rnd": lambda: RandomPlayer(seed=4)}
ADVERSARIES = {
    "greedy": GreedyAdversary,
    "fresh": FreshUrnAdversary,
    "rand": lambda: RandomAdversary(seed=9),
}


@pytest.mark.parametrize("pn", sorted(PLAYERS))
@pytest.mark.parametrize("an", sorted(ADVERSARIES))
def test_game_runs_match_pre_refactor(golden, pn, an):
    rec = play_game(
        UrnBoard(12, 8), ADVERSARIES[an](), PLAYERS[pn](), record_history=True
    )
    assert [
        rec.steps,
        rec.final_loads,
        [list(h) for h in rec.history],
    ] == golden[f"game/{pn}/{an}"]


# ---------------------------------------------------------------------
# Telemetry must be a pure observer: attaching the full instrumented
# observer stack with the zero-overhead NullWriter cannot change a
# single golden value.
# ---------------------------------------------------------------------

INSTRUMENTED_GRID = [
    (family, n, k, alg)
    for family in ("random", "comb")
    for n in (60, 150)
    for k in (2, 5)
    for alg in ("bfdn", "cte")
]


@pytest.mark.parametrize("family,n,k,alg", INSTRUMENTED_GRID)
def test_null_telemetry_preserves_golden_results(golden, family, n, k, alg):
    from repro.obs import Budget, BudgetObserver, MetricsObserver, NullWriter

    tree = make_tree(family, n, seed=3)
    observers = [
        MetricsObserver(writer=NullWriter(), every=7),
        BudgetObserver(
            [Budget(name="b", limit=1e12, value=lambda s, r: float(r.billed))],
            writer=NullWriter(),
            every=7,
        ),
    ]
    result = Simulator(
        tree,
        make_algorithm(alg),
        k,
        allow_shared_reveal=(alg == "cte"),
        observers=observers,
    ).run()
    m = result.metrics
    assert [
        result.rounds,
        result.wall_rounds,
        result.complete,
        result.all_home,
        m.total_moves,
        m.idle_rounds,
        m.reveals,
    ] == golden[f"sim/{family}/{n}/{k}/{alg}"]
