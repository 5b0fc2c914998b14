"""Run quantities counted once, where they change, against full recounts.

Each counter kept incrementally by the engine, an algorithm or an
observer is checked after every round against the whole-team recount
it replaced, which this module keeps as the oracle:

* :class:`~repro.obs.metrics.MetricsObserver`'s moves, idle, blocked
  and re-anchor counters against a per-round scan of the selected moves;
* potential-cte's load vector against a walk of every robot to the root;
* each tree-mining ``BFDN_1`` instance's ``active_count`` against a
  count of its non-parked robots.
"""

import pytest

from repro import registry
from repro.algos import PotentialCTE, TreeMining
from repro.core.recursive.divide_depth import DivideDepthInstance
from repro.obs.budget import BudgetObserver, budgets_for_scenario
from repro.obs.metrics import MetricsObserver
from repro.orchestrator import TreeSpec
from repro.scenario import ScenarioSpec
from repro.sim import Simulator
from repro.sim.adversary import RandomBreakdowns
from repro.sim.engine import STAY, UP, ExplorationAlgorithm, explore
from repro.sim.reactive import run_reactive
from repro.sim.runloop import RoundObserver, _is_mover


class ScanOracle(RoundObserver):
    """The per-round scan ``MetricsObserver`` used to run, as the oracle.

    Attach it after the observer under test: each round it folds the
    record into its own counters and asserts the observer's snapshot
    reads the same.  One corner follows the engine rather than the old
    scan: ``UP`` at the root is a stay, not a move.
    """

    def __init__(self, observed: MetricsObserver):
        self.observed = observed

    def on_attach(self, state):
        self.moves = self.blocked = self.idle = self.rounds = 0

    def on_round(self, state, record):
        movers = 0
        root = getattr(getattr(getattr(state, "expl", None), "tree", None), "root", None)
        if isinstance(record.moves, dict):
            for agent, move in record.moves.items():
                if not _is_mover(move):
                    continue
                if agent in record.struck:
                    self.blocked += 1
                elif move[0] == "up" and record.before[agent] == root:
                    continue  # the engine bills UP at the root as a stay
                else:
                    movers += 1
        self.moves += movers
        team = state.team()
        if team is not None and record.billed > record.billed_before:
            self.idle += len(team) - movers
        metrics = getattr(getattr(state, "expl", None), "metrics", None)
        reanchors = 0 if metrics is None else len(metrics.reanchors)
        snap = self.observed.snapshot()
        assert (snap["moves"], snap["idle"], snap["blocked"], snap["reanchors"]) == (
            self.moves, self.idle, self.blocked, reanchors
        ), f"round {record.t}"
        self.rounds += 1


def _spec(kind, algorithm, family, n, k, **extra):
    return ScenarioSpec(
        kind=kind,
        algorithm=algorithm,
        substrate=TreeSpec.named(family, n, seed=3),
        k=k,
        seed=3,
        **extra,
    )


def _observed_run(spec):
    metrics = MetricsObserver(every=7)
    oracle = ScanOracle(metrics)
    row = spec.build().run(observers=[metrics, oracle])
    assert oracle.rounds > 0
    return metrics.snapshot(), oracle, row


TREE_ALGORITHMS = sorted(
    name for name in registry.ALGORITHMS if registry.workload_kind(name) == "tree"
)


class TestMetricsObserverAgainstScan:
    @pytest.mark.parametrize("family", ["random", "comb", "spider"])
    @pytest.mark.parametrize("algorithm", TREE_ALGORITHMS)
    def test_tree(self, algorithm, family):
        snap, _, _ = _observed_run(_spec("tree", algorithm, family, 120, 4))
        assert snap["moves"] > 0 and snap["blocked"] == 0

    @pytest.mark.parametrize("speed", ["unit", "stochastic"])
    def test_async_tree(self, speed):
        _observed_run(_spec("async-tree", "async-cte", "random", 150, 8, speed=speed))

    def test_graph(self):
        snap, _, _ = _observed_run(_spec("graph", "graph-bfdn", "maze", 60, 4))
        assert snap["moves"] > 0

    @pytest.mark.parametrize("adversary", ["block-explorers", "block-deepest"])
    @pytest.mark.parametrize("algorithm", ["bfdn", "potential-cte", "tree-mining"])
    def test_reactive(self, algorithm, adversary):
        spec = _spec("reactive", algorithm, "random", 150, 8, adversary=adversary)
        snap, _, row = _observed_run(spec)
        assert snap["blocked"] == row["blocked_moves"] > 0

    def test_breakdowns(self):
        spec = _spec("tree", "bfdn", "random", 150, 8, adversary="random-breakdowns")
        snap, _, _ = _observed_run(spec)
        assert snap["idle"] > 0

    def test_game_has_no_team(self):
        snap, _, _ = _observed_run(_spec("game", "urn-game", "urns", 8, 4))
        assert (snap["moves"], snap["idle"]) == (0, 0)


class UpAtRoot(ExplorationAlgorithm):
    """Depth-first exploration whose idle robots submit ``UP`` at the root."""

    name = "up-at-root"

    def select_moves(self, expl, movable):
        ptree = expl.ptree
        moves = {}
        for i in expl.in_robot_order(movable):
            v = expl.positions[i]
            ports = sorted(ptree.dangling_ports(v)) if i == 0 else ()
            if ports:
                moves[i] = explore(ports[0])
            elif v == expl.tree.root:
                moves[i] = UP if i else STAY
            else:
                moves[i] = UP
        return moves


def test_up_at_root_is_billed_idle_by_engine_and_observer():
    # The engine treats UP at the root as a stay; the observer reads the
    # engine's counters, so it agrees (the old per-round scan counted it
    # as a move).
    tree = registry.make_tree("random", 40, seed=1)
    observer = MetricsObserver()
    result = Simulator(tree, UpAtRoot(), 3, observers=[observer]).run()
    m = result.metrics
    assert result.done
    snap = observer.snapshot()
    assert snap["moves"] == m.total_moves == m.moves_per_robot[0]
    assert snap["idle"] == sum(m.idle_per_robot.values()) == 2 * result.rounds
    assert m.idle_per_robot[1] == m.idle_per_robot[2] == result.rounds


class LoadOracle(RoundObserver):
    """After each round, potential-cte's load vector equals a fresh walk
    of every robot to the root."""

    def __init__(self, algorithm: PotentialCTE):
        self.algorithm = algorithm
        self.rounds = 0

    def on_round(self, state, record):
        expl = state.expl
        walked = {}
        for v in expl.positions:
            while True:
                walked[v] = walked.get(v, 0) + 1
                if v == expl.tree.root:
                    break
                v = expl.ptree.parent(v)
        kept = {v: c for v, c in self.algorithm._load.items() if c}
        assert kept == walked, f"round {record.t}"
        self.rounds += 1


class ActiveOracle(RoundObserver):
    """After each round, every ``BFDN_1`` instance under tree-mining
    reports as active exactly its robots that are not parked."""

    def __init__(self, algorithm: TreeMining):
        self.algorithm = algorithm
        self.checked = 0

    def _instances(self, node):
        if isinstance(node, DivideDepthInstance):
            for child in node.children:
                yield from self._instances(child)
        else:
            yield node

    def on_round(self, state, record):
        for inst in self._instances(self.algorithm._instance):
            recount = sum(1 for i in inst.robots if inst._modes[i] != "parked")
            assert inst.active_count == recount, f"round {record.t}"
            self.checked += 1


def _run_checked(make_oracle, algorithm, interference):
    tree = registry.make_tree("random", 200, seed=5)
    k = 8
    oracle = make_oracle(algorithm)
    if interference == "reactive":
        adversary = registry.make_reactive_adversary("block-explorers", n=tree.n)
        run = run_reactive(tree, algorithm, k, adversary, observers=[oracle])
        assert run.result.complete
    else:
        adversary = RandomBreakdowns(0.3, 400, seed=2) if interference else None
        assert Simulator(tree, algorithm, k, adversary=adversary, observers=[oracle]).run().done
    return oracle


INTERFERENCE = [None, "breakdowns", "reactive"]


@pytest.mark.parametrize("interference", INTERFERENCE)
def test_potential_cte_loads_match_walk(interference):
    assert _run_checked(LoadOracle, PotentialCTE(), interference).rounds > 0


@pytest.mark.parametrize("interference", INTERFERENCE)
def test_tree_mining_active_count_matches_recount(interference):
    assert _run_checked(ActiveOracle, TreeMining(), interference).checked > 0


def test_budget_observer_reuse_matches_fresh_observer():
    # The Lemma 2 value function keeps per-run counts; a reused observer
    # must reset them on attach, on either loop.
    built = ScenarioSpec(
        kind="tree", algorithm="bfdn",
        substrate=TreeSpec.named("comb", 400, seed=0), k=16, seed=0,
    ).build()
    reused = BudgetObserver(budgets_for_scenario(built))
    margins = []
    for extra in ([], [], [RoundObserver()]):
        built.run(observers=[reused, *extra])
        margins.append(reused.snapshot()["margin_lemma2"])
    fresh = BudgetObserver(budgets_for_scenario(built))
    built.run(observers=[fresh])
    assert margins == [fresh.snapshot()["margin_lemma2"]] * 3
