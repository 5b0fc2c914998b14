"""The scheduler seam and the asynchronous model (arXiv:2507.15658).

Covers the PR's contract from both sides of the seam:

* **Sync equivalence** — :class:`AsyncEventScheduler` under unit speeds
  is trace-equivalent to :class:`SyncRoundScheduler` (hypothesis
  differential over every tree family): same billed rounds, same
  surviving moves round for round, same final positions.
* **Per-clock accounting** — every robot's ``moves + idle == ticks``
  under heterogeneous speed schedules, and the clock's move counts agree
  with the engine's own per-robot metrics.
* **Budget envelope** — async-cte's completion time stays within
  ``2n/k + C D^2`` (:data:`ASYNC_CTE_CONSTANT`) across families, team
  sizes and schedules, and :class:`BudgetObserver` monitors it live.
* **Loop parity** — the array fast path declines async schedulers, so
  async rows always come from the reference loop.
* **Plumbing** — registry validation, scenario fingerprints/round-trips,
  telemetry ``clock`` events and the ``repro tail`` skew section, cached
  async sweeps.
* **Shared round body** — caps, observer early stops, graceful billed
  stops, phase timing, schedule validation and per-run state reset, all
  driven through the asynchronous clock.
"""

import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.analysis.sweep import run_sweep_cached
from repro.bounds.guarantees import (
    ASYNC_CTE_CONSTANT,
    async_cte_bound,
    async_cte_simplified,
)
from repro.obs.budget import BudgetObserver, budgets_for_scenario
from repro.obs.schema import TelemetryEvent
from repro.obs.tail import render, summarize
from repro.orchestrator import ResultStore, TreeSpec
from repro.scenario import ScenarioSpec, scenario_grid
from repro.sim import (
    AdversarialSlowdown,
    AsyncEventScheduler,
    AsyncSimulator,
    EarlyStop,
    Exploration,
    RoundCapExceeded,
    RoundEngine,
    RoundObserver,
    Simulator,
    SpeedSchedule,
    StochasticSpeed,
    SyncRoundScheduler,
    TraceObserver,
    UnitSpeed,
)
from repro.sim.engine import AlgorithmPolicy, TreeRoundState

FAMILIES = sorted(registry.tree_families())


def sync_run(tree, k, observers=()):
    return Simulator(
        tree,
        registry.make_algorithm("async-cte"),
        k,
        allow_shared_reveal=True,
        observers=list(observers),
    ).run()


def async_run(tree, k, speeds=None, observers=()):
    return AsyncSimulator(
        tree,
        registry.make_algorithm("async-cte"),
        k,
        speeds,
        observers=list(observers),
    ).run()


# ---------------------------------------------------------------------
# Satellite 1: unit-speed async == sync, trace for trace
# ---------------------------------------------------------------------

class TestSyncEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(min_value=12, max_value=120),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_unit_schedule_is_trace_equivalent_to_sync(self, family, n, k, seed):
        """With all durations 1.0 every batch is a full-team round, so the
        event scheduler must replay the lockstep loop move for move."""
        tree = registry.make_tree(family, n, seed=seed)
        sync_trace, async_trace = TraceObserver(), TraceObserver()
        sync = sync_run(tree, k, observers=[sync_trace])
        result = async_run(tree, k, UnitSpeed(), observers=[async_trace])
        assert result.rounds == sync.rounds
        assert result.complete and result.all_home
        assert result.positions == list(sync.positions)
        sync_rounds = sync_trace.trace.rounds
        async_rounds = async_trace.trace.rounds
        # The async run may append trailing all-stay quiescence batches
        # beyond the sync loop's; every billed round must match exactly.
        assert len(async_rounds) >= len(sync_rounds)
        for ours, theirs in zip(async_rounds, sync_rounds):
            assert ours.positions_before == theirs.positions_before
            assert ours.moves == theirs.moves
        for extra in async_rounds[len(sync_rounds):]:
            assert all(move == ("stay",) for move in extra.moves.values())

    def test_unit_schedule_matches_sync_metrics(self):
        tree = registry.make_tree("comb", 200, seed=1)
        sync = sync_run(tree, 4)
        result = async_run(tree, 4, UnitSpeed())
        assert result.metrics.total_moves == sync.metrics.total_moves
        assert result.metrics.reveals == sync.metrics.reveals
        # Under unit speeds the completion time is the last progressing
        # batch's end time — an integer equal to a billed round count.
        assert result.clock_time == float(int(result.clock_time))
        assert result.clock.skew() == 0.0


# ---------------------------------------------------------------------
# Satellite 2: per-clock billed-vs-wall accounting
# ---------------------------------------------------------------------

def schedules_for(k, seed):
    return [
        UnitSpeed(),
        AdversarialSlowdown(slow=1 + seed % max(1, k), factor=2.0 + seed % 3),
        StochasticSpeed(low=0.25, seed=seed),
    ]


class TestPerClockAccounting:
    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(min_value=12, max_value=100),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=20),
    )
    def test_moves_plus_idle_equals_ticks_per_robot(self, family, n, k, seed):
        """The sync invariant ``moves + idle == rounds`` holds per robot
        on its *own* clock: every tick either progressed or idled."""
        tree = registry.make_tree(family, n, seed=seed)
        for speeds in schedules_for(k, seed):
            clock = async_run(tree, k, speeds).clock
            for robot in range(k):
                assert (
                    clock.moves[robot] + clock.idle[robot]
                    == clock.ticks[robot]
                ), (speeds.name, robot)
            clock.check()  # the same identity, asserted by the clock

    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(min_value=12, max_value=100),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=20),
    )
    def test_clock_moves_match_engine_metrics(self, family, n, k, seed):
        """Clock-side move attribution agrees with the engine's own
        per-robot move counters, schedule or no schedule."""
        tree = registry.make_tree(family, n, seed=seed)
        for speeds in schedules_for(k, seed):
            result = async_run(tree, k, speeds)
            for robot in range(k):
                assert result.clock.moves[robot] == (
                    result.metrics.moves_per_robot[robot]
                ), (speeds.name, robot)

    def test_completion_time_bounded_by_max_time(self):
        tree = registry.make_tree("random", 150, seed=2)
        result = async_run(tree, 4, StochasticSpeed(low=0.3, seed=9))
        clock = result.clock
        assert 0.0 < result.clock_time <= clock.max_time()
        assert clock.skew() == max(clock.times) - min(clock.times)
        assert clock.slowest() == max(
            range(4), key=lambda i: (clock.times[i], -i)
        )

    def test_wall_batches_exceed_billed_only_by_quiescence(self):
        tree = registry.make_tree("star", 80, seed=0)
        result = async_run(tree, 5, AdversarialSlowdown(slow=2, factor=4.0))
        assert result.wall_batches >= result.rounds
        assert result.stop_reason == "quiescent"


# ---------------------------------------------------------------------
# Speed schedules
# ---------------------------------------------------------------------

class TestSpeedSchedules:
    def test_unit_is_always_one(self):
        speeds = UnitSpeed()
        assert all(speeds.duration(r, t) == 1.0 for r in range(4) for t in (1, 9))

    def test_adversarial_slowdown_splits_the_team(self):
        speeds = AdversarialSlowdown(slow=2, factor=4.0)
        assert speeds.duration(0, 1) == 1.0
        assert speeds.duration(1, 1) == 1.0
        assert speeds.duration(2, 1) == pytest.approx(0.25)

    def test_adversarial_slowdown_validates(self):
        with pytest.raises(ValueError):
            AdversarialSlowdown(slow=0)
        with pytest.raises(ValueError):
            AdversarialSlowdown(factor=0.5)

    def test_stochastic_is_memoised_and_deterministic(self):
        a, b = StochasticSpeed(low=0.5, seed=7), StochasticSpeed(low=0.5, seed=7)
        draws = [(r, t) for r in range(3) for t in (1, 2, 3)]
        assert [a.duration(r, t) for r, t in draws] == [
            b.duration(r, t) for r, t in draws
        ]
        assert a.duration(0, 1) == a.duration(0, 1)
        assert all(0.5 <= a.duration(r, t) <= 1.0 for r, t in draws)
        with pytest.raises(ValueError):
            StochasticSpeed(low=0.0)

    #: ``StochasticSpeed(low=0.25, seed=0)`` durations, robots 0-2 x
    #: ticks 1-3.  Literal values, so a change of seeding shows here even
    #: when two instances of the new code agree with each other.
    STOCHASTIC_PINS = {
        0: [0.4421363694376498, 0.7098595838283087, 0.5908394338128946],
        1: [0.8925413761192925, 0.8159518498550282, 0.8061742780150614],
        2: [0.9570567425021427, 0.33038815457969406, 0.3138731143990161],
    }

    def test_stochastic_draws_are_pinned(self):
        speeds = StochasticSpeed(low=0.25, seed=0)
        for robot, durations in self.STOCHASTIC_PINS.items():
            assert [speeds.duration(robot, t) for t in (1, 2, 3)] == durations

    def test_stochastic_draws_are_order_independent(self):
        speeds = StochasticSpeed(low=0.25, seed=0)
        queries = [(2, 3), (0, 2), (1, 1), (2, 1), (0, 3), (1, 3), (0, 1),
                   (2, 2), (1, 2)]
        for robot, tick in queries:
            assert speeds.duration(robot, tick) == (
                self.STOCHASTIC_PINS[robot][tick - 1]
            )

    def test_registry_factory_and_validation(self):
        speeds = registry.make_speed_schedule(
            "adversarial-slowdown", {"slow": 2, "factor": 3.0}, k=4
        )
        assert isinstance(speeds, AdversarialSlowdown)
        assert registry.make_speed_schedule("unit").name == "unit"
        # Stochastic inherits the scenario seed when not given one.
        s = registry.make_speed_schedule("stochastic", {}, k=2, seed=11)
        assert s.seed == 11
        with pytest.raises(ValueError):
            registry.make_speed_schedule("warp")
        with pytest.raises(ValueError):
            registry.make_speed_schedule("unit", {"bogus": 1})
        with pytest.raises(ValueError):
            registry.make_speed_schedule(
                "adversarial-slowdown", {"slow": 9}, k=4
            )


# ---------------------------------------------------------------------
# The async-cte budget envelope
# ---------------------------------------------------------------------

class TestAsyncBudgetEnvelope:
    def test_bound_shape(self):
        assert async_cte_bound(1000, 10, 4) == pytest.approx(
            2 * 1000 / 4 + ASYNC_CTE_CONSTANT * 100
        )
        assert async_cte_simplified(1000, 10, 4) == pytest.approx(
            1000 / 4 + 100
        )
        with pytest.raises(ValueError):
            async_cte_bound(100, 5, 0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_completion_time_within_bound(self, family):
        for n in (40, 200):
            tree = registry.make_tree(family, n, seed=3)
            for k in (1, 2, 8):
                for speeds in schedules_for(k, seed=3):
                    result = async_run(tree, k, speeds)
                    assert result.complete and result.all_home
                    limit = async_cte_bound(tree.n, tree.depth, k)
                    assert result.clock_time <= limit, (
                        family, n, k, speeds.name, result.clock_time, limit
                    )

    def test_budgets_for_scenario_monitors_the_clock(self):
        spec = ScenarioSpec(
            kind="async-tree", algorithm="async-cte",
            substrate=TreeSpec.named("random", 150, seed=1), k=4, seed=1,
            speed="adversarial-slowdown", speed_params={"factor": 4.0},
        )
        built = spec.build()
        budgets = budgets_for_scenario(built)
        assert [b.name for b in budgets] == ["async-cte"]
        assert budgets[0].limit == async_cte_bound(
            built.tree.n, built.tree.depth, 4
        )
        observer = BudgetObserver(budgets)
        row = built.run([observer])
        assert observer.violations == []
        assert observer.min_margin("async-cte") >= 0
        # The monitored value is the clock's completion time, not the
        # batch count — the margin must reflect the row's clock_time.
        assert observer.margins()["async-cte"] == pytest.approx(
            budgets[0].limit - row["clock_time"], abs=1e-6
        )


# ---------------------------------------------------------------------
# async-cte is also a well-behaved synchronous algorithm
# ---------------------------------------------------------------------

class TestAsyncCTESynchronous:
    def test_registered(self):
        algorithm = registry.make_algorithm("async-cte")
        assert algorithm.name == "AsyncCTE"
        assert "async-cte" in registry.ASYNC_ALGORITHMS
        assert registry.shared_reveal_default("async-cte")
        assert registry.workload_kind("async-cte") == "tree"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_terminates_in_lockstep_engine(self, family):
        tree = registry.make_tree(family, 90, seed=5)
        result = sync_run(tree, 3)
        assert result.complete and result.all_home


# ---------------------------------------------------------------------
# Backend parity: array declines async, falls back bit-for-bit
# ---------------------------------------------------------------------

class TestBackendDecline:
    def test_array_backend_row_matches_reference(self):
        built = ScenarioSpec(
            kind="async-tree", algorithm="async-cte",
            substrate=TreeSpec.named("random", 120, seed=2), k=4, seed=2,
            speed="stochastic",
        ).build()

        def row_for(observers):
            row = built.run(observers=observers)
            # Timing fields legitimately differ between runs.
            for key in ("elapsed", "rounds_per_sec",
                        "cpu_sec", "cpu_user_s", "cpu_sys_s", "max_rss_kb",
                        "energy_j"):
                row.pop(key, None)
            return row

        # The array fast path declines async clocks: the plain run and a
        # run pinned to the reference loop by a per-round observer agree.
        reference, plain = row_for([RoundObserver()]), row_for([])
        assert plain == reference
        assert plain["backend"] == "reference"

    def test_fallback_reports_reference_backend(self):
        spec = ScenarioSpec(
            kind="async-tree", algorithm="async-cte",
            substrate=TreeSpec.named("comb", 80, seed=0), k=2, seed=0,
        )
        row = spec.run()
        assert row["backend"] == "reference"

    def test_scheduler_seam_names(self):
        assert SyncRoundScheduler().name == "sync"
        assert AsyncEventScheduler(UnitSpeed()).name == "async"


# ---------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------

def async_spec(**overrides):
    defaults = dict(
        kind="async-tree", algorithm="async-cte",
        substrate=TreeSpec.named("random", 60, seed=1), k=3, seed=1,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestScenarioAsyncTree:
    def test_speed_requires_async_kind(self):
        with pytest.raises(ValueError, match="async-tree scenarios only"):
            ScenarioSpec(
                kind="tree", algorithm="bfdn",
                substrate=TreeSpec.named("random", 50), k=2, speed="unit",
            )

    def test_async_kind_requires_async_algorithm(self):
        with pytest.raises(ValueError, match="async-capable"):
            async_spec(algorithm="bfdn")

    def test_rejects_adversary_and_policy(self):
        with pytest.raises(ValueError, match="adversary"):
            async_spec(adversary="random")
        with pytest.raises(ValueError, match="policy"):
            async_spec(policy="deepest")

    def test_rejects_bad_schedule_params(self):
        with pytest.raises(ValueError, match="slow"):
            async_spec(speed="adversarial-slowdown", speed_params={"slow": 7})

    def test_sync_fingerprints_have_no_speed_key(self):
        spec = ScenarioSpec(
            kind="tree", algorithm="bfdn",
            substrate=TreeSpec.named("random", 50), k=2,
        )
        assert "speed" not in spec.canonical()

    def test_speed_is_fingerprinted_for_async_kind(self):
        unit = async_spec()
        assert unit.canonical()["speed"] == "unit"
        slow = async_spec(speed="adversarial-slowdown")
        assert unit.fingerprint() != slow.fingerprint()
        assert slow.fingerprint() != async_spec(
            speed="adversarial-slowdown", speed_params={"factor": 8.0}
        ).fingerprint()

    def test_json_roundtrip(self):
        for spec in (
            async_spec(),
            async_spec(speed="stochastic", speed_params={"low": 0.5}),
        ):
            rebuilt = ScenarioSpec.from_json(spec.to_json())
            assert rebuilt == spec
            assert rebuilt.fingerprint() == spec.fingerprint()

    def test_row_shape(self):
        row = async_spec(speed="stochastic", compute_bounds=True).run()
        assert row["kind"] == "async-tree"
        assert row["speed"] == "stochastic"
        assert row["complete"] and row["all_home"]
        assert row["clock_time"] > 0
        assert row["clock_skew"] >= 0
        assert 0 <= row["slowest_robot"] < 3
        assert row["async_bound"] >= row["clock_time"]
        assert row["wall_rounds"] >= row["rounds"]

    def test_grid_flips_async_capable_algorithms_only(self):
        specs = scenario_grid(
            ["async-cte", "bfdn"],
            [("w", TreeSpec.named("random", 40))],
            [2],
            speed="stochastic",
        )
        kinds = {s.algorithm: s.kind for s in specs}
        assert kinds == {"async-cte": "async-tree", "bfdn": "tree"}
        assert all(
            s.speed == ("stochastic" if s.kind == "async-tree" else None)
            for s in specs
        )

    def test_grid_rejects_speed_plus_adversary(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            scenario_grid(
                ["async-cte"], [("w", TreeSpec.named("random", 40))], [2],
                speed="unit", adversary="random",
            )


# ---------------------------------------------------------------------
# Telemetry: clock events and the tail skew section (satellite 3)
# ---------------------------------------------------------------------

class _CapturingWriter:
    def __init__(self):
        self.events = []

    def emit(self, event, **kwargs):
        self.events.append((event, kwargs))


class TestClockTelemetry:
    def test_metrics_observer_emits_clock_event(self):
        from repro.obs.metrics import MetricsObserver

        writer = _CapturingWriter()
        observer = MetricsObserver(writer=writer, label="async-job")
        result = async_run(
            registry.make_tree("random", 80, seed=1), 3,
            AdversarialSlowdown(slow=1, factor=3.0),
            observers=[observer],
        )
        clock_events = [kw for ev, kw in writer.events if ev == "clock"]
        assert len(clock_events) == 1
        payload = clock_events[0]["data"]
        assert payload == result.clock.summary()
        assert payload["k"] == 3
        assert len(payload["times"]) == 3

    def test_sync_runs_emit_no_clock_event(self):
        from repro.obs.metrics import MetricsObserver

        writer = _CapturingWriter()
        sync_run(
            registry.make_tree("random", 60, seed=1), 2,
            observers=[MetricsObserver(writer=writer)],
        )
        assert not [ev for ev, _ in writer.events if ev == "clock"]

    def test_tail_renders_skew_and_slowest_robot(self):
        events = [
            TelemetryEvent(event="run_start", trace_id="t", span_id="s",
                           ts=0.0, label="async-job"),
            TelemetryEvent(event="clock", trace_id="t", span_id="s", ts=1.0,
                           data={"k": 3, "completion_time": 41.5,
                                 "max_time": 44.0, "skew": 2.5, "slowest": 2,
                                 "times": [41.5, 42.0, 44.0]}),
            TelemetryEvent(event="run_end", trace_id="t", span_id="s", ts=2.0),
        ]
        summary = summarize(events)
        assert summary.spans[("t", "s")].clock["slowest"] == 2
        text = "\n".join(render(summary))
        assert "async clocks" in text
        assert "robot 2" in text
        assert "100% of wall" in text

    def test_tail_without_clock_events_has_no_section(self):
        events = [
            TelemetryEvent(event="run_start", trace_id="t", span_id="s", ts=0.0),
            TelemetryEvent(event="run_end", trace_id="t", span_id="s", ts=1.0),
        ]
        assert "async clocks" not in "\n".join(render(summarize(events)))


# ---------------------------------------------------------------------
# End-to-end: cached async sweeps
# ---------------------------------------------------------------------

class TestAsyncSweep:
    def test_cached_sweep_round_trips(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        kwargs = dict(
            workloads=[("random-n60", TreeSpec.named("random", 60, seed=1))],
            team_sizes=[2, 4],
            store=store,
            speed="adversarial-slowdown",
            speed_params={"factor": 4.0},
        )
        first = run_sweep_cached(["async-cte"], **kwargs)
        assert not first.failures
        assert first.tracker.hit_rate() == 0.0
        second = run_sweep_cached(["async-cte"], **kwargs)
        assert not second.failures
        assert second.tracker.hit_rate() == 1.0
        rows = [r.as_row() for r in second.records]
        assert {row["k"] for row in rows} == {2, 4}
        # The async bound lands in the shared 'bound' table column.
        assert all(row["bound"] > 0 for row in rows)

    def test_speed_changes_the_cache_namespace(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        kwargs = dict(
            workloads=[("random-n60", TreeSpec.named("random", 60, seed=1))],
            team_sizes=[2],
            store=store,
        )
        run_sweep_cached(["async-cte"], speed="unit", **kwargs)
        second = run_sweep_cached(["async-cte"], speed="stochastic", **kwargs)
        assert second.tracker.hit_rate() == 0.0


# ---------------------------------------------------------------------
# The shared round body, driven by the asynchronous clock
# ---------------------------------------------------------------------

def async_engine(tree, k, speeds, observers=(), scheduler=None, **config):
    """A bare async-cte engine on ``tree`` (no ``cap_message`` unless
    given), returning ``(engine, state)``."""
    state = TreeRoundState(Exploration(tree, k, True))
    engine = RoundEngine(
        state=state,
        policy=AlgorithmPolicy(registry.make_algorithm("async-cte")),
        observers=list(observers),
        scheduler=scheduler if scheduler is not None else AsyncEventScheduler(speeds),
        **config,
    )
    return engine, state


class _PhaseCounter(RoundObserver):
    wants_phase_timing = True

    def __init__(self):
        self.phases = []
        self.rounds = 0

    def on_phase_times(self, select_s, apply_s, observe_s):
        self.phases.append((select_s, apply_s, observe_s))

    def on_round(self, state, record):
        self.rounds += 1
        # Exactly one phase report precedes each batch's record.
        assert len(self.phases) == self.rounds


class _ZeroSpeed(SpeedSchedule):
    name = "zero"

    def duration(self, robot, tick):
        return 0.0


class TestSharedRoundBody:
    def test_simulator_batch_cap_raises(self):
        tree = registry.make_tree("random", 120, seed=4)
        simulator = AsyncSimulator(
            tree, registry.make_algorithm("async-cte"), 3,
            AdversarialSlowdown(slow=1, factor=3.0), max_rounds=5,
        )
        with pytest.raises(RoundCapExceeded, match="exceeded 5 batches"):
            simulator.run()

    def test_default_cap_message_names_batches(self):
        engine, _ = async_engine(
            registry.make_tree("random", 120, seed=4), 3, UnitSpeed(),
            billed_cap=4,
        )
        with pytest.raises(
            RoundCapExceeded, match=r"run exceeded its batch cap \(billed=5, wall=5\)"
        ):
            engine.run()

    def test_early_stop_reports_observer_reason(self):
        engine, state = async_engine(
            registry.make_tree("comb", 100, seed=1), 3,
            StochasticSpeed(low=0.5, seed=3),
            observers=[EarlyStop(lambda state, record: record.t == 6, "seven")],
        )
        outcome = engine.run()
        assert outcome.stop_reason == "observer:seven"
        assert outcome.wall_rounds == 7
        assert state.clock.batches == 7
        assert outcome.billed_rounds == state.billed_rounds()

    def test_billed_stop_is_a_graceful_cap(self, caplog):
        engine, state = async_engine(
            registry.make_tree("random", 150, seed=2), 4,
            AdversarialSlowdown(slow=1, factor=4.0), billed_stop=10,
        )
        with caplog.at_level(logging.WARNING, logger="repro.sim.scheduler"):
            outcome = engine.run()
        assert outcome.stop_reason == "cap"
        assert outcome.billed_rounds == 10
        assert any(
            "10 billed batches >= cap 10" in r.getMessage()
            for r in caplog.records
        )
        state.clock.check()

    def test_phase_timing_once_per_batch(self):
        counter = _PhaseCounter()
        result = async_run(
            registry.make_tree("random", 80, seed=5), 3,
            StochasticSpeed(low=0.3, seed=1), observers=[counter],
        )
        # The final quiescent batch is reported but not billed to the wall.
        assert counter.rounds == result.clock.batches == result.wall_batches + 1
        assert len(counter.phases) == counter.rounds
        assert all(min(p) >= 0.0 for p in counter.phases)

    def test_non_positive_duration_is_rejected(self):
        with pytest.raises(ValueError, match="non-positive duration for robot 0"):
            async_run(registry.make_tree("random", 40, seed=1), 2, _ZeroSpeed())

    def test_scheduler_instance_is_reusable(self):
        tree = registry.make_tree("random", 90, seed=6)
        scheduler = AsyncEventScheduler(StochasticSpeed(low=0.25, seed=4))
        summaries, outcomes = [], []
        for _ in range(2):
            engine, state = async_engine(
                tree, 3, None, scheduler=scheduler, billed_cap=10_000,
            )
            outcomes.append(engine.run())
            summaries.append(state.clock.summary())
        assert summaries[0] == summaries[1]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0].stop_reason == "quiescent"
