"""The scenario DSL: parser, compiler, event semantics, engine equality.

Covers the four layers of :mod:`repro.scenarios` — spec validation and
JSON round-trips, the segment compiler's observation-grid invariance,
vectorized event application (conservation where required), and the
interpreter contracts: no-op bit-equality against static runs, ``R = 1``
stream equality with a hand-segmented batched process under events, and
the observation clock staying put when events fire between grid points.  Also pins the `EnsembleSpec` constructor guards that ride
along: the fault-schedule-past-window check and the scenario
compatibility rules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batched import BatchedRepeatedBallsIntoBins
from repro.core.native import native_available
from repro.errors import ConfigurationError, ScenarioError
from repro.graphs.batched import BatchedConstrainedWalks
from repro.graphs.generators import resolve_topology
from repro.parallel.ensemble import EnsembleSpec, run_ensemble
from repro.parallel.seeding import trial_seed
from repro.scenarios import (
    ScenarioEvent,
    ScenarioSpec,
    apply_event,
    available_scenarios,
    bin_churn,
    burst_recovery,
    compile_scenario,
    get_scenario,
    resolve_scenario,
    staged_adversary,
)
from repro.scenarios.engine import Run
from repro.scenarios.events import apply_bin_churn, apply_burst, apply_drain
from repro.scenarios.spec import CONSERVING_KINDS

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)


# ----------------------------------------------------------------------
# spec layer: validation + serialization
# ----------------------------------------------------------------------
class TestScenarioEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown event kind"):
            ScenarioEvent(kind="meteor", round=1)

    def test_round_must_be_positive(self):
        with pytest.raises(ScenarioError):
            ScenarioEvent(kind="burst", round=0, count=3)

    def test_until_requires_every(self):
        with pytest.raises(ScenarioError):
            ScenarioEvent(kind="burst", round=2, until=8, count=3)

    def test_until_before_round_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioEvent(kind="burst", round=8, every=2, until=4, count=3)

    def test_required_payload_field_enforced(self):
        with pytest.raises(ScenarioError, match="count"):
            ScenarioEvent(kind="burst", round=1)
        with pytest.raises(ScenarioError, match="adversary"):
            ScenarioEvent(kind="adversary", round=1)

    def test_inapplicable_payload_field_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioEvent(kind="burst", round=1, count=3, adversary="pyramid")

    def test_firings_periodic_expansion_and_clipping(self):
        event = ScenarioEvent(kind="burst", round=3, every=4, count=1)
        assert event.firings(12) == (3, 7, 11)
        clipped = ScenarioEvent(kind="burst", round=3, every=4, until=8, count=1)
        assert clipped.firings(100) == (3, 7)

    def test_first_firing_past_window_errors(self):
        event = ScenarioEvent(kind="burst", round=9, count=1)
        with pytest.raises(ScenarioError, match="past"):
            event.firings(8)

    def test_dict_round_trip_rejects_unknown_fields(self):
        event = ScenarioEvent(kind="drain", round=5, count=2)
        assert ScenarioEvent.from_dict(event.to_dict()) == event
        with pytest.raises(ScenarioError):
            ScenarioEvent.from_dict({"kind": "drain", "round": 5, "count": 2, "x": 1})


class TestScenarioSpec:
    def test_json_round_trip_is_canonical(self):
        spec = burst_recovery(at=4, count=8, drain_at=10)
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()

    def test_expand_events_sorted_by_round(self):
        spec = staged_adversary(switch=9, every=4)
        rounds = [when for when, _ in spec.expand_events(16)]
        assert rounds == sorted(rounds) == [4, 8, 9, 13]

    def test_noop(self):
        assert resolve_scenario('{"events": []}').is_noop
        assert not burst_recovery().is_noop


class TestCatalog:
    def test_available_scenarios_lists_all(self):
        assert sorted(available_scenarios()) == [
            "bin_churn",
            "burst_recovery",
            "staged_adversary",
        ]

    def test_get_scenario_with_overrides(self):
        spec = get_scenario("bin_churn:start=2,every=3,count=1,until=9")
        assert spec.events[0].firings(20) == (2, 5, 8)

    def test_unknown_name_and_bad_params(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("nope")
        with pytest.raises(ScenarioError):
            get_scenario("burst_recovery:nonsense=1")

    def test_burst_recovery_drain_must_follow_burst(self):
        with pytest.raises(ScenarioError):
            burst_recovery(at=8, drain_at=8)

    def test_staged_adversary_until_before_switch_rejected(self):
        with pytest.raises(ScenarioError):
            staged_adversary(switch=10, every=4, until=9)

    def test_resolve_scenario_spellings(self):
        from_name = resolve_scenario("burst_recovery")
        from_dict = resolve_scenario(from_name.to_dict())
        from_json = resolve_scenario(from_name.to_json())
        assert from_name == from_dict == from_json
        assert resolve_scenario(None) is None
        with pytest.raises(ScenarioError):
            resolve_scenario(42)


# ----------------------------------------------------------------------
# compiler
# ----------------------------------------------------------------------
class TestCompiler:
    def test_noop_compiles_to_single_static_run(self):
        program = compile_scenario(resolve_scenario('{"events": []}'), 40, 8)
        assert program.actions == (Run(rounds=40, observe_every=8, observed=True),)
        assert program.observation_rounds == (8, 16, 24, 32, 40)

    def test_events_do_not_shift_the_observation_grid(self):
        scenario = ScenarioSpec(
            events=(
                ScenarioEvent(kind="burst", round=13, count=4),
                ScenarioEvent(kind="drain", round=27, count=4),
            )
        )
        program = compile_scenario(scenario, 40, 8)
        assert program.observation_rounds == (8, 16, 24, 32, 40)
        assert program.n_events == 2

    def test_observe_every_event_changes_stride_mid_run(self):
        scenario = ScenarioSpec(
            events=(ScenarioEvent(kind="observe_every", round=9, value=2),)
        )
        program = compile_scenario(scenario, 16, 4)
        assert program.observation_rounds == (4, 8, 10, 12, 14, 16)

    def test_zero_rounds(self):
        program = compile_scenario(resolve_scenario('{"events": []}'), 0, 4)
        assert program.observation_rounds == ()


# ----------------------------------------------------------------------
# event application on (R, n) states
# ----------------------------------------------------------------------
class TestEvents:
    def test_burst_adds_exactly_count_per_replica(self):
        rng = np.random.default_rng(0)
        loads = np.full((3, 4), 2, dtype=np.int64)
        out = apply_burst(loads, 5, rng)
        assert np.array_equal(out.sum(axis=1), np.full(3, 13))
        assert np.all(out >= loads)

    def test_drain_removes_exactly_count_per_replica(self):
        rng = np.random.default_rng(0)
        loads = np.full((3, 4), 2, dtype=np.int64)
        out = apply_drain(loads, 5, rng)
        assert np.array_equal(out.sum(axis=1), np.full(3, 3))
        assert np.all(out >= 0)

    def test_drain_below_zero_rejected(self):
        rng = np.random.default_rng(0)
        loads = np.ones((2, 3), dtype=np.int64)
        with pytest.raises(ScenarioError, match="drain"):
            apply_drain(loads, 4, rng)

    def test_bin_churn_conserves_and_empties_churned_bins(self):
        rng = np.random.default_rng(1)
        loads = np.arange(12, dtype=np.int64).reshape(3, 4)
        out = apply_bin_churn(loads, 2, rng)
        assert np.array_equal(out.sum(axis=1), loads.sum(axis=1))
        # exactly the churned bins lost their entire load; with count=2
        # of 4 bins, at least 2 bins differ from the original per replica
        assert np.all((out != loads).sum(axis=1) >= 1)

    def test_apply_event_rejects_non_state_edits(self):
        rng = np.random.default_rng(0)
        loads = np.ones((1, 3), dtype=np.int64)
        with pytest.raises(ScenarioError):
            apply_event(
                ScenarioEvent(kind="rewire", round=1, topology="cycle:3"),
                loads,
                rng,
            )

    def test_adversary_event_conserves(self):
        rng = np.random.default_rng(2)
        loads = np.full((4, 6), 3, dtype=np.int64)
        out = apply_event(
            ScenarioEvent(kind="adversary", round=1, adversary="concentrate"),
            loads,
            rng,
        )
        assert np.array_equal(out.sum(axis=1), loads.sum(axis=1))


# ----------------------------------------------------------------------
# EnsembleSpec integration + guards
# ----------------------------------------------------------------------
class TestSpecIntegration:
    def test_scenario_field_accepts_all_spellings(self):
        for spelling in (
            "burst_recovery:at=2,count=4",
            '{"events": [{"kind": "burst", "round": 2, "count": 4}]}',
            burst_recovery(at=2, count=4),
        ):
            spec = EnsembleSpec(
                n_bins=4, n_replicas=2, rounds=8, scenario=spelling
            )
            assert not spec.resolved_scenario().is_noop

    def test_scenario_rejects_faulty_process(self):
        with pytest.raises(ConfigurationError, match="adversary.*events"):
            EnsembleSpec(
                n_bins=4,
                n_replicas=2,
                rounds=8,
                process="faulty",
                adversary="concentrate",
                fault_period=2,
                scenario="burst_recovery:at=2",
            )

    def test_scenario_rejects_stop_when_legitimate_and_warmup(self):
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=4,
                n_replicas=2,
                rounds=8,
                stop_when_legitimate=True,
                scenario="burst_recovery:at=2",
            )
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=4,
                n_replicas=2,
                rounds=8,
                warmup_rounds=2,
                scenario="burst_recovery:at=2",
            )

    def test_rewire_requires_graph_walks(self):
        scenario = ScenarioSpec(
            events=(ScenarioEvent(kind="rewire", round=2, topology="cycle:4"),)
        )
        with pytest.raises(ConfigurationError, match="graph_walks"):
            EnsembleSpec(n_bins=4, n_replicas=2, rounds=8, scenario=scenario)
        # node-count mismatch is also caught at spec construction
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=4,
                n_replicas=2,
                rounds=8,
                process="graph_walks",
                topology="cycle:4",
                scenario=ScenarioSpec(
                    events=(
                        ScenarioEvent(kind="rewire", round=2, topology="cycle:5"),
                    )
                ),
            )

    def test_bin_churn_count_bounded_by_bins(self):
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=4,
                n_replicas=2,
                rounds=16,
                scenario="bin_churn:start=2,every=4,count=4",
            )

    def test_drain_past_zero_balls_rejected_at_spec_time(self):
        with pytest.raises(ConfigurationError, match="drain"):
            EnsembleSpec(
                n_bins=4,
                n_replicas=2,
                rounds=8,
                scenario='{"events": [{"kind": "drain", "round": 2, "count": 5}]}',
            )

    def test_event_past_window_rejected(self):
        with pytest.raises(ConfigurationError, match="past"):
            EnsembleSpec(
                n_bins=4, n_replicas=2, rounds=8, scenario="burst_recovery:at=9"
            )


class TestFaultScheduleWindowGuard:
    """Satellite: fault schedules that never fire now fail at spec time."""

    def test_first_fault_past_window_errors(self):
        with pytest.raises(ConfigurationError, match="past the window"):
            EnsembleSpec(
                n_bins=4,
                n_replicas=2,
                rounds=8,
                process="faulty",
                adversary="concentrate",
                fault_period=9,
            )

    def test_offset_past_window_errors(self):
        with pytest.raises(ConfigurationError, match="past the window"):
            EnsembleSpec(
                n_bins=4,
                n_replicas=2,
                rounds=8,
                process="faulty",
                adversary="concentrate",
                fault_period=2,
                fault_offset=11,
            )

    def test_schedule_inside_window_accepted(self):
        spec = EnsembleSpec(
            n_bins=4,
            n_replicas=2,
            rounds=8,
            process="faulty",
            adversary="concentrate",
            fault_period=8,
        )
        assert spec.fault_schedule().is_faulty(8)
        # offset exactly at the horizon still fires once
        EnsembleSpec(
            n_bins=4,
            n_replicas=2,
            rounds=8,
            process="faulty",
            adversary="concentrate",
            fault_period=3,
            fault_offset=8,
        )


# ----------------------------------------------------------------------
# interpreter contracts
# ----------------------------------------------------------------------
EVENTFUL_SCENARIO = (
    '{"events": ['
    '{"kind": "burst", "round": 3, "count": 7},'
    '{"kind": "adversary", "round": 5, "adversary": "concentrate"},'
    '{"kind": "bin_churn", "round": 8, "count": 2},'
    '{"kind": "drain", "round": 10, "count": 7}'
    "]}"
)


def _replica0_seed(seed):
    """The simulation stream run_ensemble gives replica 0 of a 1-shard run."""
    _, sim_seq = trial_seed(seed, 0).spawn(2)
    return sim_seq


def _hand_segmented(process, scenario, rounds, rewire=None):
    """Drive ``process`` through ``scenario`` by hand.

    Engine runs between event rounds and ``apply_event`` edits at them —
    the program the interpreter executes, with none of its machinery.
    Returns ``(process, max_seen, min_empty, first_legit)``, folding the
    window statistics as the interpreter does: post-step configurations
    plus post-edit maxima.
    """
    max_seen = np.zeros(process.n_replicas, dtype=np.int64)
    min_empty = np.full(process.n_replicas, process.n_bins, dtype=np.int64)
    first_legit = np.full(process.n_replicas, -1, dtype=np.int64)
    cursor = 0

    def advance(length):
        result = process.run(length)
        np.maximum(max_seen, result.max_load_seen, out=max_seen)
        np.minimum(min_empty, result.min_empty_bins_seen, out=min_empty)
        hit = (first_legit < 0) & (result.first_legitimate_round >= 0)
        first_legit[hit] = result.first_legitimate_round[hit]

    for when, event in scenario.expand_events(rounds):
        if when - 1 > cursor:
            advance(when - 1 - cursor)
            cursor = when - 1
        if event.kind == "rewire":
            process = rewire(process, event)
            continue
        edited = apply_event(event, process.loads, process.rng)
        if event.kind in CONSERVING_KINDS:
            process.inject_loads(edited)
        else:
            process.replace_loads(edited)
        np.maximum(max_seen, edited.max(axis=1), out=max_seen)
    advance(rounds - cursor)
    return process, max_seen, min_empty, first_legit


class TestInterpreter:
    def test_noop_scenario_bit_equal_to_static_run(self):
        config = dict(
            n_bins=5,
            n_replicas=8,
            rounds=12,
            start="all_in_one",
            metrics="max_load,empty_bins",
            observe_every=3,
        )
        static = run_ensemble(EnsembleSpec(**config), seed=7, kernel="numpy")
        noop = run_ensemble(
            EnsembleSpec(**config, scenario='{"events": []}'),
            seed=7,
            kernel="numpy",
        )
        assert np.array_equal(static.final_loads, noop.final_loads)
        assert np.array_equal(static.max_load_seen, noop.max_load_seen)
        assert np.array_equal(
            static.first_legitimate_round, noop.first_legitimate_round
        )
        for name in static.metrics:
            assert np.array_equal(
                static.metrics[name].rounds, noop.metrics[name].rounds
            )
            for key, series in static.metrics[name].series.items():
                assert np.array_equal(series, noop.metrics[name].series[key])

    def test_r1_stream_equality_with_events(self):
        config = dict(
            n_bins=6,
            n_replicas=1,
            rounds=12,
            start="balanced",
            scenario=EVENTFUL_SCENARIO,
        )
        batched = run_ensemble(
            EnsembleSpec(**config), seed=11, engine="batched", kernel="numpy"
        )
        process, max_seen, min_empty, first_legit = _hand_segmented(
            BatchedRepeatedBallsIntoBins(
                6, 1, seed=_replica0_seed(11), kernel="numpy"
            ),
            resolve_scenario(EVENTFUL_SCENARIO),
            12,
        )
        assert np.array_equal(batched.final_loads, process.loads)
        assert np.array_equal(batched.max_load_seen, max_seen)
        assert np.array_equal(batched.min_empty_bins_seen, min_empty)
        assert np.array_equal(batched.first_legitimate_round, first_legit)
        # the burst of 7 balls into 6 bins is in the window
        assert batched.max_load_seen[0] >= 2

    def test_ball_accounting_across_events(self):
        spec = EnsembleSpec(
            n_bins=6,
            n_replicas=4,
            rounds=12,
            start="balanced",
            scenario=EVENTFUL_SCENARIO,
        )
        result = run_ensemble(spec, seed=0, kernel="numpy")
        # burst +7 at 3, drain -7 at 10; conserving events in between
        assert np.all(result.final_loads.sum(axis=1) == 6)
        assert np.all(result.final_loads >= 0)

    @needs_native
    def test_native_kernel_runs_scenarios(self):
        spec = EnsembleSpec(
            n_bins=6,
            n_replicas=4,
            rounds=12,
            start="balanced",
            scenario=EVENTFUL_SCENARIO,
            metrics="max_load",
            observe_every=4,
        )
        result = run_ensemble(spec, seed=0, kernel="native")
        assert np.all(result.final_loads.sum(axis=1) == 6)
        assert tuple(int(r) for r in result.metrics["max_load"].rounds) == (
            4,
            8,
            12,
        )

    def test_rewire_scenario_switches_topology(self):
        spec = EnsembleSpec(
            n_bins=4,
            n_replicas=2,
            rounds=8,
            process="graph_walks",
            topology="cycle:4",
            scenario=ScenarioSpec(
                events=(
                    ScenarioEvent(kind="rewire", round=4, topology="star:4"),
                )
            ),
        )
        batched = run_ensemble(spec, seed=5, engine="batched", kernel="numpy")
        assert batched.final_loads.shape == (2, 4)
        assert np.all(batched.final_loads.sum(axis=1) == 4)
        # the R=1 run agrees with a hand-driven walk rewired at round 4
        spec1 = EnsembleSpec(
            n_bins=4,
            n_replicas=1,
            rounds=8,
            process="graph_walks",
            topology="cycle:4",
            scenario=spec.scenario,
        )
        b1 = run_ensemble(spec1, seed=5, engine="batched", kernel="numpy")

        def rewire(process, event):
            return BatchedConstrainedWalks(
                resolve_topology(event.topology),
                1,
                initial=process.loads,
                seed=process.rng,
                kernel="numpy",
            )

        process, max_seen, min_empty, _ = _hand_segmented(
            BatchedConstrainedWalks(
                resolve_topology("cycle:4"),
                1,
                seed=_replica0_seed(5),
                kernel="numpy",
            ),
            spec1.resolved_scenario(),
            8,
            rewire=rewire,
        )
        assert process.topology is resolve_topology("star:4")
        assert np.array_equal(b1.final_loads, process.loads)
        assert np.array_equal(b1.max_load_seen, max_seen)
        assert np.array_equal(b1.min_empty_bins_seen, min_empty)


def _process_builders():
    """One builder per process family, all at ``R = 3`` replicas."""
    from repro.adversary.batched import BatchedFaultyProcess
    from repro.baselines.d_choices import BatchedDChoices
    from repro.graphs.batched import BatchedConstrainedWalks
    from repro.graphs.generators import resolve_topology

    return [
        pytest.param(
            lambda: BatchedRepeatedBallsIntoBins(5, 3, seed=0, kernel="numpy"),
            id="rbb",
        ),
        pytest.param(lambda: BatchedDChoices(5, 3, d=2, seed=0), id="d_choices"),
        pytest.param(
            lambda: BatchedConstrainedWalks(
                resolve_topology("cycle:5"), 3, seed=0, kernel="numpy"
            ),
            id="graph_walks",
        ),
        pytest.param(
            lambda: BatchedFaultyProcess(5, 3, seed=0, kernel="numpy").process,
            id="faulty",
        ),
    ]


class TestInjectLoadsConservation:
    """Satellite: the Section 4.1 conservation gate on every process family.

    ``inject_loads`` must accept any per-replica rearrangement of the
    current balls and reject any matrix that creates or destroys balls in
    *any single replica* — including matrices whose grand total is right
    but whose per-replica totals are not (the ``R > 1`` failure mode a
    global-sum check would miss).
    """

    @pytest.mark.parametrize("build", _process_builders())
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_replica_permutations_accepted(self, build, seed):
        process = build()
        process.run(3)
        rng = np.random.default_rng(seed)
        before = process.loads
        shuffled = np.stack([rng.permutation(row) for row in before])
        process.inject_loads(shuffled)
        assert np.array_equal(process.loads.sum(axis=1), before.sum(axis=1))

    @pytest.mark.parametrize("build", _process_builders())
    def test_cross_replica_transfer_rejected(self, build):
        process = build()
        process.run(3)
        bad = process.loads.copy()
        # move one ball from replica 1 to replica 0: the grand total is
        # unchanged, but both replicas now violate conservation
        src = int(np.flatnonzero(bad[1] > 0)[0])
        bad[0, 0] += 1
        bad[1, src] -= 1
        with pytest.raises(ConfigurationError, match="conserve"):
            process.inject_loads(bad)
        # the failed injection must not have modified the state
        assert np.array_equal(
            process.loads.sum(axis=1), np.full(3, process.loads.shape[1])
        )

    @pytest.mark.parametrize("build", _process_builders())
    def test_single_replica_surplus_rejected(self, build):
        process = build()
        bad = process.loads.copy()
        bad[2, 0] += 1
        with pytest.raises(ConfigurationError, match="replica 2"):
            process.inject_loads(bad)

    def test_replace_loads_rebaselines_conservation(self):
        process = BatchedRepeatedBallsIntoBins(5, 3, seed=0, kernel="numpy")
        grown = process.loads.copy()
        grown[:, 0] += 4
        process.replace_loads(grown)
        process.run(2)
        assert np.all(process.loads.sum(axis=1) == 9)
        # and the conservation gate now tracks the new totals
        with pytest.raises(ConfigurationError, match="conserve"):
            process.inject_loads(np.zeros((3, 5), dtype=np.int64))


class TestObservationClock:
    """Satellite: events between grid points must not shift observations."""

    EXPECTED = [8, 16, 24, 32, 40]

    def _config(self):
        return dict(
            n_bins=8,
            n_replicas=3,
            rounds=40,
            observe_every=8,
            start="balanced",
            metrics="max_load",
            scenario='{"events": [{"kind": "burst", "round": 13, "count": 6}]}',
        )

    def _rounds(self, **kwargs):
        result = run_ensemble(EnsembleSpec(**self._config()), seed=2, **kwargs)
        return [int(r) for r in result.metrics["max_load"].rounds]

    def test_batched_numpy(self):
        assert self._rounds(engine="batched", kernel="numpy") == self.EXPECTED

    @needs_native
    def test_native_fused(self):
        assert self._rounds(engine="batched", kernel="native") == self.EXPECTED

    @needs_native
    def test_native_segmented(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        assert self._rounds(engine="batched", kernel="native") == self.EXPECTED
