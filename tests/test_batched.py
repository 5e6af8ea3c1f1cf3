"""Tests for the batched ensemble engine (core.batched, parallel.ensemble).

The load-bearing guarantee is *engine equivalence*: with ``R == 1`` and the
same seed, the numpy kernel of :class:`BatchedRepeatedBallsIntoBins` must
reproduce :class:`RepeatedBallsIntoBins` step for step (identical generator
consumption).  On top of that sit ball-conservation and distributional
sanity checks at ``R > 1``, the per-replica early stop, the native kernel
(when a C compiler is available), and the engine-selection surface.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import (
    BatchedRepeatedBallsIntoBins,
    EnsembleResult,
    make_ensemble_initial,
)
from repro.core.config import DEFAULT_BETA, LoadConfiguration, legitimacy_threshold
from repro.core.native import native_available
from repro.core.process import RepeatedBallsIntoBins
from repro.errors import ConfigurationError
from repro.parallel.aggregate import aggregate_ensemble
from repro.parallel.ensemble import EnsembleSpec, run_ensemble

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)


# ----------------------------------------------------------------------
# R = 1 equivalence with the sequential simulator (numpy kernel)
# ----------------------------------------------------------------------
class TestSequentialEquivalence:
    @pytest.mark.parametrize(
        "n,m", [(2, 2), (8, 8), (64, 64), (32, 64), (16, 5), (7, 0)]
    )
    def test_step_for_step(self, n, m):
        sequential = RepeatedBallsIntoBins(n, n_balls=m, seed=1234)
        batched = BatchedRepeatedBallsIntoBins(
            n, 1, n_balls=m, seed=1234, kernel="numpy"
        )
        for _ in range(100):
            expected = sequential.step()
            actual = batched.step()
            assert np.array_equal(expected, actual[0])

    def test_step_for_step_from_all_in_one(self):
        initial = LoadConfiguration.all_in_one(32)
        sequential = RepeatedBallsIntoBins(32, initial=initial, seed=9)
        batched = BatchedRepeatedBallsIntoBins(
            32, 1, initial=initial, seed=9, kernel="numpy"
        )
        for _ in range(200):
            assert np.array_equal(sequential.step(), batched.step()[0])

    def test_run_metrics_match(self):
        sequential = RepeatedBallsIntoBins(64, seed=7)
        batched = BatchedRepeatedBallsIntoBins(64, 1, seed=7, kernel="numpy")
        seq_result = sequential.run(250)
        bat_result = batched.run(250)
        assert seq_result.max_load_seen == bat_result.max_load_seen[0]
        assert seq_result.min_empty_bins_seen == bat_result.min_empty_bins_seen[0]
        expected_first = (
            -1
            if seq_result.first_legitimate_round is None
            else seq_result.first_legitimate_round
        )
        assert expected_first == bat_result.first_legitimate_round[0]
        assert np.array_equal(
            seq_result.final_configuration.loads, bat_result.final_loads[0]
        )

    def test_run_until_legitimate_matches(self):
        initial = LoadConfiguration.all_in_one(64)
        sequential = RepeatedBallsIntoBins(64, initial=initial, seed=11)
        batched = BatchedRepeatedBallsIntoBins(
            64, 1, initial=initial, seed=11, kernel="numpy"
        )
        hit = sequential.run_until_legitimate(20 * 64)
        vec = batched.run_until_legitimate(20 * 64)
        assert (hit if hit is not None else -1) == vec[0]

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=48),
        m=st.integers(min_value=0, max_value=96),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_trajectory_equality(self, n, m, seed):
        sequential = RepeatedBallsIntoBins(n, n_balls=m, seed=seed)
        batched = BatchedRepeatedBallsIntoBins(
            n, 1, n_balls=m, seed=seed, kernel="numpy"
        )
        for _ in range(20):
            assert np.array_equal(sequential.step(), batched.step()[0])


# ----------------------------------------------------------------------
# Ensemble semantics at R > 1 (numpy kernel)
# ----------------------------------------------------------------------
class TestBatchedEnsemble:
    def test_ball_conservation_per_replica(self):
        initial = make_ensemble_initial("random_uniform", 32, 20, seed=0)
        batched = BatchedRepeatedBallsIntoBins(
            32, 20, initial=initial, seed=1, kernel="numpy"
        )
        expected = initial.sum(axis=1)
        batched.run(100)
        assert np.array_equal(batched.loads.sum(axis=1), expected)

    def test_heterogeneous_ball_counts(self):
        rows = np.vstack(
            [
                LoadConfiguration.balanced(16, 8).as_array(),
                LoadConfiguration.balanced(16, 16).as_array(),
                LoadConfiguration.balanced(16, 40).as_array(),
            ]
        )
        batched = BatchedRepeatedBallsIntoBins(
            16, 3, initial=rows, seed=2, kernel="numpy"
        )
        batched.run(50)
        assert batched.loads.sum(axis=1).tolist() == [8, 16, 40]

    def test_metric_reducers_are_vectors(self):
        batched = BatchedRepeatedBallsIntoBins(16, 5, seed=3, kernel="numpy")
        batched.step()
        assert batched.max_load.shape == (5,)
        assert batched.num_empty_bins.shape == (5,)
        assert batched.is_legitimate().shape == (5,)
        assert batched.loads.shape == (5, 16)
        with pytest.raises(ValueError):
            batched.loads[0, 0] = 99  # read-only view

    def test_early_stop_freezes_replicas(self):
        initial = make_ensemble_initial("all_in_one", 64, 10)
        batched = BatchedRepeatedBallsIntoBins(
            64, 10, initial=initial, seed=4, kernel="numpy"
        )
        result = batched.run(20 * 64, stop_when_legitimate=True)
        assert result.converged_fraction == 1.0
        assert not batched.active.any()
        frozen = batched.loads.copy()
        rounds_before = batched.rounds_completed
        batched.run(25)  # all frozen: nothing may change
        assert np.array_equal(batched.loads, frozen)
        assert np.array_equal(batched.rounds_completed, rounds_before)

    def test_early_stop_rounds_match_first_legitimate(self):
        initial = make_ensemble_initial("all_in_one", 64, 8)
        batched = BatchedRepeatedBallsIntoBins(
            64, 8, initial=initial, seed=5, kernel="numpy"
        )
        result = batched.run(20 * 64, stop_when_legitimate=True)
        assert np.array_equal(result.rounds, result.first_legitimate_round)

    def test_already_legitimate_replica_stops_immediately(self):
        batched = BatchedRepeatedBallsIntoBins(64, 4, seed=6, kernel="numpy")
        result = batched.run(10, stop_when_legitimate=True)
        # the balanced start is legitimate, so no replica simulates a round
        assert np.array_equal(result.first_legitimate_round, np.zeros(4))
        assert np.array_equal(result.rounds, np.zeros(4))

    def test_distributional_sanity_vs_sequential(self):
        n, trials, rounds = 64, 120, 128
        batched = BatchedRepeatedBallsIntoBins(n, trials, seed=7, kernel="numpy")
        ensemble = batched.run(rounds)
        rng = np.random.default_rng(7)
        sequential_max = []
        for _ in range(40):
            process = RepeatedBallsIntoBins(n, seed=rng)
            sequential_max.append(process.run(rounds).max_load_seen)
        batched_mean = ensemble.max_load_seen.mean()
        sequential_mean = float(np.mean(sequential_max))
        # same distribution: window-max means agree within a loose tolerance
        assert abs(batched_mean - sequential_mean) < 0.2 * sequential_mean + 1.0
        # Lemma 2: the empty-bin fraction stays above ~1/4 after round one
        assert ensemble.min_empty_bins_seen.min() >= n // 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(0, 1)
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(4, 0)
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(4, 1, kernel="fortran")
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(4, 2, initial=np.zeros((3, 4), dtype=int))
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(4, 1, initial=-np.ones((1, 4), dtype=int))
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(4, 1).run(-1)

    def test_reset(self):
        batched = BatchedRepeatedBallsIntoBins(16, 3, seed=8, kernel="numpy")
        batched.run(20, stop_when_legitimate=True)
        batched.reset()
        assert batched.active.all()
        assert (batched.rounds_completed == 0).all()
        assert (batched.loads == 1).all()


# ----------------------------------------------------------------------
# make_ensemble_initial
# ----------------------------------------------------------------------
class TestEnsembleInitial:
    @pytest.mark.parametrize(
        "kind", ["balanced", "all_in_one", "pyramid", "legitimate_extreme"]
    )
    def test_deterministic_kinds(self, kind):
        block = make_ensemble_initial(kind, 16, 4, n_balls=20)
        assert block.shape == (4, 16)
        assert (block.sum(axis=1) == 20).all()
        assert (block == block[0]).all()  # replicated rows

    def test_random_uniform(self):
        block = make_ensemble_initial("random_uniform", 16, 50, n_balls=32, seed=0)
        assert block.shape == (50, 16)
        assert (block.sum(axis=1) == 32).all()
        assert not (block == block[0]).all()  # independent throws per replica

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_ensemble_initial("spiral", 8, 2)


# ----------------------------------------------------------------------
# EnsembleResult aggregate
# ----------------------------------------------------------------------
class TestEnsembleResult:
    @pytest.fixture
    def result(self) -> EnsembleResult:
        batched = BatchedRepeatedBallsIntoBins(32, 6, seed=9, kernel="numpy")
        return batched.run(64)

    def test_vectors_and_aggregates(self, result):
        assert result.n_replicas == 6
        assert result.max_load_seen.shape == (6,)
        assert (result.n_balls == 32).all()
        assert 0.0 <= result.converged_fraction <= 1.0
        assert result.ended_legitimate().shape == (6,)
        assert result.configuration(0).n_bins == 32

    def test_to_records_and_aggregate(self, result):
        records = result.to_records()
        assert len(records) == 6
        assert set(records[0]) == {
            "window_max_load",
            "min_empty_bins",
            "first_legitimate_round",
            "rounds",
            "final_max_load",
        }
        aggregate = aggregate_ensemble(result)
        assert aggregate.n_trials == 6
        assert aggregate.mean("window_max_load") == pytest.approx(
            result.max_load_seen.mean()
        )

    def test_describe(self, result):
        info = result.describe()
        assert info["n_replicas"] == 6.0
        assert info["mean_window_max_load"] > 0

    def test_concatenate(self, result):
        merged = EnsembleResult.concatenate([result, result])
        assert merged.n_replicas == 12
        assert merged.n_bins == result.n_bins
        with pytest.raises(ConfigurationError):
            EnsembleResult.concatenate([])


# ----------------------------------------------------------------------
# Native kernel
# ----------------------------------------------------------------------
@needs_native
class TestNativeKernel:
    def test_conservation_and_sanity(self):
        batched = BatchedRepeatedBallsIntoBins(64, 40, seed=10, kernel="native")
        result = batched.run(256)
        assert result.kernel == "native"
        assert (result.n_balls == 64).all()
        threshold = legitimacy_threshold(64, DEFAULT_BETA)
        assert (result.max_load_seen <= 3 * threshold).all()
        assert (result.min_empty_bins_seen >= 64 // 8).all()

    def test_deterministic_for_fixed_seed(self):
        first = BatchedRepeatedBallsIntoBins(32, 8, seed=11, kernel="native").run(100)
        second = BatchedRepeatedBallsIntoBins(32, 8, seed=11, kernel="native").run(100)
        assert np.array_equal(first.final_loads, second.final_loads)
        assert np.array_equal(first.max_load_seen, second.max_load_seen)

    def test_distribution_matches_numpy_kernel(self):
        n, trials, rounds = 64, 150, 128
        native = BatchedRepeatedBallsIntoBins(
            n, trials, seed=12, kernel="native"
        ).run(rounds)
        reference = BatchedRepeatedBallsIntoBins(
            n, trials, seed=12, kernel="numpy"
        ).run(rounds)
        native_mean = native.max_load_seen.mean()
        reference_mean = reference.max_load_seen.mean()
        assert abs(native_mean - reference_mean) < 0.15 * reference_mean + 1.0
        assert abs(
            native.min_empty_bins_seen.mean() - reference.min_empty_bins_seen.mean()
        ) < 0.15 * reference.min_empty_bins_seen.mean() + 2.0

    def test_early_stop(self):
        initial = make_ensemble_initial("all_in_one", 64, 10)
        batched = BatchedRepeatedBallsIntoBins(
            64, 10, initial=initial, seed=13, kernel="native"
        )
        result = batched.run(20 * 64, stop_when_legitimate=True)
        assert result.converged_fraction == 1.0
        assert (result.first_legitimate_round > 0).all()
        assert (result.first_legitimate_round < 20 * 64).all()

    def test_oversized_state_rejected_not_downgraded(self):
        initial = np.zeros((1, 4), dtype=np.int64)
        initial[0, 0] = 2**31  # does not fit the kernel's int32 loads
        batched = BatchedRepeatedBallsIntoBins(
            4, 1, initial=initial, seed=14, kernel="native"
        )
        with pytest.raises(ConfigurationError, match="int32"):
            batched.run(1)


# ----------------------------------------------------------------------
# Engine selection surface
# ----------------------------------------------------------------------
class TestRunEnsemble:
    def test_engines_share_schema(self):
        spec = EnsembleSpec(n_bins=32, n_replicas=12, rounds=64, start="random_uniform")
        result = run_ensemble(spec, seed=0, engine="batched", kernel="numpy")
        assert result.n_replicas == 12
        assert result.max_load_seen.shape == (12,)
        assert (result.n_balls == 32).all()
        assert result.kernel == "numpy"

    def test_engines_agree_distributionally(self):
        spec = EnsembleSpec(
            n_bins=64,
            n_replicas=60,
            rounds=20 * 64,
            start="all_in_one",
            stop_when_legitimate=True,
        )
        batched = run_ensemble(spec, seed=1, engine="batched", kernel="numpy")
        assert batched.converged_fraction == 1.0
        # the R == 1 reference simulator, one replica after another
        rng = np.random.default_rng(1)
        reference = [
            RepeatedBallsIntoBins(
                64, initial=LoadConfiguration.all_in_one(64), seed=rng
            ).run_until_legitimate(20 * 64)
            for _ in range(60)
        ]
        assert None not in reference
        mean_b = batched.first_legitimate_round.mean()
        mean_s = float(np.mean(reference))
        assert abs(mean_b - mean_s) < 0.35 * max(mean_b, mean_s)

    def test_warmup_rounds(self):
        spec = EnsembleSpec(
            n_bins=32, n_replicas=8, rounds=40, start="all_in_one", warmup_rounds=1
        )
        result = run_ensemble(spec, seed=2, engine="batched", kernel="numpy")
        # after the warm-up round the all-in-one spike has dispersed, so the
        # tracked window max is far below n
        assert (result.max_load_seen < 32).all()
        assert (result.rounds == 40).all()

    def test_deterministic_per_engine(self):
        spec = EnsembleSpec(n_bins=16, n_replicas=6, rounds=30)
        a = run_ensemble(spec, seed=3, engine="batched", kernel="numpy")
        b = run_ensemble(spec, seed=3, engine="batched", kernel="numpy")
        assert np.array_equal(a.final_loads, b.final_loads)

    def test_explicit_matrix_start(self):
        start = make_ensemble_initial("random_uniform", 16, 5, seed=4)
        spec = EnsembleSpec(n_bins=16, n_replicas=5, rounds=10, start=start)
        result = run_ensemble(spec, seed=5, engine="batched", kernel="numpy")
        assert np.array_equal(result.n_balls, start.sum(axis=1))

    def test_sharded_pool_runs(self):
        spec = EnsembleSpec(n_bins=16, n_replicas=9, rounds=20)
        result = run_ensemble(spec, seed=6, engine="batched", n_workers=2)
        assert result.n_replicas == 9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EnsembleSpec(n_bins=0, n_replicas=1, rounds=1)
        with pytest.raises(ConfigurationError):
            EnsembleSpec(n_bins=4, n_replicas=1, rounds=1, start="spiral")
        spec = EnsembleSpec(n_bins=4, n_replicas=1, rounds=1)
        with pytest.raises(ConfigurationError):
            run_ensemble(spec, engine="quantum")

    def test_sequential_engine_is_refused(self):
        spec = EnsembleSpec(n_bins=4, n_replicas=1, rounds=1)
        with pytest.raises(ConfigurationError, match="RepeatedBallsIntoBins"):
            run_ensemble(spec, engine="sequential")
