"""Tests for the batched Greedy[d] baseline (BatchedDChoices + one-shot).

The load-bearing guarantee mirrors the batched engine's: with ``R == 1``
and the same seed, :class:`BatchedDChoices` must reproduce
:class:`DChoicesProcess` step for step (identical generator consumption),
and in particular the max-load distribution over a fixed seed grid must
match quantile for quantile.  On top of that sit conservation checks at
``R > 1``, protocol conformance, and the ensemble-engine routing, and
golden sha256 digests that pin the ``R > 1`` outputs bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines import d_choices
from repro.baselines.d_choices import (
    BatchedDChoices,
    DChoicesProcess,
    batched_one_shot_d_choices_max_load,
    one_shot_d_choices_max_load,
)
from repro.core.batched import (
    BatchedProcess,
    BatchedRepeatedBallsIntoBins,
    make_ensemble_initial,
)
from repro.errors import ConfigurationError
from repro.metrics import build_trackers
from repro.parallel.ensemble import EnsembleSpec, run_ensemble

SEED_GRID = list(range(24))


# ----------------------------------------------------------------------
# R = 1 equivalence with the sequential Greedy[d] simulator
# ----------------------------------------------------------------------
class TestSequentialEquivalence:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_step_for_step(self, d):
        sequential = DChoicesProcess(24, d=d, seed=99)
        batched = BatchedDChoices(24, 1, d=d, seed=99)
        for _ in range(80):
            assert np.array_equal(sequential.step(), batched.step()[0])

    def test_distribution_consistent_on_seed_grid_d1(self):
        """ISSUE requirement: R=1, d=1 max-load quantiles over a seed grid."""
        n, rounds = 32, 96
        sequential_max = []
        batched_max = []
        for seed in SEED_GRID:
            sequential = DChoicesProcess(n, d=1, seed=seed)
            sequential_max.append(sequential.run(rounds).max_load_seen)
            batched = BatchedDChoices(n, 1, d=1, seed=seed)
            batched_max.append(int(batched.run(rounds).max_load_seen[0]))
        # the numpy paths are stream-equal, so the per-seed values (and
        # hence every quantile of the seed-grid distribution) coincide
        assert sequential_max == batched_max
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert np.quantile(sequential_max, q) == np.quantile(batched_max, q)

    def test_distribution_consistent_on_seed_grid_d2(self):
        n, rounds = 32, 64
        pairs = [
            (
                DChoicesProcess(n, d=2, seed=seed).run(rounds).max_load_seen,
                int(BatchedDChoices(n, 1, d=2, seed=seed).run(rounds).max_load_seen[0]),
            )
            for seed in SEED_GRID
        ]
        assert all(a == b for a, b in pairs)

    def test_d1_matches_plain_batched_process(self):
        """Greedy[1] degenerates to the plain process — stream-equal at any R."""
        greedy = BatchedDChoices(16, 6, d=1, seed=5)
        plain = BatchedRepeatedBallsIntoBins(16, 6, seed=5, kernel="numpy")
        for _ in range(40):
            assert np.array_equal(greedy.step(), plain.step())


# ----------------------------------------------------------------------
# Ensemble semantics at R > 1
# ----------------------------------------------------------------------
class TestBatchedDChoices:
    def test_protocol_conformance(self):
        assert isinstance(BatchedDChoices(8, 2, seed=0), BatchedProcess)

    def test_ball_conservation_heterogeneous(self):
        initial = make_ensemble_initial("random_uniform", 16, 10, n_balls=40, seed=1)
        batched = BatchedDChoices(16, 10, d=2, initial=initial, seed=2)
        result = batched.run(60)
        assert np.array_equal(result.n_balls, initial.sum(axis=1))

    def test_power_of_two_choices_reduces_window_max(self):
        n, trials, rounds = 64, 60, 128
        one = BatchedDChoices(n, trials, d=1, seed=3).run(rounds)
        two = BatchedDChoices(n, trials, d=2, seed=3).run(rounds)
        assert two.max_load_seen.mean() < one.max_load_seen.mean()

    def test_early_stop_freezes_replicas(self):
        initial = make_ensemble_initial("all_in_one", 32, 8)
        batched = BatchedDChoices(32, 8, d=2, initial=initial, seed=4)
        result = batched.run(20 * 32, stop_when_legitimate=True)
        assert result.converged_fraction == 1.0
        frozen = batched.loads.copy()
        batched.run(10)
        assert np.array_equal(batched.loads, frozen)

    def test_fortran_ordered_initial(self):
        """The placement loop's flat view needs a C-ordered state."""
        initial = make_ensemble_initial("random_uniform", 19, 6, n_balls=50, seed=8)
        runs = [
            BatchedDChoices(19, 6, d=2, initial=matrix, seed=9).run(15).final_loads
            for matrix in (initial, np.asfortranarray(initial))
        ]
        assert np.array_equal(runs[0], runs[1])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchedDChoices(8, 2, d=0)
        with pytest.raises(ConfigurationError):
            BatchedDChoices(0, 2)
        with pytest.raises(ConfigurationError):
            BatchedDChoices(8, 2, seed=0).run(-1)


# ----------------------------------------------------------------------
# Batched one-shot greedy[d]
# ----------------------------------------------------------------------
class TestBatchedOneShot:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_r1_matches_scalar_helper(self, d):
        for seed in range(6):
            scalar = one_shot_d_choices_max_load(37, d=d, seed=seed)
            vector = batched_one_shot_d_choices_max_load(37, 1, d=d, seed=seed)
            assert vector.shape == (1,)
            assert scalar == int(vector[0])

    def test_two_choices_beats_one_choice(self):
        n, trials = 256, 80
        one = batched_one_shot_d_choices_max_load(n, trials, d=1, seed=0)
        two = batched_one_shot_d_choices_max_load(n, trials, d=2, seed=0)
        assert two.mean() < one.mean()

    def test_zero_balls(self):
        out = batched_one_shot_d_choices_max_load(8, 5, d=2, n_balls=0, seed=0)
        assert np.array_equal(out, np.zeros(5))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            batched_one_shot_d_choices_max_load(0, 1)
        with pytest.raises(ConfigurationError):
            batched_one_shot_d_choices_max_load(8, 0)
        with pytest.raises(ConfigurationError):
            batched_one_shot_d_choices_max_load(8, 1, d=0)
        with pytest.raises(ConfigurationError):
            batched_one_shot_d_choices_max_load(8, 1, n_balls=-1)


# ----------------------------------------------------------------------
# Engine routing through run_ensemble
# ----------------------------------------------------------------------
class TestEnsembleRouting:
    def test_engines_share_schema_d_choices(self):
        spec = EnsembleSpec(
            n_bins=32, n_replicas=10, rounds=40, process="d_choices", d=2
        )
        result = run_ensemble(spec, seed=0, engine="batched")
        assert result.n_replicas == 10
        assert (result.n_balls == 32).all()
        assert result.max_load_seen.shape == (10,)
        assert result.kernel == "numpy"

    def test_engines_agree_distributionally_d_choices(self):
        spec = EnsembleSpec(
            n_bins=32, n_replicas=50, rounds=64, process="d_choices", d=2
        )
        batched = run_ensemble(spec, seed=1, engine="batched")
        # the R == 1 reference simulator, one replica after another
        rng = np.random.default_rng(1)
        reference = [
            DChoicesProcess(32, d=2, seed=rng).run(64).max_load_seen
            for _ in range(50)
        ]
        mean_b = batched.max_load_seen.mean()
        mean_s = float(np.mean(reference))
        assert abs(mean_b - mean_s) < 0.25 * max(mean_b, mean_s) + 0.5

    def test_engines_share_schema_faulty(self):
        spec = EnsembleSpec(
            n_bins=32,
            n_replicas=8,
            rounds=50,
            process="faulty",
            adversary="concentrate",
            fault_period=20,
        )
        result = run_ensemble(spec, seed=2, engine="batched", kernel="numpy")
        assert result.n_replicas == 8
        assert (result.n_balls == 32).all()
        # concentrate spikes the whole ball count into one bin
        assert (result.max_load_seen == 32).all()

    def test_faulty_spec_validation(self):
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=8, n_replicas=2, rounds=4, process="faulty",
                stop_when_legitimate=True,
            )
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=8, n_replicas=2, rounds=4, process="faulty",
                warmup_rounds=1,
            )
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=8, n_replicas=2, rounds=4, process="faulty",
                adversary="gremlin",
            )
        with pytest.raises(ConfigurationError):
            EnsembleSpec(n_bins=8, n_replicas=2, rounds=4, process="quantum")

    def test_deterministic_per_engine(self):
        spec = EnsembleSpec(
            n_bins=16, n_replicas=6, rounds=30, process="d_choices", d=3
        )
        a = run_ensemble(spec, seed=3, engine="batched")
        b = run_ensemble(spec, seed=3, engine="batched")
        assert np.array_equal(a.final_loads, b.final_loads)

    def test_sharded_pool_runs_d_choices(self):
        spec = EnsembleSpec(
            n_bins=16, n_replicas=9, rounds=20, process="d_choices", d=2
        )
        result = run_ensemble(spec, seed=4, engine="batched", n_workers=2)
        assert result.n_replicas == 9


# ----------------------------------------------------------------------
# Golden digests: Greedy[d] outputs pinned bit-for-bit
# ----------------------------------------------------------------------
GOLDEN_METRICS = "max_load,empty_bins,legitimacy,moments,histogram"


def _digest(arrays) -> str:
    """sha256 over labelled arrays (floats rounded, integers exact)."""
    digest = hashlib.sha256()
    for label, arr in arrays:
        arr = np.asarray(arr)
        if arr.dtype.kind == "f":
            arr = np.round(arr.astype(np.float64), 9)
        else:
            arr = arr.astype(np.int64)
        digest.update(f"{label}:{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _repeated(n, R, d, rounds, initial=None, observe_every=None, **run_kwargs):
    """Digest of a BatchedDChoices window, its final loads and metric payloads."""
    if isinstance(initial, str):
        initial = make_ensemble_initial(initial, n, R, n_balls=2 * n, seed=7)
    process = BatchedDChoices(n, R, d=d, initial=initial, seed=13)
    trackers = build_trackers(GOLDEN_METRICS) if observe_every else []
    result = process.run(
        rounds,
        observers=[tracker for _, tracker in trackers] or None,
        observe_every=observe_every or 1,
        **run_kwargs,
    )
    assert result.kernel == "numpy"
    arrays = [
        ("rounds", result.rounds),
        ("final_loads", result.final_loads),
        ("max_load_seen", result.max_load_seen),
        ("min_empty_bins_seen", result.min_empty_bins_seen),
        ("first_legitimate_round", result.first_legitimate_round),
        ("rng", process.rng.integers(0, 2**62, size=4)),
    ]
    for name, tracker in trackers:
        payload = tracker.payload()
        arrays.append((f"{name}.rounds", payload.rounds))
        for part in ("series", "summaries", "arrays"):
            block = getattr(payload, part)
            arrays.extend(
                (f"{name}.{part}.{key}", block[key]) for key in sorted(block)
            )
    return _digest(arrays)


def _one_shot(n, R, d, n_balls=None):
    return _digest(
        [("max_loads", batched_one_shot_d_choices_max_load(
            n, R, d=d, n_balls=n_balls, seed=21
        ))]
    )


#: name -> zero-argument callable returning that case's digest.  The
#: sizes are deliberately not powers of two and every case has R > 1.
GOLDEN_CASES = {
    "balanced-d2": lambda: _repeated(37, 9, 2, 40, observe_every=3),
    "balanced-d3": lambda: _repeated(37, 9, 3, 40, observe_every=3),
    "balanced-d4": lambda: _repeated(29, 5, 4, 25),
    "heterogeneous-d2": lambda: _repeated(
        45, 7, 2, 30, initial="random_uniform", observe_every=4
    ),
    "all-in-one-d3": lambda: _repeated(
        41, 6, 3, 35, initial="all_in_one", observe_every=5
    ),
    # replicas legitimate at different rounds freeze while the rest run on
    "stop-frozen-d2": lambda: _repeated(
        33, 11, 2, 400, initial="all_in_one", stop_when_legitimate=True
    ),
    "one-shot-d2": lambda: _one_shot(53, 12, 2),
    "one-shot-d3-m": lambda: _one_shot(31, 8, 3, n_balls=70),
}

#: Digests of the outputs above.  A change to Greedy[d]'s generator
#: consumption, tie rule or placement order changes them; a rewrite of
#: the placement loop must not.
GOLDEN_DIGESTS = {
    "all-in-one-d3": "9a2806de2b18b40953be64d457cc377d39eb43d94b3927fa99ccacd5f9b3e6d3",
    "balanced-d2": "0a2ff3d5241aa21f3e38f5bc163d760542032090cdb09ade144174fb127e0fc7",
    "balanced-d3": "0fe7bf7b9c4c466450d19938cd5f09eb520ba023c57124338fb186658c8aa968",
    "balanced-d4": "687794d17e620a6b794d079eddcc3421521a9fb56fba08c6f542dac18edad3de",
    "heterogeneous-d2": "b95960df48d2cc9c955b1725aff822342d95a3e6b45a1bec9f0541113551bb6f",
    "one-shot-d2": "11a0f6db5889c7619eaf688a4b9d2715172d84e6eb7d6167077a272af11ed5d2",
    "one-shot-d3-m": "2e87e2a783359f9dfc8720933ba2bc3cadd6086f8c9b74d34d6fffc23650c904",
    "stop-frozen-d2": "a6fe94a75bfc133fb593e009b134c9f90b354e4caea787ad052880a72d62e5c5",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_digests(case):
    assert GOLDEN_CASES[case]() == GOLDEN_DIGESTS[case]


@pytest.mark.parametrize("cap", (1, 40))
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_digests_with_tiny_draw_chunks(case, cap, monkeypatch):
    """Splitting a round's draw at any step boundary changes nothing."""
    monkeypatch.setattr(d_choices, "_DRAW_PLACEMENTS", cap)
    assert GOLDEN_CASES[case]() == GOLDEN_DIGESTS[case]
