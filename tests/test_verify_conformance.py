"""Conformance-harness tests: gates pass on real engines, fire on broken ones.

The centerpiece is the injected-bug test: a deliberately biased re-throw
kernel (destinations drawn from ``[0, n-1)`` — the classic off-by-one in
the modulus) is monkeypatched into the batched engine, and the harness
must (a) fail its gates, (b) write a replayable counterexample artifact,
and (c) pass again when the artifact is replayed against the fixed engine.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.batched import BatchedRepeatedBallsIntoBins
from repro.errors import ConfigurationError
from repro.verify import (
    CounterexampleArtifact,
    ConformanceCase,
    bonferroni_alpha,
    build_cases,
    case_by_name,
    load_artifact,
    pooled_chi_square,
    replay_artifact,
    run_conformance,
    total_variation,
    write_artifact,
)
from repro.verify.cases import DEFAULT_CHECKS


class TestStats:
    def test_pooled_chi_square_accepts_the_true_distribution(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        counts = np.bincount(rng.choice(4, size=4000, p=probs), minlength=4)
        gof = pooled_chi_square(counts, probs)
        assert gof.passed(1e-3)
        assert gof.impossible_mass == 0.0

    def test_pooled_chi_square_rejects_a_wrong_distribution(self):
        rng = np.random.default_rng(1)
        counts = np.bincount(rng.choice(4, size=4000, p=[0.4, 0.4, 0.1, 0.1]), minlength=4)
        gof = pooled_chi_square(counts, np.array([0.25, 0.25, 0.25, 0.25]))
        assert not gof.passed(1e-3)

    def test_impossible_mass_is_an_unconditional_fail(self):
        # observed mass on a zero-probability cell fails at ANY alpha
        gof = pooled_chi_square(np.array([10, 10, 5]), np.array([0.5, 0.5, 0.0]))
        assert gof.impossible_mass > 0
        assert not gof.passed(1e-300)

    def test_small_cells_are_pooled(self):
        # at 300 samples each 1% cell expects 3 < 5, so the tail is pooled
        probs = np.array([0.97, 0.01, 0.01, 0.01])
        counts = np.array([291, 3, 3, 3])
        gof = pooled_chi_square(counts, probs, min_expected=5.0)
        assert gof.n_cells < 4
        assert gof.passed(1e-3)

    def test_bonferroni(self):
        assert bonferroni_alpha(1e-3, 100) == pytest.approx(1e-5)

    def test_total_variation(self):
        assert total_variation([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)


class TestCatalog:
    def test_levels_have_unique_names_and_smoke_is_a_subset_intent(self):
        smoke = build_cases("smoke")
        full = build_cases("full")
        assert len(smoke) < len(full)
        for cases in (smoke, full):
            names = [c.name for c in cases]
            assert len(names) == len(set(names))

    def test_every_engine_coordinate_is_covered_in_smoke(self):
        labels = {c.engine_label for c in build_cases("smoke")}
        assert "numpy" in labels
        assert "numpy/w2" in labels
        assert any(l.startswith("native") and l.endswith("fused") for l in labels)
        assert any(l.startswith("native") and l.endswith("segmented") for l in labels)
        assert "token" in labels
        assert "absorbing" in labels

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigurationError):
            build_cases("bogus")
        with pytest.raises(ConfigurationError):
            case_by_name("rbb-batched-numpy", level="bogus")

    def test_case_by_name_round_trips(self):
        case = case_by_name("rbb-batched-numpy", level="smoke")
        assert case.kernel == "numpy"
        with pytest.raises(ConfigurationError):
            case_by_name("no-such-case", level="smoke")


def _tiny_case(R: int = 300, horizons=(2,), name: str = "tiny-rbb") -> ConformanceCase:
    return ConformanceCase(
        name=name,
        spec_config={
            "n_bins": 3,
            "n_replicas": R,
            "rounds": max(horizons),
            "start": "all_in_one",
        },
        kernel="numpy",
        horizons=horizons,
        checks=DEFAULT_CHECKS,
    )


class TestConformanceSmoke:
    def test_single_case_passes_against_exact_chain(self):
        report = run_conformance("smoke", seed=7, cases=[_tiny_case()])
        assert report.passed
        assert report.n_checks == len(DEFAULT_CHECKS)

    def test_only_filter_keeps_full_run_thresholds(self):
        full = run_conformance("smoke", seed=3, only="token-fifo")
        unfiltered_alpha = run_conformance("smoke", seed=3, only="no-match").alpha_per_test
        assert full.alpha_per_test == unfiltered_alpha
        assert all(o.case == "token-fifo" for o in full.outcomes)
        assert full.passed

    def test_absorbing_case_gates_survival_curve(self):
        report = run_conformance("smoke", seed=5, only="absorbing-bin-load")
        assert report.passed
        assert [o.check for o in report.outcomes] == ["absorption_time"]


def _broken_advance(self):
    """The injected bug: destinations drawn from [0, n-1) — bin n-1 starves.

    Note ``(dest + 1) % n`` would still be uniform and hence *undetectable*;
    the modulus-shrink is the genuinely biased off-by-one.
    """
    loads = self._loads
    nonempty = loads > 0
    counts = np.count_nonzero(nonempty, axis=1)
    if counts.any():
        loads -= nonempty
        total = int(counts.sum())
        destinations = self._rng.integers(0, self._n_bins - 1, size=total)
        rows = np.repeat(np.arange(self._n_replicas), counts)
        flat = rows * self._n_bins + destinations
        loads += np.bincount(
            flat, minlength=self._n_replicas * self._n_bins
        ).reshape(self._n_replicas, self._n_bins)


class TestInjectedBug:
    def test_broken_kernel_is_caught_with_replayable_artifact(self, tmp_path, monkeypatch):
        case = _tiny_case(R=400, horizons=(2,), name="rbb-batched-numpy")
        artifacts = tmp_path / "artifacts"

        monkeypatch.setattr(BatchedRepeatedBallsIntoBins, "_advance", _broken_advance)
        broken = run_conformance(
            "smoke", seed=11, cases=[case], artifacts_dir=str(artifacts)
        )
        assert not broken.passed
        # the state gate must fire (the bias shows in the full distribution)
        state_fail = [o for o in broken.failures if o.check == "state"]
        assert state_fail and state_fail[0].artifact_path is not None

        # artifact is self-contained: seed + spec + engine coords + evidence
        artifact = load_artifact(state_fail[0].artifact_path)
        assert artifact.kind == "conformance"
        assert artifact.case == "rbb-batched-numpy"
        assert artifact.violation["p_value"] < broken.alpha_per_test

        # replay against the FIXED engine (monkeypatch undone): gate passes,
        # proving the artifact pins the exact seed/case and the bug is gone
        monkeypatch.undo()
        replay = replay_artifact(state_fail[0].artifact_path)
        assert replay.passed

    def test_broken_kernel_replay_still_fails_while_bug_present(self, tmp_path, monkeypatch):
        case = _tiny_case(R=400, horizons=(2,), name="rbb-batched-numpy")
        artifacts = tmp_path / "artifacts"
        monkeypatch.setattr(BatchedRepeatedBallsIntoBins, "_advance", _broken_advance)
        broken = run_conformance(
            "smoke", seed=13, cases=[case], artifacts_dir=str(artifacts)
        )
        path = broken.failures[0].artifact_path
        replay = replay_artifact(path)
        assert not replay.passed


class TestArtifactRoundTrip:
    def test_json_round_trip_preserves_seed_streams(self, tmp_path):
        artifact = CounterexampleArtifact(
            kind="conformance",
            case="rbb-batched-numpy",
            check="state@t=2",
            seed_entropy=12345,
            seed_spawn_key=[4],
            spec={"n_bins": 3},
            engine={"kernel": "numpy"},
            violation={"p_value": 1e-9, "alpha": 1e-5},
        )
        path = write_artifact(artifact, str(tmp_path))
        loaded = load_artifact(path)
        assert loaded.seed_entropy == 12345
        assert loaded.seed_spawn_key == [4]
        seq = loaded.seed_sequence()
        assert seq.entropy == 12345 and seq.spawn_key == (4,)
        # the JSON on disk is plain and versioned
        data = json.loads(open(path).read())
        assert data["format_version"] == 1

    def test_replay_refuses_a_sequential_engine_artifact(self, tmp_path, capsys):
        from repro.cli import main

        artifact = CounterexampleArtifact(
            kind="conformance",
            case="rbb-sequential",
            check="state@t=1",
            seed_entropy=1,
            spec={"n_bins": 3},
            engine={"engine": "sequential", "kernel": "numpy", "runner": "ensemble"},
        )
        path = write_artifact(artifact, str(tmp_path))
        with pytest.raises(ConfigurationError, match="RepeatedBallsIntoBins"):
            replay_artifact(path)
        assert main(["verify", "--replay", path]) == 2
        assert "ConstrainedParallelWalks" in capsys.readouterr().err

    def test_unknown_format_version_rejected(self, tmp_path):
        artifact = CounterexampleArtifact(
            kind="conformance",
            case="x",
            check="y",
            seed_entropy=1,
            spec={},
            engine={},
        )
        path = write_artifact(artifact, str(tmp_path))
        data = json.loads(open(path).read())
        data["format_version"] = 99
        open(path, "w").write(json.dumps(data))
        with pytest.raises(ConfigurationError):
            load_artifact(path)


class TestShardedSeeding:
    """Satellite: verifier streams match engine streams across shard counts.

    The engine derives one stream per *shard*, so different worker counts
    give different (distributionally equal) draws — which is exactly why
    the catalog distribution-tests the sharded coordinate instead of
    bit-comparing it.
    """

    def test_trial_seed_matches_spawn_and_survives_reconstruction(self):
        from repro.parallel.seeding import trial_seed

        root = np.random.SeedSequence(entropy=987)
        # trial_seed(s, i) == s.spawn(n)[i]: the verifier's per-case and
        # per-horizon derivations address the same streams the engines use
        spawned = np.random.SeedSequence(entropy=987).spawn(5)
        for i in range(5):
            derived = trial_seed(root, i)
            assert derived.entropy == spawned[i].entropy
            assert derived.spawn_key == spawned[i].spawn_key
        # and reconstruction from (entropy, spawn_key) — what artifacts
        # store — yields the identical generator stream
        case_seed = trial_seed(root, 3)
        run_seed = trial_seed(case_seed, 1)
        rebuilt = np.random.SeedSequence(
            entropy=run_seed.entropy, spawn_key=tuple(run_seed.spawn_key)
        )
        a = np.random.default_rng(run_seed).integers(0, 1 << 30, size=8)
        b = np.random.default_rng(rebuilt).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_sharded_case_gates_pass(self):
        case = ConformanceCase(
            name="tiny-sharded",
            spec_config={
                "n_bins": 3,
                "n_replicas": 300,
                "rounds": 2,
                "start": "all_in_one",
            },
            kernel="numpy",
            n_workers=2,
            horizons=(2,),
        )
        report = run_conformance("smoke", seed=17, cases=[case])
        assert report.passed
