"""Threaded native kernels and fused in-kernel observation.

The contract under test: the thread count is a pure execution knob — for
any ``n_threads`` the native kernels produce **bit-identical**
trajectories and observation series (replicas own disjoint state and RNG
streams, so the parallelization axis cannot reorder any arithmetic) — and
the fused in-kernel observation path is indistinguishable from the
segmented Python-side observer loop on every registered metric.

Also covered here: the flag-aware binary cache key, thread-count
resolution precedence, the exact-moments tracker, and the sweep
scheduler's oversubscription guard.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.batched import (
    BatchedLoadProcess,
    BatchedRepeatedBallsIntoBins,
    make_ensemble_initial,
)
from repro.core.native import (
    available_cpu_count,
    native_available,
    resolve_n_threads,
)
from repro.errors import ConfigurationError
from repro.graphs.batched import BatchedConstrainedWalks
from repro.graphs.generators import resolve_topology
from repro.metrics import (
    METRIC_NAMES,
    BatchedLoadHistogramTracker,
    BatchedLoadMomentsTracker,
    FusedSegmentStats,
    build_trackers,
    supports_fused,
)
from repro.parallel.ensemble import EnsembleSpec, run_ensemble
from repro.sweeps import SweepSpec, resume_sweep, run_sweep

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)
needs_native_walks = pytest.mark.skipif(
    not native_available("walks"),
    reason="native walk kernel unavailable (no C compiler)",
)

THREAD_COUNTS = (1, 2, max(2, available_cpu_count()))

#: Metrics whose trackers ingest in-kernel segment statistics; the rest
#: (trace, bin_emptying) need full load matrices, so their presence in an
#: observer list sends the whole run down the segmented fallback path.
FUSED_METRICS = "max_load,empty_bins,legitimacy,moments,histogram"


def _rbb(n_threads, **kwargs):
    defaults = dict(seed=42, kernel="native", n_threads=n_threads)
    defaults.update(kwargs)
    return BatchedRepeatedBallsIntoBins(96, 33, **defaults)


def _walks(n_threads, **kwargs):
    defaults = dict(seed=42, kernel="native", n_threads=n_threads)
    defaults.update(kwargs)
    return BatchedConstrainedWalks(resolve_topology("cycle:64"), 33, **defaults)


def _payloads(spec_metrics, process, run_kwargs):
    """(final loads, metric payload map) for one run."""
    trackers = build_trackers(spec_metrics)
    observers = [tracker for _, tracker in trackers]
    result = process.run(observers=observers, **run_kwargs)
    return result.final_loads, {
        name: tracker.payload() for name, tracker in trackers
    }


def _assert_payloads_equal(a, b, context=""):
    """Observed rounds, series, summaries and arrays all bit-identical."""
    assert set(a) == set(b)
    for name in a:
        pa, pb = a[name], b[name]
        assert np.array_equal(pa.rounds, pb.rounds), (context, name, "rounds")
        for part in ("series", "summaries", "arrays"):
            da, db = getattr(pa, part), getattr(pb, part)
            assert set(da) == set(db), (context, name, part)
            for key in da:
                assert np.array_equal(
                    np.asarray(da[key]), np.asarray(db[key])
                ), (context, name, part, key)


@pytest.fixture
def fused_calls(monkeypatch):
    """Count the fused kernel calls made while a test runs."""
    calls = []
    real = BatchedLoadProcess._run_native_fused

    def spy(self, *args, **kwargs):
        calls.append(type(self).__name__)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(BatchedLoadProcess, "_run_native_fused", spy)
    return calls


def _fused_and_segmented(monkeypatch, run):
    """``run()`` once fused and once with ``REPRO_NATIVE_FUSED=0``."""
    monkeypatch.delenv("REPRO_NATIVE_FUSED", raising=False)
    fused = run()
    monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
    segmented = run()
    monkeypatch.delenv("REPRO_NATIVE_FUSED")
    return fused, segmented


def _ensemble_payloads(spec_kwargs):
    spec = EnsembleSpec(**spec_kwargs)
    result = run_ensemble(spec, seed=11, kernel="native", n_threads=2)
    return result.final_loads, result.metrics


# ---------------------------------------------------------------------
# Bit-identical trajectories for every thread count
# ---------------------------------------------------------------------
@needs_native
class TestThreadInvarianceRbb:
    @pytest.mark.parametrize("n_threads", THREAD_COUNTS)
    def test_unobserved_trajectories_identical(self, n_threads):
        base = _rbb(1).run(300)
        run = _rbb(n_threads).run(300)
        assert run.kernel == "native"
        assert np.array_equal(run.final_loads, base.final_loads)
        assert np.array_equal(run.max_load_seen, base.max_load_seen)
        assert np.array_equal(
            run.min_empty_bins_seen, base.min_empty_bins_seen
        )
        assert np.array_equal(
            run.first_legitimate_round, base.first_legitimate_round
        )

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS[1:])
    def test_observed_series_identical(self, n_threads):
        metrics = ",".join(METRIC_NAMES)
        kwargs = dict(rounds=200, observe_every=16)
        base_loads, base_payloads = _payloads(metrics, _rbb(1), kwargs)
        loads, payloads = _payloads(metrics, _rbb(n_threads), kwargs)
        assert np.array_equal(loads, base_loads)
        _assert_payloads_equal(base_payloads, payloads, f"threads={n_threads}")

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS[1:])
    def test_stop_when_legitimate_identical(self, n_threads):
        base = _rbb(1).run(3000, stop_when_legitimate=True)
        run = _rbb(n_threads).run(3000, stop_when_legitimate=True)
        assert np.array_equal(run.rounds, base.rounds)
        assert np.array_equal(run.final_loads, base.final_loads)
        assert np.array_equal(
            run.first_legitimate_round, base.first_legitimate_round
        )

    def test_more_threads_than_replicas(self):
        base = _rbb(1).run(100)
        run = _rbb(1000).run(100)  # clamped to R inside the launch
        assert np.array_equal(run.final_loads, base.final_loads)


@needs_native_walks
class TestThreadInvarianceWalks:
    @pytest.mark.parametrize("n_threads", THREAD_COUNTS[1:])
    def test_unobserved_trajectories_identical(self, n_threads):
        base = _walks(1).run(200)
        run = _walks(n_threads).run(200)
        assert run.kernel == "native"
        assert np.array_equal(run.final_loads, base.final_loads)
        assert np.array_equal(run.max_load_seen, base.max_load_seen)

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS[1:])
    def test_observed_series_identical(self, n_threads):
        metrics = ",".join(METRIC_NAMES)
        kwargs = dict(rounds=150, observe_every=7)
        base_loads, base_payloads = _payloads(metrics, _walks(1), kwargs)
        loads, payloads = _payloads(metrics, _walks(n_threads), kwargs)
        assert np.array_equal(loads, base_loads)
        _assert_payloads_equal(base_payloads, payloads, f"threads={n_threads}")

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS[1:])
    def test_stop_when_legitimate_identical(self, n_threads):
        base = _walks(1).run(2000, stop_when_legitimate=True)
        run = _walks(n_threads).run(2000, stop_when_legitimate=True)
        assert np.array_equal(run.rounds, base.rounds)
        assert np.array_equal(run.final_loads, base.final_loads)


# ---------------------------------------------------------------------
# Fused in-kernel observation == segmented Python observation
# ---------------------------------------------------------------------
@needs_native
class TestFusedObservation:
    @pytest.mark.parametrize("observe_every", [1, 7, 16, 1000])
    def test_rbb_fused_matches_segmented(self, observe_every, monkeypatch):
        kwargs = dict(rounds=120, observe_every=observe_every)
        fused_loads, fused = _payloads(FUSED_METRICS, _rbb(2), kwargs)
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        seg_loads, segmented = _payloads(FUSED_METRICS, _rbb(2), kwargs)
        assert np.array_equal(fused_loads, seg_loads)
        _assert_payloads_equal(fused, segmented, f"stride={observe_every}")

    @needs_native_walks
    def test_walks_fused_matches_segmented(self, monkeypatch):
        kwargs = dict(rounds=90, observe_every=5)
        fused_loads, fused = _payloads(FUSED_METRICS, _walks(2), kwargs)
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        seg_loads, segmented = _payloads(FUSED_METRICS, _walks(2), kwargs)
        assert np.array_equal(fused_loads, seg_loads)
        _assert_payloads_equal(fused, segmented, "walks")

    def test_mixed_observer_list_falls_back_identically(self, monkeypatch):
        """A non-fusable tracker in the list disables fusion, not accuracy."""
        metrics = ",".join(METRIC_NAMES)  # includes trace/histogram
        kwargs = dict(rounds=80, observe_every=8)
        mixed_loads, mixed = _payloads(metrics, _rbb(2), kwargs)
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        seg_loads, segmented = _payloads(metrics, _rbb(2), kwargs)
        assert np.array_equal(mixed_loads, seg_loads)
        _assert_payloads_equal(mixed, segmented, "mixed")

    def test_fused_matches_numpy_kernel(self):
        """The whole fused pipeline agrees with the numpy reference engine."""
        metrics = "max_load,empty_bins,legitimacy,moments"
        kwargs = dict(rounds=80, observe_every=4)

        def run_with(kernel):
            trackers = build_trackers(metrics)
            proc = BatchedRepeatedBallsIntoBins(64, 9, seed=5, kernel=kernel)
            proc.run(observers=[t for _, t in trackers], **kwargs)
            return {name: t.payload() for name, t in trackers}

        # numpy and native draw different streams, so compare *shapes and
        # schema* across kernels and exact values within the native kernel
        native = run_with("native")
        reference = run_with("numpy")
        assert set(native) == set(reference)
        for name in native:
            assert set(native[name].summaries) == set(
                reference[name].summaries
            )
            for key in native[name].summaries:
                assert (
                    np.asarray(native[name].summaries[key]).shape
                    == np.asarray(reference[name].summaries[key]).shape
                )

    def test_fusable_tracker_set(self):
        """Which registered trackers ride the fused fast path.

        The trackers the kernels can feed (scalar statistics, moments and
        the load histogram) must stay fusable: losing one silently
        forfeits the fused speedup for every run that requests it.  The
        trace and bin-emptying trackers need the full load matrix, so
        they must *not* claim fusion support.
        """
        fusable = set(FUSED_METRICS.split(","))
        for name, tracker in build_trackers(",".join(METRIC_NAMES)):
            assert supports_fused(tracker) == (name in fusable), name


@needs_native
class TestFusedHistogram:
    """The load histogram accumulated inside the kernels equals the
    segmented loop's, with the whole observed window one fused call."""

    METRICS = "histogram,moments"

    @pytest.mark.parametrize("observe_every", [1, 7, 16, 1000])
    def test_rbb(self, observe_every, monkeypatch, fused_calls):
        kwargs = dict(rounds=120, observe_every=observe_every)
        (fused_loads, fused), (seg_loads, segmented) = _fused_and_segmented(
            monkeypatch, lambda: _payloads(self.METRICS, _rbb(2), kwargs)
        )
        assert fused_calls == ["BatchedRepeatedBallsIntoBins"]
        assert np.array_equal(fused_loads, seg_loads)
        _assert_payloads_equal(fused, segmented, f"stride={observe_every}")
        counts = fused["histogram"].arrays["counts"]
        n_obs = -(-120 // observe_every)
        assert (counts.sum(axis=1) == n_obs * 96).all()

    @needs_native_walks
    def test_walks_on_a_torus(self, monkeypatch, fused_calls):
        def run():
            process = BatchedConstrainedWalks(
                resolve_topology("torus:8x8"), 17, seed=3, kernel="native",
                n_threads=2,
            )
            return _payloads(self.METRICS, process, dict(rounds=90, observe_every=5))

        (fused_loads, fused), (seg_loads, segmented) = _fused_and_segmented(
            monkeypatch, run
        )
        assert fused_calls == ["BatchedConstrainedWalks"]
        assert np.array_equal(fused_loads, seg_loads)
        _assert_payloads_equal(fused, segmented, "walks")

    def test_faulty_across_adversary_segments(self, monkeypatch, fused_calls):
        spec = dict(
            n_bins=48, n_replicas=12, rounds=100, process="faulty",
            adversary="concentrate", fault_period=30, observe_every=7,
            metrics=self.METRICS,
        )
        (fused_loads, fused), (seg_loads, segmented) = _fused_and_segmented(
            monkeypatch, lambda: _ensemble_payloads(spec)
        )
        assert len(fused_calls) > 1  # one fused call per adversary segment
        assert np.array_equal(fused_loads, seg_loads)
        _assert_payloads_equal(fused, segmented, "faulty")

    def test_burst_recovery_scenario(self, monkeypatch, fused_calls):
        spec = dict(
            n_bins=40, n_replicas=10, rounds=60, observe_every=4,
            scenario="burst_recovery:count=32,at=9", metrics=self.METRICS,
        )
        (fused_loads, fused), (seg_loads, segmented) = _fused_and_segmented(
            monkeypatch, lambda: _ensemble_payloads(spec)
        )
        assert fused_calls
        assert np.array_equal(fused_loads, seg_loads)
        _assert_payloads_equal(fused, segmented, "burst_recovery")

    def test_forced_overflow(self, monkeypatch, fused_calls):
        def run():
            tracker = BatchedLoadHistogramTracker(max_tracked_load=2)
            process = BatchedRepeatedBallsIntoBins(
                32, 9, initial=make_ensemble_initial("all_in_one", 32, 9),
                seed=5, kernel="native", n_threads=2,
            )
            process.run(40, observers=[tracker], observe_every=3)
            return tracker.payload()

        fused, segmented = _fused_and_segmented(monkeypatch, run)
        assert fused_calls == ["BatchedRepeatedBallsIntoBins"]
        assert (fused.summaries["overflow"] > 0).all()
        _assert_payloads_equal(
            {"histogram": fused}, {"histogram": segmented}, "overflow"
        )

    def test_two_caps_fall_back_to_segmented(self, monkeypatch, fused_calls):
        def run():
            trackers = [
                BatchedLoadHistogramTracker(max_tracked_load=3),
                BatchedLoadHistogramTracker(max_tracked_load=8),
                BatchedLoadMomentsTracker(),
            ]
            process = _rbb(2, initial=make_ensemble_initial("all_in_one", 96, 33))
            process.run(50, observers=trackers, observe_every=6)
            return {str(i): t.payload() for i, t in enumerate(trackers)}

        fused, segmented = _fused_and_segmented(monkeypatch, run)
        assert fused_calls == []
        _assert_payloads_equal(fused, segmented, "two caps")


# ---------------------------------------------------------------------
# Exact integer moments tracker
# ---------------------------------------------------------------------
class TestMomentsTracker:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(0)
        tracker = BatchedLoadMomentsTracker()
        observed = []
        for t in range(1, 6):
            loads = rng.integers(0, 10, size=(4, 32))
            tracker.observe(t, loads)
            observed.append(loads)
        stack = np.stack(observed)  # (T, R, n)
        assert np.array_equal(tracker.mean, stack.mean(axis=(0, 2)))
        assert np.allclose(tracker.variance, stack.var(axis=(0, 2)))
        payload = tracker.payload()
        assert np.array_equal(payload.summaries["mean_load"], tracker.mean)
        assert (payload.summaries["observations"] == 5 * 32).all()

    def test_fused_ingest_requires_moment_blocks(self):
        tracker = BatchedLoadMomentsTracker()
        stats = FusedSegmentStats(
            rounds=np.array([1], dtype=np.int64),
            max_load=np.ones((1, 2), dtype=np.int64),
            empty_bins=np.zeros((1, 2), dtype=np.int64),
            n_bins=8,
        )
        with pytest.raises(ConfigurationError):
            tracker.ingest_fused(stats)


def test_fused_ingest_requires_histogram_blocks():
    stats = FusedSegmentStats(
        rounds=np.array([1], dtype=np.int64),
        max_load=np.ones((1, 2), dtype=np.int64),
        empty_bins=np.zeros((1, 2), dtype=np.int64),
        n_bins=8,
    )
    with pytest.raises(ConfigurationError):
        BatchedLoadHistogramTracker(max_tracked_load=4).ingest_fused(stats)
    blocks = dict(
        hist_counts=np.zeros((2, 5), dtype=np.int64),
        hist_overflow=np.zeros(2, dtype=np.int64),
    )
    with_blocks = FusedSegmentStats(
        rounds=stats.rounds, max_load=stats.max_load,
        empty_bins=stats.empty_bins, n_bins=8, **blocks,
    )
    with pytest.raises(ConfigurationError):  # a cap the blocks do not have
        BatchedLoadHistogramTracker(max_tracked_load=7).ingest_fused(with_blocks)
    BatchedLoadHistogramTracker(max_tracked_load=4).ingest_fused(with_blocks)
    with pytest.raises(ConfigurationError):  # counts without overflow
        FusedSegmentStats(
            rounds=stats.rounds, max_load=stats.max_load,
            empty_bins=stats.empty_bins, n_bins=8,
            hist_counts=blocks["hist_counts"],
        )
    with pytest.raises(ConfigurationError):  # wrong R
        FusedSegmentStats(
            rounds=stats.rounds, max_load=stats.max_load,
            empty_bins=stats.empty_bins, n_bins=8,
            hist_counts=np.zeros((3, 5), dtype=np.int64),
            hist_overflow=np.zeros(3, dtype=np.int64),
        )


# ---------------------------------------------------------------------
# Legitimacy thresholds beyond the int32 range
# ---------------------------------------------------------------------
@needs_native
class TestLegitimacyBound:
    """A threshold at or above 2**31 makes every int32 state legitimate.

    The kernel compares int32 loads against an integer bound; converting
    such a threshold to int32 directly is undefined behaviour in C (and
    on x86 yields INT32_MIN, so no round ever counted as legitimate).
    """

    BETA = 1e9  # beta * log(64) > 2**31

    @staticmethod
    def _process(family, kernel):
        initial = make_ensemble_initial("all_in_one", 64, 4)
        if family == "rbb":
            return BatchedRepeatedBallsIntoBins(
                64, 4, initial=initial, seed=9, kernel=kernel
            )
        return BatchedConstrainedWalks(
            resolve_topology("torus:8x8"), 4, initial=initial, seed=9,
            kernel=kernel,
        )

    @pytest.mark.parametrize("stop", [False, True])
    @pytest.mark.parametrize("family", ["rbb", "walks"])
    def test_native_matches_numpy(self, family, stop):
        results = {
            kernel: self._process(family, kernel).run(
                5, beta=self.BETA, stop_when_legitimate=stop
            )
            for kernel in ("numpy", "native")
        }
        native, numpy_ = results["native"], results["numpy"]
        assert native.kernel == "native"
        assert np.array_equal(
            native.first_legitimate_round, numpy_.first_legitimate_round
        )
        assert np.array_equal(native.rounds, numpy_.rounds)
        expected = 0 if stop else 1
        assert (native.first_legitimate_round == expected).all()


# ---------------------------------------------------------------------
# Golden digests: native trajectories pinned bit-for-bit
# ---------------------------------------------------------------------
def _golden_digest(result, payloads) -> str:
    """sha256 over a run's window outputs and its metric payloads.

    Integer arrays are hashed exactly.  Float arrays are derived in
    Python from the kernel's integer outputs, so they are rounded before
    hashing to keep the digest independent of numpy's summation order.
    """
    digest = hashlib.sha256()

    def feed(label, arr):
        arr = np.asarray(arr)
        if arr.dtype.kind == "f":
            arr = np.round(arr.astype(np.float64), 9)
        else:
            arr = arr.astype(np.int64)
        digest.update(f"{label}:{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())

    feed("final_loads", result.final_loads)
    feed("max_load_seen", result.max_load_seen)
    feed("min_empty_bins_seen", result.min_empty_bins_seen)
    feed("first_legitimate_round", result.first_legitimate_round)
    for name in sorted(payloads):
        payload = payloads[name]
        feed(f"{name}.rounds", payload.rounds)
        for part in ("series", "summaries", "arrays"):
            block = getattr(payload, part)
            for key in sorted(block):
                feed(f"{name}.{part}.{key}", block[key])
    return digest.hexdigest()


def _golden_run(process, trackers=(), **run_kwargs):
    observers = [tracker for _, tracker in trackers]
    result = process.run(observers=observers or None, **run_kwargs)
    assert result.kernel == "native"
    return _golden_digest(
        result, {name: tracker.payload() for name, tracker in trackers}
    )


def _golden_walks(topology, n_threads, **kwargs):
    return BatchedConstrainedWalks(
        resolve_topology(topology), 17, seed=3, kernel="native",
        n_threads=n_threads, **kwargs,
    )


def _golden_cases():
    """name -> run(n_threads) returning that run's digest."""
    all_in_one = make_ensemble_initial("all_in_one", 96, 33)
    torus_all_in_one = make_ensemble_initial("all_in_one", 64, 17)
    return {
        # fused observation over the clique rule
        "rbb": lambda t: _golden_run(
            _rbb(t, initial=all_in_one), build_trackers(FUSED_METRICS),
            rounds=120, observe_every=8,
        ),
        # segmented observation with frozen replicas
        "rbb-stop-observed": lambda t: _golden_run(
            _rbb(t, initial=all_in_one), build_trackers(FUSED_METRICS),
            rounds=600, observe_every=16, stop_when_legitimate=True,
        ),
        "rbb-stop": lambda t: _golden_run(
            _rbb(t, initial=all_in_one), rounds=3000, stop_when_legitimate=True,
        ),
        # every node non-empty: the dense compaction path
        "walks-torus-dense": lambda t: _golden_run(
            _golden_walks("torus:8x8", t), build_trackers(FUSED_METRICS),
            rounds=90, observe_every=5,
        ),
        # tokens pile up on the hub: the sparse guarded path
        "walks-star-sparse": lambda t: _golden_run(
            _golden_walks("star:64", t), build_trackers(FUSED_METRICS),
            rounds=90, observe_every=5,
        ),
        "walks-unconstrained": lambda t: _golden_run(
            _golden_walks("cycle:64", t, constrained=False),
            build_trackers(FUSED_METRICS), rounds=60, observe_every=4,
        ),
        "walks-stop": lambda t: _golden_run(
            _golden_walks("torus:8x8", t, initial=torus_all_in_one),
            rounds=2000, stop_when_legitimate=True,
        ),
        "rbb-overflow": lambda t: _golden_run(
            _rbb(t, initial=all_in_one),
            [("histogram", BatchedLoadHistogramTracker(max_tracked_load=2))],
            rounds=40, observe_every=3,
        ),
        "walks-overflow": lambda t: _golden_run(
            _golden_walks("torus:8x8", t, initial=torus_all_in_one),
            [("histogram", BatchedLoadHistogramTracker(max_tracked_load=2))],
            rounds=40, observe_every=3,
        ),
    }


#: Digests of the native kernels' outputs on the cases above.  A change
#: to any kernel's random-stream consumption, destination rule, window
#: bookkeeping or fused reductions changes them; a pure refactor must not.
GOLDEN_DIGESTS = {
    "rbb": "4893d40186bbbfb1c9afc7d1d48efa8618b27fb07740a349258910ff723f2bb9",
    "rbb-overflow": "ce86f66dfd1af2c31c07f1088a58025a9936372e4aaa12c3c3966dd9144ebcec",
    "rbb-stop": "dfa6515a7c27c2776b38b7d63125f08a300f223f1ac262c1b61afb8a82d9610b",
    "rbb-stop-observed": "4e19223bf212c1f4db7173406644d2827057f71644d633e6aa5492fdae71b92d",
    "walks-overflow": "b596ff64cc5ce0da352750ac69dd4a93df9602ce86bd660f77b4f00a95f8346c",
    "walks-star-sparse": "6e0865651e67511ed3b47aa5323dc34eba0e773f8dd18b3e3f3b1e7099a64dc1",
    "walks-stop": "2c97f54d257b5288fd113c0361c84ac46a63c61a4aee5e9bee81fbacc2eca8ce",
    "walks-torus-dense": "bdb65bdf81e68b6698c3088ac89dddd3bee1e0bf8278eb123854a4f82a3fe515",
    "walks-unconstrained": "600e9d643a9f05031ea4e366b74a73212615d4b27d2c4890d6613fb642ef0433",
}


@needs_native
@pytest.mark.parametrize("n_threads", (1, 2))
@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_golden_digests(case, n_threads, monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE_FUSED", raising=False)
    assert _golden_cases()[case](n_threads) == GOLDEN_DIGESTS[case]


# ---------------------------------------------------------------------
# Thread-count resolution and the flag-aware cache key
# ---------------------------------------------------------------------
class TestResolveNThreads:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "7")
        assert resolve_n_threads(3, n_replicas=100) in (1, 3)

    @needs_native
    def test_env_wins_over_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "5")
        resolved = resolve_n_threads(n_replicas=100)
        from repro.core.native import native_threading

        expected = 5 if native_threading() != "serial" else 1
        assert resolved == expected

    def test_default_is_cpu_count_clamped_by_replicas(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        assert resolve_n_threads(n_replicas=1) == 1

    def test_rejects_bad_values(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_n_threads(0)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "two")
        with pytest.raises(ConfigurationError):
            resolve_n_threads()

    def test_cpu_count_positive(self):
        assert available_cpu_count() >= 1

    def test_env_reaches_sharded_runs(self, monkeypatch):
        """A sharded run hands REPRO_NATIVE_THREADS to every shard; only
        without it is the CPU count split between the shards."""
        import repro.parallel.ensemble as ensemble

        seen = []
        real_run = ensemble.TrialRunner.run

        def spy(self, trial_fn, n_trials, seed=None, kwargs=None):
            seen.append(kwargs["n_threads"])
            in_process = ensemble.TrialRunner(n_workers=0)
            return real_run(in_process, trial_fn, n_trials, seed=seed, kwargs=kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(ensemble.TrialRunner, "effective_workers", property(lambda self: 2))
        monkeypatch.setattr(ensemble.TrialRunner, "run", spy)
        spec = EnsembleSpec(n_bins=8, n_replicas=4, rounds=3)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        with_env = run_ensemble(spec, seed=0, n_workers=2, kernel="numpy")
        monkeypatch.delenv("REPRO_NATIVE_THREADS")
        without_env = run_ensemble(spec, seed=0, n_workers=2, kernel="numpy")
        assert seen == [3, 4]  # 8 visible CPUs split between 2 shards
        assert np.array_equal(with_env.final_loads, without_env.final_loads)


@needs_native
def test_sharded_run_after_threaded_run_does_not_deadlock():
    """GNU libgomp's worker pool does not survive fork(): a process-pool
    shard forked after a multi-threaded OpenMP launch must not enter a
    multi-threaded parallel region again (it would hang forever)."""
    code = (
        "from repro.parallel.ensemble import EnsembleSpec, run_ensemble\n"
        "spec = EnsembleSpec(n_bins=64, n_replicas=16, rounds=50)\n"
        "run_ensemble(spec, seed=0, kernel='native', n_threads=2)\n"
        "result = run_ensemble(spec, seed=0, kernel='native', n_workers=2, n_threads=2)\n"
        "assert result.n_replicas == 16\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # so a hung pool can be killed as a group
    )
    try:
        _, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the sharded run deadlocked after a threaded OpenMP launch")
    assert proc.returncode == 0, stderr


class TestBinaryCacheKey:
    def test_flags_are_part_of_the_key(self):
        from repro.core.native import _KERNEL, _fingerprint

        spec = _KERNEL
        base = _fingerprint(spec, "cc", ())
        with_omp = _fingerprint(spec, "cc", ("-fopenmp",))
        assert base != with_omp
        assert _fingerprint(spec, "cc", ("-fopenmp",)) == with_omp
        assert _fingerprint(spec, "gcc", ("-fopenmp",)) != with_omp

    def test_header_is_part_of_the_key(self):
        """The shared header is compiled in, so it must be hashed too."""
        import dataclasses

        from repro.core.native import _KERNEL, _fingerprint

        spec = _KERNEL
        without_header = dataclasses.replace(spec, headers=())
        assert _fingerprint(spec, "cc", ()) != _fingerprint(
            without_header, "cc", ()
        )


# ---------------------------------------------------------------------
# n_threads through the ensemble and sweep layers
# ---------------------------------------------------------------------
@needs_native
class TestEnsemblePlumbing:
    SPEC = dict(n_bins=64, n_replicas=24, rounds=150)

    @pytest.mark.parametrize("process_kwargs", [
        {},
        {"metrics": "max_load,legitimacy,moments", "observe_every": 8},
        {
            "process": "faulty",
            "adversary": "concentrate",
            "fault_period": 60,
            "metrics": "max_load",
        },
    ])
    def test_run_ensemble_thread_invariant(self, process_kwargs):
        spec = EnsembleSpec(**self.SPEC, **process_kwargs)
        base = run_ensemble(spec, seed=9, kernel="native", n_threads=1)
        for n_threads in THREAD_COUNTS[1:]:
            run = run_ensemble(
                spec, seed=9, kernel="native", n_threads=n_threads
            )
            assert np.array_equal(run.final_loads, base.final_loads)
            assert set(run.metrics) == set(base.metrics)
            for name in run.metrics:
                for key, value in run.metrics[name].summaries.items():
                    assert np.array_equal(
                        value, base.metrics[name].summaries[key]
                    ), (name, key)


class TestSweepOversubscriptionGuard:
    SWEEP = SweepSpec(
        name="threads-guard",
        base={"n_bins": 32, "rounds": 40, "n_replicas": 8},
        grid={"n_bins": [32, 48]},
    )

    def test_explicit_threads_warn_and_cap(self, tmp_path):
        requested = available_cpu_count() * 8
        with pytest.warns(RuntimeWarning, match="oversubscription"):
            report = run_sweep(
                self.SWEEP, tmp_path, seed=1, n_threads=requested
            )
        assert report.finished
        # the header pins the *request*, so resuming on a bigger machine
        # runs unreduced
        header = report.store.read_header()
        assert header["n_threads"] == requested

    def test_within_budget_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_sweep(self.SWEEP, tmp_path, seed=1, n_threads=1)
        assert report.finished
        assert report.store.read_header()["n_threads"] == 1

    def test_default_header_omits_threads_and_resumes(self, tmp_path):
        report = run_sweep(self.SWEEP, tmp_path, seed=1, max_points=1)
        assert "n_threads" not in report.store.read_header()
        resumed = resume_sweep(tmp_path)
        assert resumed.finished and resumed.n_run == 1

    def test_pinned_threads_resume(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_sweep(
                self.SWEEP, tmp_path, seed=1, n_threads=64, max_points=1
            )
            resumed = resume_sweep(tmp_path)
        assert resumed.finished and resumed.n_run == 1
        assert resumed.store.read_header()["n_threads"] == 64
