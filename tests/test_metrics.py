"""Tests for repro.metrics — the unified streaming observation layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.batched import BatchedFaultyProcess
from repro.adversary.faulty_process import FaultSchedule, FaultyProcess
from repro.baselines.d_choices import BatchedDChoices, DChoicesProcess
from repro.core.batched import BatchedRepeatedBallsIntoBins, EnsembleResult
from repro.core.config import DEFAULT_BETA, legitimacy_threshold
from repro.core.metrics import (
    BinEmptyingTracker,
    EmptyBinsTracker,
    LegitimacyTracker,
    LoadHistogramTracker,
    MaxLoadTracker,
    TraceRecorder,
)
from repro.core.native import native_available
from repro.core.process import RepeatedBallsIntoBins
from repro.errors import ConfigurationError
from repro.metrics import (
    METRIC_NAMES,
    BatchedBinEmptyingTracker,
    BatchedEmptyBinsTracker,
    BatchedLegitimacyTracker,
    BatchedLoadHistogramTracker,
    BatchedMaxLoadTracker,
    BatchedObserverList,
    BatchedTraceRecorder,
    MetricPayload,
    StreamingMomentsObserver,
    as_batched,
    as_load_matrix,
    build_trackers,
    normalize_metric_names,
    summarize_payloads,
)
from repro.parallel.aggregate import aggregate_ensemble
from repro.parallel.ensemble import EnsembleSpec, run_ensemble
from repro.store import ResultStore
from repro.sweeps import SweepSpec, run_sweep

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable"
)


def _sequential_trackers():
    return {
        "max_load": MaxLoadTracker(),
        "empty_bins": EmptyBinsTracker(),
        "legitimacy": LegitimacyTracker(),
        "histogram": LoadHistogramTracker(),
        "trace": TraceRecorder(),
        "bin_emptying": BinEmptyingTracker(),
    }


def _batched_trackers():
    return {
        "max_load": BatchedMaxLoadTracker(),
        "empty_bins": BatchedEmptyBinsTracker(),
        "legitimacy": BatchedLegitimacyTracker(),
        "histogram": BatchedLoadHistogramTracker(),
        "trace": BatchedTraceRecorder(),
        "bin_emptying": BatchedBinEmptyingTracker(),
    }


def _assert_stream_equal(seq, bat):
    """Sequential trackers vs batched trackers at R == 1: identical output."""
    assert seq["max_load"].series == [int(v) for v in bat["max_load"].as_array()[:, 0]]
    assert seq["max_load"].window_max == int(bat["max_load"].window_max[0])
    assert seq["empty_bins"].series == [
        int(v) for v in bat["empty_bins"].as_array()[:, 0]
    ]
    assert seq["empty_bins"].window_min == int(bat["empty_bins"].window_min[0])
    leg_seq, leg_bat = seq["legitimacy"], bat["legitimacy"]
    expected_first = -1 if leg_seq.first_legitimate_round is None else leg_seq.first_legitimate_round
    assert expected_first == int(leg_bat.first_legitimate_round[0])
    assert leg_seq.violations == int(leg_bat.violations[0])
    assert leg_seq.converged == bool(leg_bat.converged[0])
    assert leg_seq.stable_after_convergence == bool(
        leg_bat.stable_after_convergence[0]
    )
    assert np.array_equal(seq["histogram"].counts, bat["histogram"].counts[0])
    assert seq["histogram"].overflow == int(bat["histogram"].overflow[0])
    assert seq["histogram"].mean_load() == pytest.approx(
        float(bat["histogram"].mean_load()[0])
    )
    assert np.array_equal(seq["trace"].as_matrix(), bat["trace"].as_matrix()[:, 0, :])
    assert seq["trace"].rounds == bat["trace"].snapshot_rounds
    assert np.array_equal(
        seq["bin_emptying"].first_empty_round,
        bat["bin_emptying"].first_empty_round[0],
    )


# ----------------------------------------------------------------------
# Base plumbing
# ----------------------------------------------------------------------
class TestBase:
    def test_as_load_matrix(self):
        assert as_load_matrix(np.arange(4)).shape == (1, 4)
        assert as_load_matrix(np.zeros((3, 4))).shape == (3, 4)
        with pytest.raises(ConfigurationError):
            as_load_matrix(np.zeros((2, 2, 2)))

    def test_observer_list_coerce(self):
        assert BatchedObserverList.coerce(None).is_empty
        tracker = BatchedMaxLoadTracker()
        single = BatchedObserverList.coerce(tracker)
        assert len(single) == 1
        seen = []
        mixed = BatchedObserverList.coerce([tracker, lambda t, loads: seen.append(t)])
        mixed.observe(3, np.array([[1, 0]]))
        assert seen == [3]
        with pytest.raises(ConfigurationError):
            BatchedObserverList.coerce(42)

    def test_as_batched_adapter(self):
        seq = MaxLoadTracker()
        adapter = as_batched(seq)
        adapter.observe(1, np.array([[3, 0]]))
        assert seq.series == [3]
        with pytest.raises(ConfigurationError):
            adapter.observe(2, np.zeros((2, 2), dtype=np.int64))

    def test_tracker_shape_rebind_rejected(self):
        tracker = BatchedMaxLoadTracker()
        tracker.observe(1, np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ConfigurationError):
            tracker.observe(2, np.zeros((3, 4), dtype=np.int64))


# ----------------------------------------------------------------------
# Stream equality at R == 1 (satellite: rbb, d_choices, faulty)
# ----------------------------------------------------------------------
class TestStreamEquality:
    ROUNDS = 120

    def test_rbb(self):
        seq_proc = RepeatedBallsIntoBins(32, seed=11)
        seq = _sequential_trackers()
        seq_proc.run(self.ROUNDS, observers=list(seq.values()))

        bat_proc = BatchedRepeatedBallsIntoBins(32, 1, seed=11, kernel="numpy")
        bat = _batched_trackers()
        bat_proc.run(self.ROUNDS, observers=list(bat.values()))
        _assert_stream_equal(seq, bat)

    def test_d_choices(self):
        seq_proc = DChoicesProcess(32, d=2, seed=12)
        seq = _sequential_trackers()
        seq_proc.run(self.ROUNDS, observers=list(seq.values()))

        bat_proc = BatchedDChoices(32, 1, d=2, seed=12)
        bat = _batched_trackers()
        bat_proc.run(self.ROUNDS, observers=list(bat.values()))
        _assert_stream_equal(seq, bat)

    def test_faulty(self):
        """With one shared generator and a single-draw adversary, the
        batched fault injector is stream-compatible with FaultyProcess."""
        schedule = FaultSchedule.every(25)
        seq_proc = FaultyProcess(
            32,
            adversary="concentrate",
            schedule=schedule,
            seed=np.random.default_rng(13),
        )
        seq = _sequential_trackers()
        seq_proc.run(self.ROUNDS, observers=list(seq.values()))

        gen = np.random.default_rng(13)
        inner = BatchedRepeatedBallsIntoBins(32, 1, seed=gen, kernel="numpy")
        bat_proc = BatchedFaultyProcess(
            32,
            1,
            adversary="concentrate",
            schedule=schedule,
            seed=gen,
            process=inner,
        )
        bat = _batched_trackers()
        bat_proc.run(self.ROUNDS, observers=list(bat.values()))
        _assert_stream_equal(seq, bat)

    def test_sequential_observer_rides_batched_run(self):
        """A legacy sequential tracker wrapped with as_batched sees the
        same stream as its batched counterpart on one R == 1 run."""
        seq = MaxLoadTracker()
        bat = BatchedMaxLoadTracker()
        process = BatchedRepeatedBallsIntoBins(16, 1, seed=14, kernel="numpy")
        process.run(50, observers=[as_batched(seq), bat])
        assert seq.series == [int(v) for v in bat.as_array()[:, 0]]


# ----------------------------------------------------------------------
# Engine-level metrics= collection
# ----------------------------------------------------------------------
class TestEnsembleMetrics:
    def test_payload_schema(self):
        spec = EnsembleSpec(
            n_bins=32,
            n_replicas=5,
            rounds=30,
            metrics="max_load,empty_bins,legitimacy,histogram,bin_emptying",
        )
        result = run_ensemble(spec, seed=0, engine="batched", kernel="numpy")
        assert set(result.metrics) == set(spec.metrics)
        payload = result.metrics["max_load"]
        assert payload.series["max_load"].shape == (30, 5)
        assert payload.rounds.tolist() == list(range(1, 31))
        # tracker window agrees with the engine's exact window at stride 1
        assert np.array_equal(
            payload.summaries["window_max"], result.max_load_seen
        )
        assert result.metrics["histogram"].arrays["counts"].shape == (5, 257)
        assert result.metrics["bin_emptying"].arrays[
            "first_empty_round"
        ].shape == (5, 32)

    def test_faulty_observation_grid_restarts_at_faults(self):
        spec = EnsembleSpec(
            n_bins=32,
            n_replicas=3,
            rounds=60,
            process="faulty",
            adversary="concentrate",
            fault_period=20,
            metrics="max_load",
            observe_every=4,
        )
        result = run_ensemble(spec, seed=1, engine="batched", kernel="numpy")
        # faults fire before rounds 20 and 40; each fault-free segment is
        # observed every 4 of its own rounds and at its last round
        assert result.metrics["max_load"].rounds.tolist() == [
            4, 8, 12, 16, 19,
            23, 27, 31, 35, 39,
            43, 47, 51, 55, 59, 60,
        ]

    def test_sharded_batched_concatenates_payloads(self):
        spec = EnsembleSpec(n_bins=16, n_replicas=7, rounds=20, metrics="max_load")
        result = run_ensemble(
            spec, seed=2, engine="batched", kernel="numpy", n_workers=2
        )
        payload = result.metrics["max_load"]
        assert payload.series["max_load"].shape == (20, 7)
        assert payload.summaries["window_max"].shape == (7,)

    def test_aggregate_ensemble_metric_columns(self):
        spec = EnsembleSpec(
            n_bins=16, n_replicas=4, rounds=10, metrics=("max_load", "legitimacy")
        )
        result = run_ensemble(spec, seed=3, engine="batched", kernel="numpy")
        agg = aggregate_ensemble(result)
        assert agg.column("max_load_window_max").tolist() == [
            float(v) for v in result.max_load_seen
        ]
        assert "legitimacy_violations" in agg.columns
        assert "legitimacy_stable_after_convergence" in agg.columns

    def test_metrics_validation(self):
        with pytest.raises(ConfigurationError, match="unknown metric"):
            EnsembleSpec(n_bins=8, n_replicas=1, rounds=1, metrics="max_loda")
        with pytest.raises(ConfigurationError, match="twice"):
            EnsembleSpec(
                n_bins=8, n_replicas=1, rounds=1, metrics="max_load,max_load"
            )
        with pytest.raises(ConfigurationError, match="observe_every"):
            EnsembleSpec(n_bins=8, n_replicas=1, rounds=1, observe_every=0)
        spec = EnsembleSpec(
            n_bins=8, n_replicas=1, rounds=1, metrics=" max_load , trace "
        )
        assert spec.metrics == ("max_load", "trace")

    def test_normalize_and_registry(self):
        assert normalize_metric_names(None) == ()
        assert normalize_metric_names("") == ()
        assert normalize_metric_names(["empty_bins"]) == ("empty_bins",)
        assert set(METRIC_NAMES) >= {"max_load", "trace", "bin_emptying"}
        built = build_trackers("legitimacy", beta=3.0)
        assert built[0][0] == "legitimacy" and built[0][1].beta == 3.0

    def test_zero_round_run_keeps_replica_shaped_payloads(self):
        """Every replica passes the early-stop pre-check: trackers never
        observe, yet payload summaries must stay (R,)-shaped."""
        spec = EnsembleSpec(
            n_bins=64,
            n_replicas=4,
            rounds=10,
            stop_when_legitimate=True,  # balanced start is already legitimate
            metrics="max_load,legitimacy",
        )
        result = run_ensemble(spec, seed=12, engine="batched", kernel="numpy")
        assert (result.rounds == 0).all()
        agg = aggregate_ensemble(result)
        assert agg.column("max_load_window_max").shape == (4,)
        assert agg.column("legitimacy_first_legitimate_round").tolist() == [
            -1.0
        ] * 4
        assert result.metrics["max_load"].series["max_load"].shape == (0, 4)

    def test_summary_only_trackers_do_not_log_rounds(self):
        """Streaming (summary-only) trackers keep O(R) state: no per-round
        index log, unlike series-recording trackers."""
        legitimacy = BatchedLegitimacyTracker()
        series = BatchedMaxLoadTracker()
        no_series = BatchedMaxLoadTracker(record_series=False)
        process = BatchedRepeatedBallsIntoBins(16, 2, seed=13, kernel="numpy")
        process.run(50, observers=[legitimacy, series, no_series])
        assert legitimacy.rounds == [] and legitimacy.rounds_observed == 50
        assert no_series.rounds == [] and no_series.rounds_observed == 50
        assert len(series.rounds) == 50
        assert np.array_equal(no_series.window_max, series.window_max)

    def test_observe_every_thins_series(self):
        spec = EnsembleSpec(
            n_bins=16, n_replicas=2, rounds=20, metrics="max_load", observe_every=8
        )
        result = run_ensemble(spec, seed=4, engine="batched", kernel="numpy")
        # observations at rounds 8, 16 and the final round 20
        assert result.metrics["max_load"].rounds.tolist() == [8, 16, 20]


# ----------------------------------------------------------------------
# Native segmentation
# ----------------------------------------------------------------------
@needs_native
class TestNativeObservation:
    def test_segmented_run_matches_whole_window(self):
        plain = BatchedRepeatedBallsIntoBins(64, 10, seed=21, kernel="native").run(400)
        tracker = BatchedMaxLoadTracker()
        observed = BatchedRepeatedBallsIntoBins(64, 10, seed=21, kernel="native").run(
            400, observers=[tracker], observe_every=16
        )
        assert np.array_equal(plain.final_loads, observed.final_loads)
        assert np.array_equal(plain.max_load_seen, observed.max_load_seen)
        assert np.array_equal(
            plain.first_legitimate_round, observed.first_legitimate_round
        )
        assert tracker.rounds_observed == 25  # ceil(400 / 16)
        assert tracker.rounds[-1] == 400

    def test_run_ensemble_native_metrics(self):
        spec = EnsembleSpec(
            n_bins=64,
            n_replicas=8,
            rounds=100,
            metrics="max_load,empty_bins",
            observe_every=10,
        )
        result = run_ensemble(spec, seed=22, engine="batched", kernel="native")
        assert result.kernel == "native"
        assert result.metrics["max_load"].series["max_load"].shape == (10, 8)
        # stride-10 window over observed rounds is bounded by the exact window
        assert (
            result.metrics["max_load"].summaries["window_max"]
            <= result.max_load_seen
        ).all()


# ----------------------------------------------------------------------
# Pre-check window_max_load regression (satellite)
# ----------------------------------------------------------------------
class TestPreCheckReportsObservedValue:
    def _boundary_config(self, n_bins: int, max_load: int) -> np.ndarray:
        """A configuration whose maximum load is exactly ``max_load``."""
        loads = np.ones(n_bins, dtype=np.int64)
        loads[0] = max_load
        loads[1 : max_load] = 0
        assert loads.sum() == n_bins
        return loads

    def test_already_legitimate_reports_observed_max(self):
        n = 64
        threshold = legitimacy_threshold(n, DEFAULT_BETA)
        at_threshold = self._boundary_config(n, int(threshold))
        spec = EnsembleSpec(
            n_bins=n,
            n_replicas=3,
            rounds=50,
            start=np.tile(at_threshold, (3, 1)),
            stop_when_legitimate=True,
        )
        result = run_ensemble(spec, seed=5, engine="batched", kernel="numpy")
        assert (result.rounds == 0).all()
        assert (result.first_legitimate_round == 0).all()
        # the fixed behavior: the observed max load, not 0
        assert (result.max_load_seen == int(threshold)).all()
        assert (
            result.min_empty_bins_seen == (at_threshold == 0).sum()
        ).all()

    def test_just_above_threshold_runs(self):
        n = 64
        threshold = legitimacy_threshold(n, DEFAULT_BETA)
        above = self._boundary_config(n, int(threshold) + 1)
        spec = EnsembleSpec(
            n_bins=n,
            n_replicas=2,
            rounds=50,
            start=np.tile(above, (2, 1)),
            stop_when_legitimate=True,
        )
        result = run_ensemble(spec, seed=6, engine="batched", kernel="numpy")
        assert (result.rounds > 0).all()
        assert (result.max_load_seen > 0).all()

    def test_window_record_shim_removed(self):
        # the PR-4 deprecation shim was scheduled for exactly one release;
        # the shared loop in repro.metrics.window is the only spelling now
        import repro.parallel.ensemble as ensemble_module

        assert not hasattr(ensemble_module, "_window_record")


# ----------------------------------------------------------------------
# Trace memory guard (satellite)
# ----------------------------------------------------------------------
class TestTraceMemoryGuard:
    def test_sequential_guard(self):
        recorder = TraceRecorder(max_elements=16)
        loads = np.ones(8, dtype=np.int64)
        recorder.observe(0, loads)
        recorder.observe(1, loads)
        with pytest.raises(ConfigurationError, match="element budget"):
            recorder.observe(2, loads)
        assert len(recorder.snapshots) == 2  # the refused snapshot is not stored

    def test_batched_guard(self):
        recorder = BatchedTraceRecorder(max_elements=40)
        loads = np.ones((2, 10), dtype=np.int64)
        recorder.observe(0, loads)
        recorder.observe(1, loads)
        with pytest.raises(ConfigurationError, match="element budget"):
            recorder.observe(2, loads)

    def test_stride_spaces_out_budget(self):
        recorder = BatchedTraceRecorder(stride=4, max_elements=40)
        loads = np.ones((2, 10), dtype=np.int64)
        for t in range(8):  # snapshots only at t = 0 and t = 4
            recorder.observe(t, loads)
        assert recorder.snapshot_rounds == [0, 4]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchedTraceRecorder(max_elements=0)
        with pytest.raises(ConfigurationError):
            TraceRecorder(max_elements=0)
        with pytest.raises(ConfigurationError):
            BatchedTraceRecorder(stride=0)


# ----------------------------------------------------------------------
# Payload mechanics
# ----------------------------------------------------------------------
class TestMetricPayload:
    def test_concatenate_pads_shorter_shards(self):
        a = MetricPayload(
            name="max_load",
            rounds=np.array([1, 2, 3]),
            series={"max_load": np.array([[4], [3], [2]])},
            summaries={"window_max": np.array([4])},
        )
        b = MetricPayload(
            name="max_load",
            rounds=np.array([1]),
            series={"max_load": np.array([[9]])},
            summaries={"window_max": np.array([9])},
        )
        merged = MetricPayload.concatenate([a, b])
        assert merged.rounds.tolist() == [1, 2, 3]
        # shard b froze after one observation: its last value is repeated
        assert merged.series["max_load"].tolist() == [[4, 9], [3, 9], [2, 9]]
        assert merged.summaries["window_max"].tolist() == [4, 9]

    def test_payload_maps_merge_in_spec_order(self):
        """The merged map keeps the shards' metric order, so store shards
        list their arrays in the same order under every string hash."""
        from repro.metrics import concatenate_payload_maps

        names = ["moments", "max_load", "histogram", "empty_bins"]

        def shard():
            return {
                name: MetricPayload(name=name, summaries={"x": np.array([1])})
                for name in names
            }

        merged = concatenate_payload_maps([shard(), shard()])
        assert list(merged) == names

    def test_concatenate_rejects_mismatches(self):
        a = MetricPayload(name="max_load", summaries={"window_max": np.array([1])})
        b = MetricPayload(name="empty_bins", summaries={"window_min": np.array([1])})
        with pytest.raises(ConfigurationError):
            MetricPayload.concatenate([a, b])
        with pytest.raises(ConfigurationError):
            MetricPayload.concatenate([])

    def test_ensemble_concatenate_merges_metrics(self):
        spec = EnsembleSpec(n_bins=16, n_replicas=2, rounds=10, metrics="max_load")
        first = run_ensemble(spec, seed=9, engine="batched", kernel="numpy")
        second = run_ensemble(spec, seed=10, engine="batched", kernel="numpy")
        merged = EnsembleResult.concatenate([first, second])
        assert merged.metrics["max_load"].series["max_load"].shape == (10, 4)
        mismatched = run_ensemble(
            EnsembleSpec(n_bins=16, n_replicas=2, rounds=10, metrics="empty_bins"),
            seed=11,
            engine="batched",
            kernel="numpy",
        )
        with pytest.raises(ConfigurationError):
            EnsembleResult.concatenate([first, mismatched])


# ----------------------------------------------------------------------
# Streaming adapters
# ----------------------------------------------------------------------
class TestAdapters:
    def test_streaming_moments_observer(self):
        obs = StreamingMomentsObserver("max_load", tail=True)
        process = BatchedRepeatedBallsIntoBins(16, 4, seed=30, kernel="numpy")
        result = process.run(25, observers=[obs])
        assert obs.moments.count == 25 * 4
        assert obs.moments.maximum == float(result.max_load_seen.max())
        assert obs.tail.tail(int(result.max_load_seen.max())) >= 1
        with pytest.raises(ConfigurationError):
            StreamingMomentsObserver("nope")

    def test_summarize_payloads_matches_batch(self):
        spec = EnsembleSpec(n_bins=16, n_replicas=6, rounds=12, metrics="max_load")
        result = run_ensemble(spec, seed=31, engine="batched", kernel="numpy")
        summary = summarize_payloads(result.metrics)
        window = summary["max_load"]["window_max"]
        assert window["count"] == 6
        assert window["mean"] == pytest.approx(result.max_load_seen.mean())
        assert window["max"] == float(result.max_load_seen.max())


# ----------------------------------------------------------------------
# Store + sweep integration
# ----------------------------------------------------------------------
class TestStoreIntegration:
    def _sweep_spec(self) -> SweepSpec:
        return SweepSpec(
            name="observed-demo",
            base={
                "n_replicas": 4,
                "rounds": 12,
                "metrics": "max_load,legitimacy",
                "observe_every": 3,
            },
            grid={"n_bins": [16, 32]},
        )

    def test_observed_summaries_and_shards(self, tmp_path):
        store = ResultStore.create(tmp_path / "store")
        report = run_sweep(self._sweep_spec(), store, seed=0, kernel="numpy")
        assert report.finished
        record = store.records()[0]
        observed = record["summary"]["observed"]
        assert set(observed) == {"max_load", "legitimacy"}
        assert observed["max_load"]["window_max"]["count"] == 4
        row = store.select(n=16).rows[0]
        assert "max_load_window_max_mean" in row
        assert "legitimacy_violations_mean" in row
        shard = store.replicas(record["point_id"])
        assert shard["observed.max_load.series.max_load"].shape == (4, 4)
        assert shard["observed.max_load.rounds"].tolist() == [3, 6, 9, 12]
        merged = store.summarize_observed("max_load", "window_max")
        assert merged.count == 8  # both points
        with pytest.raises(ConfigurationError, match="no summary"):
            store.summarize_observed("max_load", "nope")
        with pytest.raises(ConfigurationError, match="unknown observed metric"):
            store.summarize_observed("max_loda", "window_max")

    def test_in_memory_store_round_trip(self):
        store = ResultStore.in_memory()
        run_sweep(self._sweep_spec(), store, seed=1, kernel="numpy")
        record = store.records()[0]
        shard = store.replicas(record["point_id"])
        assert "observed.legitimacy.summary.violations" in shard

    def test_points_without_metrics_stay_unchanged(self, tmp_path):
        spec = SweepSpec(
            name="plain-demo",
            base={"n_replicas": 2, "rounds": 4},
            grid={"n_bins": [8]},
        )
        store = ResultStore.create(tmp_path / "plain")
        run_sweep(spec, store, seed=2, kernel="numpy")
        record = store.records()[0]
        assert "observed" not in record["summary"]
        assert not any(
            key.startswith("observed.")
            for key in store.replicas(record["point_id"])
        )
