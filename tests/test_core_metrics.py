"""Unit tests for repro.core.metrics and the observer list the simulators hold."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import (
    BinEmptyingTracker,
    EmptyBinsTracker,
    LegitimacyTracker,
    LoadHistogramTracker,
    MaxLoadTracker,
    TraceRecorder,
)
from repro.errors import ConfigurationError
from repro.metrics.base import BatchedCallbackObserver, BatchedObserverList


def feed(tracker, snapshots):
    """Feed a list of load vectors to a tracker as successive rounds."""
    for t, snapshot in enumerate(snapshots, start=1):
        tracker.observe(t, np.asarray(snapshot, dtype=np.int64))


class TestMaxLoadTracker:
    def test_series_and_window_max(self):
        tracker = MaxLoadTracker()
        feed(tracker, [[1, 2, 0], [0, 3, 0], [1, 1, 1]])
        assert tracker.series == [2, 3, 1]
        assert tracker.window_max == 3
        assert tracker.final == 1
        assert tracker.as_array().tolist() == [2, 3, 1]

    def test_without_series(self):
        tracker = MaxLoadTracker(record_series=False)
        feed(tracker, [[1, 2], [4, 0]])
        assert tracker.series == []
        assert tracker.window_max == 4
        assert tracker.final == 4

    def test_final_none_before_observation(self):
        assert MaxLoadTracker().final is None


class TestEmptyBinsTracker:
    def test_counts_and_minimum(self):
        tracker = EmptyBinsTracker()
        feed(tracker, [[0, 0, 2], [1, 1, 0], [1, 1, 1]])
        assert tracker.series == [2, 1, 0]
        assert tracker.window_min == 0
        assert tracker.min_fraction == 0.0

    def test_always_at_least(self):
        tracker = EmptyBinsTracker()
        feed(tracker, [[0, 0, 2, 2], [0, 2, 0, 2]])
        assert tracker.always_at_least(0.25)
        assert tracker.always_at_least(0.5)
        assert not tracker.always_at_least(0.75)

    def test_empty_tracker(self):
        tracker = EmptyBinsTracker()
        assert tracker.min_fraction is None
        assert not tracker.always_at_least()


class TestLegitimacyTracker:
    def test_converged_and_stable(self):
        tracker = LegitimacyTracker(beta=1.0)
        # n = 8 -> threshold = log(8) ~ 2.08
        feed(tracker, [[5, 0, 0, 0, 1, 1, 1, 0], [2, 1, 1, 1, 1, 1, 1, 0], [1] * 8])
        assert tracker.first_legitimate_round == 2
        assert tracker.converged
        assert tracker.stable_after_convergence
        assert tracker.violations == 1

    def test_violation_after_convergence(self):
        tracker = LegitimacyTracker(beta=1.0)
        feed(tracker, [[1] * 8, [9, 0, 0, 0, 0, 0, 0, 0], [1] * 8])
        assert tracker.first_legitimate_round == 1
        assert tracker.first_violation_after_hit == 2
        assert not tracker.stable_after_convergence

    def test_never_converged(self):
        tracker = LegitimacyTracker(beta=1.0)
        feed(tracker, [[8, 0, 0, 0, 0, 0, 0, 0]])
        assert not tracker.converged
        assert not tracker.stable_after_convergence


class TestLoadHistogramTracker:
    def test_distribution_sums_to_one(self):
        tracker = LoadHistogramTracker()
        feed(tracker, [[0, 1, 2], [1, 1, 1]])
        dist = tracker.distribution()
        assert dist.sum() == pytest.approx(1.0)
        # 6 observations total: loads 0,1,2,1,1,1 -> one zero, four ones, one two
        assert tracker.counts[0] == 1
        assert tracker.counts[1] == 4
        assert tracker.counts[2] == 1

    def test_mean_load(self):
        tracker = LoadHistogramTracker()
        feed(tracker, [[0, 2], [1, 1]])
        assert tracker.mean_load() == pytest.approx(1.0)

    def test_overflow_counted(self):
        tracker = LoadHistogramTracker(max_tracked_load=2)
        feed(tracker, [[5, 0]])
        assert tracker.overflow == 1
        assert tracker.counts[2] == 1  # clipped into the top bucket

    def test_empty_distribution(self):
        tracker = LoadHistogramTracker()
        assert tracker.distribution().sum() == 0.0


class TestTraceRecorder:
    def test_records_with_stride(self):
        recorder = TraceRecorder(stride=2)
        feed(recorder, [[1, 1], [2, 0], [0, 2], [1, 1]])
        assert recorder.rounds == [2, 4]
        assert recorder.as_matrix().shape == (2, 2)

    def test_snapshots_are_copies(self):
        recorder = TraceRecorder()
        loads = np.array([1, 1], dtype=np.int64)
        recorder.observe(1, loads)
        loads[0] = 9
        assert recorder.snapshots[0].tolist() == [1, 1]

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            TraceRecorder(stride=0)

    def test_empty_matrix(self):
        assert TraceRecorder().as_matrix().shape == (0, 0)


class TestBinEmptyingTracker:
    def test_first_empty_rounds(self):
        tracker = BinEmptyingTracker()
        feed(tracker, [[1, 0, 2], [0, 1, 1], [0, 0, 0]])
        assert tracker.all_emptied
        assert tracker.first_empty_round.tolist() == [2, 1, 3]
        assert tracker.last_first_empty == 3

    def test_not_all_emptied(self):
        tracker = BinEmptyingTracker()
        feed(tracker, [[1, 0], [2, 0]])
        assert not tracker.all_emptied
        assert tracker.last_first_empty is None


class TestObserverList:
    """The single-replica simulators' 1-D loads through BatchedObserverList."""

    def test_fan_out(self):
        a = MaxLoadTracker()
        b = EmptyBinsTracker()
        group = BatchedObserverList([a, b])
        group.observe(1, np.array([0, 3], dtype=np.int64))
        assert a.window_max == 3
        assert b.window_min == 1
        assert len(group) == 2

    def test_callable_wrapped(self):
        calls = []
        group = BatchedObserverList([lambda t, loads: calls.append(t)])
        group.observe(5, np.zeros(2, dtype=np.int64))
        assert calls == [5]

    def test_invalid_observer_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchedObserverList([42])

    def test_coerce_variants(self):
        assert BatchedObserverList.coerce(None).is_empty
        single = BatchedObserverList.coerce(MaxLoadTracker())
        assert len(single) == 1
        several = BatchedObserverList.coerce([MaxLoadTracker(), MaxLoadTracker()])
        assert len(several) == 2
        passthrough = BatchedObserverList.coerce(several)
        assert passthrough is several

    def test_callback_observer(self):
        seen = []
        obs = BatchedCallbackObserver(lambda t, loads: seen.append((t, int(loads.sum()))))
        obs.observe(3, np.array([1, 2], dtype=np.int64))
        assert seen == [(3, 3)]

    def test_iteration(self):
        trackers = [MaxLoadTracker(), EmptyBinsTracker()]
        group = BatchedObserverList(trackers)
        assert list(group) == trackers
