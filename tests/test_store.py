"""Unit tests for repro.store (streaming aggregation + result store)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel.ensemble import EnsembleSpec, run_ensemble
from repro.store import ResultStore, StreamingMoments, TailCounter
from repro.store.store import METRICS


class TestStreamingMoments:
    def test_matches_numpy_on_random_data(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.0, size=997)
        moments = StreamingMoments()
        moments.update(data)
        assert moments.count == 997
        assert moments.mean == pytest.approx(data.mean(), abs=1e-12)
        assert moments.variance() == pytest.approx(data.var(), rel=1e-12)
        assert moments.variance(ddof=1) == pytest.approx(data.var(ddof=1), rel=1e-12)
        assert moments.std(ddof=1) == pytest.approx(data.std(ddof=1), rel=1e-12)
        assert moments.minimum == data.min() and moments.maximum == data.max()

    def test_chunked_updates_match_single_batch(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 50, size=500).astype(float)
        whole = StreamingMoments()
        whole.update(data)
        chunked = StreamingMoments()
        for lo in range(0, data.size, 37):
            chunked.update(data[lo : lo + 37])
        assert chunked.count == whole.count
        assert chunked.mean == pytest.approx(whole.mean, abs=1e-12)
        assert chunked.m2 == pytest.approx(whole.m2, rel=1e-12)

    def test_merge_matches_union(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=100), rng.normal(loc=5.0, size=23)
        ma, mb = StreamingMoments(), StreamingMoments()
        ma.update(a)
        mb.update(b)
        merged = ma.merged(mb)
        union = np.concatenate([a, b])
        assert merged.count == union.size
        assert merged.mean == pytest.approx(union.mean(), abs=1e-12)
        assert merged.variance() == pytest.approx(union.var(), rel=1e-12)

    def test_merge_with_empty_is_identity(self):
        m = StreamingMoments()
        m.update([1.0, 2.0])
        assert m.merged(StreamingMoments()).mean == m.mean
        assert StreamingMoments().merged(m).count == 2

    def test_single_value(self):
        m = StreamingMoments()
        m.update(4.0)
        assert m.count == 1 and m.variance() == 0.0 and m.variance(ddof=1) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingMoments().update([1.0, float("nan")])

    def test_dict_round_trip(self):
        m = StreamingMoments()
        m.update([1.0, 5.0, 9.0])
        clone = StreamingMoments.from_dict(json.loads(json.dumps(m.to_dict())))
        assert clone == m
        assert StreamingMoments.from_dict(StreamingMoments().to_dict()).count == 0


class TestTailCounter:
    def test_counts_and_tail(self):
        t = TailCounter()
        t.update([3, 3, 5, 7])
        assert t.total == 4
        assert t.tail(4) == 2
        assert t.tail(8) == 0
        assert t.tail_fraction(3) == 1.0
        assert TailCounter().tail_fraction(1) == 0.0

    def test_merge(self):
        a, b = TailCounter(), TailCounter()
        a.update([1, 2])
        b.update([2, 3])
        merged = a.merged(b)
        assert merged.counts == {1: 1, 2: 2, 3: 1}

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigurationError):
            TailCounter().update([1.5])

    def test_dict_round_trip(self):
        t = TailCounter()
        t.update([10, 9, 10])
        clone = TailCounter.from_dict(json.loads(json.dumps(t.to_dict())))
        assert clone == t


def _append_demo_point(store, index=0, n_bins=8, n_replicas=4, process="rbb", **extra):
    spec = EnsembleSpec(
        n_bins=n_bins, n_replicas=n_replicas, rounds=4, process=process, **extra
    )
    result = run_ensemble(spec, seed=index, engine="batched", kernel="numpy")
    config = {
        "n_bins": n_bins,
        "n_replicas": n_replicas,
        "rounds": 4,
        "process": process,
        **extra,
    }
    from repro.sweeps import point_id_of

    record = store.append_point(
        index=index,
        point_id=point_id_of(config),
        config=config,
        result=result,
        engine="batched",
        kernel="numpy",
        seed_entropy=index,
    )
    return record


class TestResultStore:
    def test_create_refuses_existing(self, tmp_path):
        store = ResultStore.create(tmp_path / "s")
        store.write_header({"x": 1})
        with pytest.raises(ConfigurationError, match="already exists"):
            ResultStore.create(tmp_path / "s")

    def test_open_requires_header(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a sweep store"):
            ResultStore.open(tmp_path / "missing")

    def test_header_idempotent_but_pinned(self, tmp_path):
        store = ResultStore.create(tmp_path / "s")
        store.write_header({"seed": 1})
        store.write_header({"seed": 1})  # same header: fine
        with pytest.raises(ConfigurationError, match="different sweep"):
            store.write_header({"seed": 2})
        reopened = ResultStore.open(tmp_path / "s")
        assert reopened.read_header() == {"seed": 1}

    def test_append_select_and_aliases(self, tmp_path):
        store = ResultStore.create(tmp_path / "s")
        store.write_header({})
        _append_demo_point(store, index=0, n_bins=8)
        _append_demo_point(store, index=1, n_bins=16)
        _append_demo_point(store, index=2, n_bins=16, process="d_choices", d=2)
        assert len(store) == 3
        assert len(store.select()) == 3
        assert len(store.select(n_bins=16)) == 2
        assert len(store.select(n=16)) == 2  # paper alias
        assert len(store.select(n=16, process="d_choices")) == 1
        assert len(store.select(R=4)) == 3
        row = store.select(n=8).rows[0]
        assert row["process"] == "rbb"
        assert "window_max_load_mean" in row and "converged_fraction" in row

    def test_unknown_filter_field_rejected(self, tmp_path):
        store = ResultStore.create(tmp_path / "s")
        store.write_header({})
        _append_demo_point(store)
        with pytest.raises(ConfigurationError, match="unknown filter field"):
            store.select(bogus=1)

    def test_duplicate_append_rejected(self, tmp_path):
        store = ResultStore.create(tmp_path / "s")
        store.write_header({})
        _append_demo_point(store)
        with pytest.raises(ConfigurationError, match="append-only"):
            _append_demo_point(store)

    def test_replicas_round_trip_disk_and_memory(self, tmp_path):
        disk = ResultStore.create(tmp_path / "s")
        disk.write_header({})
        memory = ResultStore.in_memory()
        rd = _append_demo_point(disk, index=3, n_bins=8)
        rm = _append_demo_point(memory, index=3, n_bins=8)
        assert rd["point_id"] == rm["point_id"]
        from_disk = disk.replicas(rd["point_id"])
        from_memory = memory.replicas(rm["point_id"])
        assert set(from_disk) == set(METRICS)
        for name in METRICS:
            np.testing.assert_array_equal(from_disk[name], from_memory[name])
        with pytest.raises(ConfigurationError):
            disk.replicas("nope")
        with pytest.raises(ConfigurationError):
            memory.replicas("nope")

    def test_point_lookups_after_reopen(self, tmp_path):
        """The point_id index is rebuilt on open and extended on append."""
        store = ResultStore.create(tmp_path / "s")
        store.write_header({})
        first = _append_demo_point(store, index=0, n_bins=8)
        reopened = ResultStore.open(tmp_path / "s")
        second = _append_demo_point(reopened, index=1, n_bins=12)
        assert reopened.completed_point_ids() == {
            first["point_id"],
            second["point_id"],
        }
        for record in (first, second):
            assert reopened.replicas(record["point_id"])["rounds"].shape == (4,)
        with pytest.raises(ConfigurationError, match="append-only"):
            _append_demo_point(reopened, index=0, n_bins=8)

    def test_manifest_survives_reopen(self, tmp_path):
        store = ResultStore.create(tmp_path / "s")
        store.write_header({})
        record = _append_demo_point(store)
        reopened = ResultStore.open(tmp_path / "s")
        assert reopened.records() == [record]
        assert reopened.manifest_bytes() == store.manifest_bytes()

    def test_torn_trailing_line_truncated_on_open(self, tmp_path):
        store = ResultStore.create(tmp_path / "s")
        store.write_header({})
        _append_demo_point(store)
        good = store.manifest_bytes()
        manifest = tmp_path / "s" / ResultStore.MANIFEST_NAME
        manifest.write_bytes(good + b'{"point_id": "torn...')
        with pytest.warns(RuntimeWarning, match="torn record"):
            reopened = ResultStore.open(tmp_path / "s")
        assert len(reopened) == 1
        assert manifest.read_bytes() == good

    def test_summary_matches_batch_recompute(self, tmp_path):
        store = ResultStore.create(tmp_path / "s")
        store.write_header({})
        record = _append_demo_point(store, index=0, n_bins=16, n_replicas=9)
        vectors = store.replicas(record["point_id"])
        for name in METRICS:
            moments = StreamingMoments.from_dict(
                record["summary"]["metrics"][name]
            )
            data = vectors[name].astype(float)
            assert moments.count == data.size
            assert moments.mean == pytest.approx(data.mean(), abs=1e-12)
            assert moments.variance() == pytest.approx(data.var(), abs=1e-12)

    def test_summarize_merges_across_points(self, tmp_path):
        store = ResultStore.create(tmp_path / "s")
        store.write_header({})
        r0 = _append_demo_point(store, index=0, n_bins=8)
        r1 = _append_demo_point(store, index=1, n_bins=8, n_replicas=6)
        merged = store.summarize("window_max_load", n=8)
        combined = np.concatenate(
            [
                store.replicas(r0["point_id"])["window_max_load"],
                store.replicas(r1["point_id"])["window_max_load"],
            ]
        ).astype(float)
        assert merged.count == combined.size
        assert merged.mean == pytest.approx(combined.mean(), abs=1e-12)
        assert merged.variance() == pytest.approx(combined.var(), rel=1e-12)
        tail = store.max_load_tail(n=8)
        assert tail.total == combined.size
        assert tail.tail(0) == combined.size
        with pytest.raises(ConfigurationError, match="unknown metric"):
            store.summarize("bogus")

    def test_manifest_is_canonical_strict_json(self, tmp_path):
        store = ResultStore.create(tmp_path / "s")
        store.write_header({})
        _append_demo_point(store)
        line = store.manifest_bytes().decode().strip()
        record = json.loads(line)
        assert json.dumps(
            record, sort_keys=True, separators=(",", ":"), allow_nan=False
        ) == line
