"""Unit tests for repro.sweeps (spec, planner, scheduler, catalog)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel.seeding import trial_seed
from repro.rng import as_seed_sequence
from repro.store import ResultStore
from repro.sweeps import (
    SweepSpec,
    a2_sweep_spec,
    available_sweeps,
    e9_sweep_spec,
    expand_sweep,
    get_sweep,
    point_id_of,
    resume_sweep,
    run_sweep,
    smoke_sweep_spec,
    sweep_status,
)


def tiny_spec(**overrides) -> SweepSpec:
    fields = dict(
        name="tiny",
        base={"n_replicas": 3, "rounds": 4},
        grid={"n_bins": [8, 16], "d": [1, 2]},
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestSweepSpec:
    def test_n_points_counts_grid_and_points(self):
        spec = tiny_spec(points=[{"n_bins": 32, "rounds": 2}])
        assert spec.n_points == 5

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(name="")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown EnsembleSpec field"):
            tiny_spec(base={"bogus": 1})
        with pytest.raises(ConfigurationError):
            tiny_spec(grid={"bogus": [1]})
        with pytest.raises(ConfigurationError):
            tiny_spec(points=[{"bogus": 1}])

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            tiny_spec(grid={"n_bins": []})

    def test_no_points_rejected(self):
        with pytest.raises(ConfigurationError, match="no points"):
            SweepSpec(name="empty")

    def test_non_scalar_value_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON scalar"):
            tiny_spec(base={"start": np.zeros(4)})

    def test_dict_round_trip(self):
        spec = tiny_spec(points=[{"n_bins": 32}], description="d")
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_grid_axis_order_survives_key_sorting_encoders(self):
        """Axis order drives expansion order (and seeds); a sort_keys JSON
        round trip — as used by the store header — must not reorder it."""
        import json

        spec = tiny_spec()  # axes (n_bins, d): "d" sorts before "n_bins"
        canonical = json.loads(json.dumps(spec.to_dict(), sort_keys=True))
        clone = SweepSpec.from_dict(canonical)
        assert list(clone.grid) == ["n_bins", "d"]
        assert [p.config["n_bins"] for p in expand_sweep(clone).points] == [
            8,
            8,
            16,
            16,
        ]

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            SweepSpec.from_dict({"name": "x", "grid": {"n_bins": [8]}, "oops": 1})
        with pytest.raises(ConfigurationError, match="missing the 'name'"):
            SweepSpec.from_dict({"grid": {"n_bins": [8]}})


class TestPlanner:
    def test_expansion_order_row_major(self):
        plan = expand_sweep(tiny_spec())
        assert [(p.config["n_bins"], p.config["d"]) for p in plan.points] == [
            (8, 1),
            (8, 2),
            (16, 1),
            (16, 2),
        ]
        assert [p.index for p in plan.points] == [0, 1, 2, 3]

    def test_explicit_points_follow_grid(self):
        plan = expand_sweep(tiny_spec(points=[{"n_bins": 64, "d": 4}]))
        assert plan.n_points == 5
        assert plan.points[-1].config["n_bins"] == 64

    def test_configs_resolved_against_ensemble_defaults(self):
        plan = expand_sweep(tiny_spec())
        config = plan.points[0].config
        assert config["process"] == "rbb"  # filled-in EnsembleSpec default
        assert config["start"] == "balanced"
        assert config["fault_period"] is None

    def test_invalid_point_fails_at_planning_time(self):
        with pytest.raises(ConfigurationError, match="not a valid EnsembleSpec|must be >= 1"):
            expand_sweep(tiny_spec(grid={"n_bins": [0]}))

    def test_duplicate_points_rejected(self):
        with pytest.raises(ConfigurationError, match="same configuration"):
            expand_sweep(tiny_spec(points=[{"n_bins": 8, "d": 1}]))

    def test_point_id_is_content_hash(self):
        plan = expand_sweep(tiny_spec())
        assert plan.points[0].point_id == point_id_of(plan.points[0].config)
        # same resolved config, written differently, hashes identically
        explicit = expand_sweep(
            SweepSpec(
                name="other",
                points=[{"rounds": 4, "n_replicas": 3, "d": 1, "n_bins": 8}],
            )
        )
        assert explicit.points[0].point_id == plan.points[0].point_id

    def test_point_id_independent_of_grid_size(self):
        small = expand_sweep(tiny_spec(grid={"n_bins": [8], "d": [1]}))
        large = expand_sweep(tiny_spec())
        assert small.points[0].point_id == large.points[0].point_id

    def test_point_seed_independent_of_grid_size(self):
        small = expand_sweep(tiny_spec(grid={"n_bins": [8], "d": [1]}))
        large = expand_sweep(tiny_spec())
        seed_small = small.points[0].seed(7)
        seed_large = large.points[0].seed(7)
        assert seed_small.entropy == seed_large.entropy
        assert seed_small.spawn_key == seed_large.spawn_key
        # and it is exactly the parallel.seeding stream
        reference = trial_seed(7, 0)
        assert seed_small.spawn_key == reference.spawn_key

    def test_point_by_id(self):
        plan = expand_sweep(tiny_spec())
        point = plan.points[2]
        assert plan.point_by_id(point.point_id) is point
        with pytest.raises(ConfigurationError):
            plan.point_by_id("nope")


class TestScheduler:
    def test_run_and_report(self):
        store = ResultStore.in_memory()
        report = run_sweep(tiny_spec(), store, seed=1, kernel="numpy")
        assert report.finished
        assert report.n_run == 4 and report.n_skipped == 0
        assert len(store) == 4
        assert report.engine_seconds <= report.elapsed_seconds

    def test_rerun_skips_everything(self):
        store = ResultStore.in_memory()
        run_sweep(tiny_spec(), store, seed=1, kernel="numpy")
        report = run_sweep(tiny_spec(), store, seed=1, kernel="numpy")
        assert report.n_run == 0 and report.n_skipped == 4

    def test_max_points_budget(self):
        store = ResultStore.in_memory()
        report = run_sweep(tiny_spec(), store, seed=1, kernel="numpy", max_points=3)
        assert report.n_run == 3 and not report.finished
        assert report.n_remaining == 1

    def test_negative_max_points_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(tiny_spec(), ResultStore.in_memory(), max_points=-1)

    def test_header_pins_seed_and_engine(self):
        store = ResultStore.in_memory()
        run_sweep(tiny_spec(), store, seed=1, kernel="numpy", max_points=1)
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(tiny_spec(), store, seed=2, kernel="numpy")
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(tiny_spec(), store, seed=1, kernel="native")
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(tiny_spec(name="renamed"), store, seed=1, kernel="numpy")

    def test_header_pins_resolved_kernel_not_auto(self):
        """kernel="auto" resolves per environment; the header must pin the
        resolved kernel so resume can never silently switch streams."""
        from repro.core.native import native_available

        store = ResultStore.in_memory()
        run_sweep(tiny_spec(), store, seed=1, kernel="auto", max_points=1)
        header = store.read_header()
        expected = "native" if native_available() else "numpy"
        assert header["kernel"] == expected
        # and "auto" keeps resolving to the same thing on resume
        report = run_sweep(tiny_spec(), store, seed=1, kernel="auto")
        assert report.finished

    def test_spawned_child_seeds_give_independent_sweeps(self):
        """Two sweeps seeded with distinct spawned children of one root
        must not produce identical per-point streams."""
        children = as_seed_sequence(42).spawn(2)
        a, b = ResultStore.in_memory(), ResultStore.in_memory()
        run_sweep(tiny_spec(), a, seed=children[0], kernel="numpy")
        run_sweep(tiny_spec(), b, seed=children[1], kernel="numpy")
        assert a.manifest_bytes() != b.manifest_bytes()
        # and each resumes byte-identically from its own header
        c = ResultStore.in_memory()
        run_sweep(tiny_spec(), c, seed=children[0], kernel="numpy", max_points=2)
        resume_sweep(c)
        assert c.manifest_bytes() == a.manifest_bytes()

    def test_results_are_deterministic_per_point(self):
        a = ResultStore.in_memory()
        b = ResultStore.in_memory()
        run_sweep(tiny_spec(), a, seed=5, kernel="numpy")
        run_sweep(tiny_spec(), b, seed=5, kernel="numpy")
        assert a.manifest_bytes() == b.manifest_bytes()

    def test_resume_refuses_a_sequential_engine_header(self, tmp_path):
        """Stores written by the removed sequential engine fail loudly on
        resume, even when no point is left to run."""
        store_dir = tmp_path / "store"
        run_sweep(tiny_spec(), store_dir, seed=1, kernel="numpy")
        header_path = store_dir / ResultStore.HEADER_NAME
        header = json.loads(header_path.read_text())
        header["engine"] = "sequential"
        header_path.write_text(json.dumps(header))
        with pytest.raises(ConfigurationError, match="DChoicesProcess"):
            resume_sweep(store_dir)

    def test_resume_from_disk_store(self, tmp_path):
        store_dir = tmp_path / "store"
        run_sweep(tiny_spec(), store_dir, seed=1, kernel="numpy", max_points=2)
        status = sweep_status(store_dir)
        assert status.n_completed == 2 and status.pending_indexes == [2, 3]
        report = resume_sweep(store_dir)
        assert report.finished and report.n_run == 2
        assert sweep_status(store_dir).finished

    def test_resume_requires_header(self, tmp_path):
        with pytest.raises(ConfigurationError):
            resume_sweep(tmp_path / "nowhere")

    def test_progress_callback(self):
        lines = []
        run_sweep(
            tiny_spec(),
            ResultStore.in_memory(),
            seed=1,
            kernel="numpy",
            progress=lines.append,
        )
        assert len(lines) == 4 and "point 0" in lines[0]


class TestCatalog:
    def test_available_and_get(self):
        names = available_sweeps()
        assert {"a2_d_choices", "e9_adversarial", "smoke"} <= set(names)
        for name in names:
            spec = get_sweep(name)
            assert expand_sweep(spec).n_points == spec.n_points

    def test_unknown_sweep(self):
        with pytest.raises(ConfigurationError, match="unknown sweep"):
            get_sweep("bogus")

    def test_smoke_is_four_points(self):
        assert smoke_sweep_spec().n_points == 4

    def test_a2_spec_matches_registry_family(self):
        spec = a2_sweep_spec(sizes=[16, 32], d_values=[1, 2], trials=3, rounds_factor=1.0)
        plan = expand_sweep(spec)
        assert [(p.config["n_bins"], p.config["d"]) for p in plan.points] == [
            (16, 1),
            (16, 2),
            (32, 1),
            (32, 2),
        ]
        assert all(p.config["process"] == "d_choices" for p in plan.points)
        assert all(p.config["rounds"] == p.config["n_bins"] for p in plan.points)

    def test_builders_dedupe_equivalent_points(self):
        """gamma=None and gamma=0 both mean "no faults"; duplicate sizes
        repeat a point — the builders collapse them so the planner's
        duplicate check (store-collision protection) never trips."""
        spec = e9_sweep_spec(n=32, gammas=[None, 0, 6.0], trials=2)
        assert spec.n_points == 2
        expand_sweep(spec)  # no duplicate-configuration error
        spec = a2_sweep_spec(sizes=[16, 16, 32], d_values=[1, 1], trials=2)
        assert spec.n_points == 2
        expand_sweep(spec)

    def test_e9_fault_period_matches_with_gamma(self):
        spec = e9_sweep_spec(n=32, gammas=[6.0, 2.5, None], trials=2)
        periods = [p["fault_period"] for p in spec.points]
        assert periods == [
            max(int(math.ceil(6.0 * 32)), 1),
            max(int(math.ceil(2.5 * 32)), 1),
            None,
        ]
        assert all(p.get("process", spec.base["process"]) == "faulty" for p in spec.points)
