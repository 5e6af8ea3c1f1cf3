"""The benchmark's workloads: what each one builds, runs, reads back and checks.

Every workload is a closed loop with one client.  Its unit of work is a
*cycle*: a fixed list of ensembles written as rows of a fresh on-disk
``ResultStore``, followed by a read phase over that store.  The ensemble
workloads make one ``run_ensemble`` -> ``aggregate_ensemble`` ->
``append_point`` call per ensemble; the sweep workload runs one whole
``run_sweep`` grid.  All inputs derive from the benchmark seed, and a
cycle run twice with the same seed must produce the same digest.

Why each workload exists (the one-line reasons live in BENCHMARK.json):

``rbb_window``
    Theorem 1/Lemma 2 window of the plain process from the worst start,
    with fused observation, so one FFI call covers the window: the rbb
    kernel round loop is almost all of the time.
``families``
    One ensemble of each other paper process: the numpy Greedy[2] round
    loop, segmented native runs between adversary faults, the CSR walk
    kernel, and the scenario interpreter with burst/drain state edits.
``sweep_store``
    Hundreds of small sweep points with a non-fusable tracker set: FFI
    marshalling, tracker ingest, store writes and store reads dominate.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from hostspeed import Mix, scale_now

import repro
from repro.analysis.bounds import convergence_time_bound, empty_bins_lower_bound
from repro.store.store import canonical_json

#: ``rbb_window`` calls per cycle; each call of a cycle uses its own seed,
#: and every cycle repeats the same seeds.
OPS_PER_CYCLE = 3

#: Theorem 1 says O(n) rounds from any start; the check allows this many n
#: (observed at n=1024: at most 1.8 n from ``all_in_one``).
CONVERGENCE_CONSTANT = 3.0

#: Store metrics whose moments the read phase merges.
STORE_METRICS = (
    "window_max_load",
    "min_empty_bins",
    "first_legitimate_round",
    "rounds",
    "final_max_load",
)

#: Relative tolerance for a store summary against ``aggregate_ensemble``
#: (both are float64 means of the same integers, merged in another order).
SUMMARY_RTOL = 1e-9


class Refusal(RuntimeError):
    """The program measured is not the shipped one (e.g. a numpy fallback)."""


@dataclass
class Cycle:
    """What one cycle did, as measured from outside the program."""

    seed: int
    directory: Path
    op_ms: List[float] = field(default_factory=list)
    op_cpu_ms: List[float] = field(default_factory=list)
    op_bin_rounds: List[int] = field(default_factory=list)
    #: Each op's host-speed factor, measured just before it (``hostspeed``).
    op_scale: List[float] = field(default_factory=list)
    results: List[object] = field(default_factory=list)
    query_s: Optional[float] = None
    read_repeats: int = 0
    queries: int = 0
    reads: Dict[str, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    report: object = None
    bytes_written: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.op_ms) / 1e3

    @property
    def bin_rounds(self) -> int:
        return sum(self.op_bin_rounds)

    @property
    def attempted(self) -> int:
        """Operations attempted: ensemble calls or sweep points, and queries."""
        return len(self.op_ms) + self.queries


def _hash_array(h, array) -> None:
    a = np.ascontiguousarray(np.asarray(array))
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def result_digest(result) -> str:
    """sha256 over final loads, window statistics and metric payloads."""
    h = hashlib.sha256()
    for name in (
        "final_loads",
        "max_load_seen",
        "min_empty_bins_seen",
        "first_legitimate_round",
        "rounds",
    ):
        _hash_array(h, getattr(result, name))
    for metric in sorted(result.metrics):
        payload = result.metrics[metric]
        h.update(metric.encode())
        _hash_array(h, payload.rounds)
        for slot in ("series", "summaries", "arrays"):
            entries = getattr(payload, slot)
            for key in sorted(entries):
                h.update(f"{slot}.{key}".encode())
                _hash_array(h, entries[key])
    return h.hexdigest()


def read_phase(
    directory: Path,
    filters: Dict[str, object],
    observed: Tuple[Tuple[str, str], ...],
) -> Tuple[float, int, Dict[str, object]]:
    """Open a store and run the queries a user runs on it.

    Returns the wall time, the number of queries, and what they returned.
    """
    started = time.perf_counter()
    store = repro.ResultStore.open(directory)
    store.select(**filters)
    for metric in STORE_METRICS:
        store.summarize(metric)
    for metric, key in observed:
        store.summarize_observed(metric, key)
    store.max_load_tail()
    replicas = {r["point_id"]: store.replicas(r["point_id"]) for r in store.records()}
    elapsed = time.perf_counter() - started
    queries = 3 + len(STORE_METRICS) + len(observed) + len(replicas)
    return elapsed, queries, {"store": store, "replicas": replicas}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SUMMARY_RTOL * max(1.0, abs(a), abs(b))


def check_result(result, expected_balls: int) -> List[str]:
    """Checks every ensemble of every workload must pass."""
    failures = []
    loads = result.final_loads
    if loads.min() < 0:
        failures.append("negative load")
    if not np.array_equal(loads.sum(axis=1), np.full(loads.shape[0], expected_balls)):
        failures.append(f"balls not conserved (expected {expected_balls} per replica)")
    if (result.max_load_seen < result.final_max_load).any():
        failures.append("max_load_seen below the final max load")
    if (result.min_empty_bins_seen > result.final_empty_bins).any():
        failures.append("min_empty_bins_seen above the final empty bins")
    return failures


def check_store_against(store_reads, results) -> List[str]:
    """Queried summaries and shard vectors must equal the in-memory results."""
    failures = []
    store = store_reads["store"]
    for pid, result in results.items():
        aggregate = repro.parallel.aggregate_ensemble(result)
        shard = store_reads["replicas"].get(pid)
        if shard is None:
            failures.append(f"point {pid} missing from the store")
            continue
        pairs = (
            ("window_max_load", result.max_load_seen),
            ("min_empty_bins", result.min_empty_bins_seen),
            ("first_legitimate_round", result.first_legitimate_round),
            ("rounds", result.rounds),
            ("final_max_load", result.final_max_load),
            ("final_empty_bins", result.final_empty_bins),
        )
        for name, vector in pairs:
            if not np.array_equal(shard[name], vector):
                failures.append(f"point {pid}: shard {name} differs from the result")
        for name in STORE_METRICS:
            moments = store.summarize(name, point_id=pid)
            if moments.count != result.n_replicas or not _close(
                moments.mean, aggregate.mean(name)
            ):
                failures.append(f"point {pid}: summarize({name}) != aggregate_ensemble")
        for metric, payload in result.metrics.items():
            for key in payload.summaries:
                moments = store.summarize_observed(metric, key, point_id=pid)
                if not _close(moments.mean, aggregate.mean(f"{metric}_{key}")):
                    failures.append(
                        f"point {pid}: summarize_observed({metric}, {key}) "
                        "!= aggregate_ensemble"
                    )
    return failures


def check_manifest(store) -> List[str]:
    """The reopened manifest must be byte-equal to the in-memory records."""
    in_memory = "".join(canonical_json(r) + "\n" for r in store.records()).encode()
    reopened = repro.ResultStore.open(store.directory).manifest_bytes()
    return [] if reopened == in_memory else ["reopened manifest bytes differ"]


def check_window_vectors(replicas: Dict[str, Dict[str, np.ndarray]]) -> List[str]:
    failures = []
    for pid, shard in replicas.items():
        if (shard["window_max_load"] < shard["final_max_load"]).any():
            failures.append(f"point {pid}: window max below final max")
        if (shard["min_empty_bins"] > shard["final_empty_bins"]).any():
            failures.append(f"point {pid}: window min empty above final empty")
    return failures


class Workload:
    """Common base of the workloads: set-up, cycles, read phase, checks."""

    name = ""
    observed: Tuple[Tuple[str, str], ...] = ()
    read_filters: Dict[str, object] = {}
    #: Read phases timed per cycle (the median is the cycle's sample).
    read_repeats = 1
    #: The host-speed job paired with the ops and reads (``hostspeed``):
    #: units of (python, numpy, io) work.  From one run to another,
    #: rbb_window's ops took up to 1.67x longer and families' 1.54x, and
    #: this job about as much.
    host_job: Mix = (4, 4, 0)

    def __init__(self, seed: int, scale: str, workdir: Path, n_threads: int):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.n_threads = n_threads
        self._cycles = 0

    def setup(self) -> None:
        """Build specs, topology and sweep plan (part of ``setup_s``)."""
        raise NotImplementedError

    def host_scale(self) -> float:
        """The host-speed factor now, from this workload's job."""
        return scale_now(self.host_job, self.workdir / "hostspeed")

    def cycle_seed(self, held_out: bool) -> int:
        """Seeds of one benchmark seed never meet those of another."""
        return self.seed * 10_000 + (5_000 if held_out else 0)

    def _new_directory(self) -> Path:
        self._cycles += 1
        return self.workdir / f"{self.name}-cycle{self._cycles}"

    def run_cycle(self, held_out: bool = False) -> Cycle:
        """Run the cycle's ensembles into a fresh store."""
        raise NotImplementedError

    def read(self, cycle: Cycle, repeats: int = 1) -> None:
        """Time the cycle's read phase (the median of ``repeats``, each at
        reference host speed: the mean of the factors just before and just
        after it)."""
        times = []
        scale = self.host_scale()
        for _ in range(repeats):
            elapsed, queries, reads = read_phase(
                cycle.directory, self.read_filters, self.observed
            )
            before, scale = scale, self.host_scale()
            times.append(elapsed * (before + scale) / 2)
        cycle.query_s = float(np.median(times))
        cycle.read_repeats = repeats
        cycle.queries = queries * repeats
        cycle.reads = reads

    def check(self, cycle: Cycle) -> None:
        """Record every failed output check of a read cycle."""
        raise NotImplementedError

    def discard(self, cycle: Cycle) -> None:
        cycle.results = []
        cycle.reads = {}
        cycle.report = None
        shutil.rmtree(cycle.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# Ensemble workloads
# ----------------------------------------------------------------------
class EnsembleWorkload(Workload):
    """A fixed list of ensemble calls per cycle, one store row each."""

    read_repeats = 15
    #: The ensembles of one cycle, per scale, as ``EnsembleSpec`` fields.
    ops: Dict[str, List[Dict[str, object]]] = {}

    def __init__(self, seed, scale, workdir, n_threads):
        super().__init__(seed, scale, workdir, n_threads)
        self.fields = [dict(f) for f in self.ops[scale]]
        self.specs = []

    def setup(self) -> None:
        self.specs = [repro.EnsembleSpec(**f) for f in self.fields]
        for spec in self.specs:
            if spec.topology is not None:
                repro.resolve_topology(spec.topology)

    def run_cycle(self, held_out=False) -> Cycle:
        directory = self._new_directory()
        cycle = Cycle(seed=self.cycle_seed(held_out), directory=directory)
        store = repro.ResultStore.create(directory)
        store.write_header({"workload": self.name, "seed": cycle.seed})
        for index, (fields, spec) in enumerate(zip(self.fields, self.specs)):
            seed = cycle.seed + index
            cycle.op_scale.append(self.host_scale())
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            result = repro.run_ensemble(
                spec, seed=seed, engine="batched", n_workers=0,
                n_threads=self.n_threads,
            )
            repro.parallel.aggregate_ensemble(result)
            store.append_point(
                index=index,
                point_id=f"{self.name}-{index}",
                config=fields,
                result=result,
                engine="batched",
                kernel="auto",
                seed_entropy=seed,
            )
            cycle.op_ms.append((time.perf_counter() - t0) * 1e3)
            cycle.op_cpu_ms.append((time.process_time() - cpu0) * 1e3)
            cycle.op_bin_rounds.append(spec.n_replicas * spec.n_bins * spec.rounds)
            cycle.results.append(result)
            expected = "numpy" if spec.process == "d_choices" else "native"
            if result.kernel != expected:
                raise Refusal(
                    f"{self.name}: op {index} ran the {result.kernel!r} kernel, "
                    f"expected {expected!r}"
                )
        cycle.report = store
        return cycle

    def check(self, cycle: Cycle) -> None:
        by_pid = {}
        h = hashlib.sha256()
        for index, (spec, result) in enumerate(zip(self.specs, cycle.results)):
            failures = check_result(result, expected_balls(spec))
            failures += self.check_extra(result)
            cycle.failures += [f"op {index}: {f}" for f in failures]
            by_pid[f"{self.name}-{index}"] = result
            h.update(result_digest(result).encode())
        cycle.failures += check_manifest(cycle.report)
        cycle.failures += check_store_against(cycle.reads, by_pid)
        h.update(cycle.report.manifest_bytes())
        cycle.digest = h.hexdigest()

    def check_extra(self, result) -> List[str]:
        return []


def expected_balls(spec) -> int:
    """Balls per replica at the end: ``n`` plus scenario bursts minus drains."""
    balls = spec.n_bins if spec.n_balls is None else spec.n_balls
    scenario = spec.resolved_scenario()
    for event in scenario.events if scenario is not None else ():
        fired = len(event.firings(spec.rounds))
        if event.kind == "burst":
            balls += fired * event.count
        elif event.kind == "drain":
            balls -= fired * event.count
    return balls


def _rbb_window(n_bins: int, n_replicas: int) -> Dict[str, object]:
    return dict(
        n_bins=n_bins, n_replicas=n_replicas, rounds=4 * n_bins, start="all_in_one",
        metrics="max_load,legitimacy", observe_every=16,
    )


class RbbWindow(EnsembleWorkload):
    name = "rbb_window"
    observed = (("max_load", "window_max"), ("legitimacy", "violations"))
    ops = {
        "full": [_rbb_window(1024, 128)] * OPS_PER_CYCLE,
        "tiny": [_rbb_window(256, 16)] * OPS_PER_CYCLE,
    }

    def check_extra(self, result) -> List[str]:
        """Theorem 1 convergence, then legitimacy, and Lemma 2's empty bins."""
        failures = []
        n = result.n_bins
        bound = convergence_time_bound(n, CONVERGENCE_CONSTANT)
        first = result.first_legitimate_round
        if (first < 0).any() or (first > bound).any():
            failures.append(f"a replica did not converge within {bound:.0f} rounds")
        payload = result.metrics["max_load"]
        after = np.asarray(payload.rounds) >= bound
        threshold = repro.legitimacy_threshold(n, result.beta)
        if (payload.series["max_load"][after] > threshold).any():
            failures.append("a replica left legitimacy after convergence")
        if (result.min_empty_bins_seen < empty_bins_lower_bound(n)).any():
            failures.append("empty bins fell below n/4 after round 1")
        return failures


def _families(n_bins: int, topology: str, n_replicas: int, rounds: Dict[str, int]):
    """Greedy[2], faulty, graph walks and a burst scenario, one call each."""
    observed = dict(metrics="max_load,empty_bins", observe_every=16)
    base = dict(n_bins=n_bins, n_replicas=n_replicas)
    return [
        dict(base, rounds=rounds["greedy"], process="d_choices", d=2),
        dict(
            base, rounds=rounds["faulty"], process="faulty", adversary="concentrate",
            fault_period=32,
        ),
        dict(
            base, rounds=rounds["walks"], process="graph_walks", topology=topology,
            **observed,
        ),
        dict(
            base, rounds=rounds["scenario"],
            scenario=(
                f"burst_recovery:count={n_bins},at=64,"
                f"drain_at={rounds['scenario'] // 2}"
            ),
            **observed,
        ),
    ]


class Families(EnsembleWorkload):
    """Each family is sized to a similar share of the cycle's time."""

    name = "families"
    observed = (("max_load", "window_max"), ("empty_bins", "window_min"))
    ops = {
        "full": _families(
            1024, "torus:32x32", 256,
            {"greedy": 16, "faulty": 3072, "walks": 512, "scenario": 768},
        ),
        "tiny": _families(
            64, "torus:8x8", 16,
            {"greedy": 8, "faulty": 256, "walks": 128, "scenario": 256},
        ),
    }


# ----------------------------------------------------------------------
# Sweep workload
# ----------------------------------------------------------------------
class SweepStore(Workload):
    """One ``run_sweep`` grid per cycle into a fresh on-disk store."""

    name = "sweep_store"
    #: Point times followed the disk as well as the CPU: over a 90 s run
    #: they drifted 20% slower with the file unit while the other units
    #: held, and varied with all three units within cycles.
    host_job: Mix = (2, 3, 2)
    expected_kernel = "native"
    observed = (("max_load", "window_max"), ("moments", "load_variance"))
    read_filters = {"process": "faulty"}
    #: Every RECHECK_STRIDE-th point is run again through ``run_ensemble``
    #: after timing, to check the store against ``aggregate_ensemble``.
    RECHECK_STRIDE = 16
    #: Points between host-speed measurements (a point takes 5-15 ms).
    HOST_SPEED_EVERY = 8
    #: One read phase per cycle spread 0.12-0.14 (IQR/median) over ten runs.
    read_repeats = 3
    grids = {
        "full": {
            "n_bins": [64, 96, 128, 192, 256, 384, 512],
            "process": ["rbb", "faulty"],
            "rounds": [32, 64, 96, 128],
            "observe_every": [2, 4, 8, 16],
        },
        "tiny": {
            "n_bins": [32, 64],
            "process": ["rbb", "faulty"],
            "rounds": [32, 48],
            "observe_every": [2, 4],
        },
    }
    base = {
        "n_replicas": 32,
        "start": "random_uniform",
        "metrics": "max_load,histogram,moments",
        "fault_period": 16,
    }

    def __init__(self, seed, scale, workdir, n_threads):
        super().__init__(seed, scale, workdir, n_threads)
        self.sweep = None
        self.plan = None

    def setup(self) -> None:
        self.sweep = repro.SweepSpec(
            name="bench_sweep_store", base=self.base, grid=self.grids[self.scale]
        )
        self.plan = repro.expand_sweep(self.sweep)

    def run_cycle(self, held_out=False) -> Cycle:
        directory = self._new_directory()
        cycle = Cycle(seed=self.cycle_seed(held_out), directory=directory)
        scale = self.host_scale()
        start = (time.perf_counter(), time.process_time())

        def stamp(_line: str) -> None:
            """After each point: its times, then every few points the host speed."""
            nonlocal scale, start
            wall, cpu = time.perf_counter(), time.process_time()
            cycle.op_ms.append((wall - start[0]) * 1e3)
            cycle.op_cpu_ms.append((cpu - start[1]) * 1e3)
            cycle.op_scale.append(scale)
            if len(cycle.op_ms) % self.HOST_SPEED_EVERY == 0:
                scale = self.host_scale()
            start = (time.perf_counter(), time.process_time())

        report = repro.run_sweep(
            self.sweep, directory, seed=cycle.seed, engine="batched",
            kernel="auto", n_workers=0, n_threads=self.n_threads, progress=stamp,
        )
        cycle.op_bin_rounds = [
            p.config["n_replicas"] * p.config["n_bins"] * p.config["rounds"]
            for p in self.plan
        ]
        cycle.report = report
        kernel = report.store.read_header()["kernel"]
        if kernel != self.expected_kernel:
            raise Refusal(f"{self.name}: the sweep resolved kernel {kernel!r}")
        return cycle

    def check(self, cycle: Cycle) -> None:
        report = cycle.report
        store = report.store
        if report.n_run != self.plan.n_points or len(store) != self.plan.n_points:
            cycle.failures.append(
                f"sweep ran {report.n_run} of {self.plan.n_points} points"
            )
        cycle.failures += check_manifest(store)
        cycle.failures += check_window_vectors(cycle.reads["replicas"])
        recheck = {}
        for point in list(self.plan)[:: self.RECHECK_STRIDE]:
            result = repro.run_ensemble(
                point.ensemble_spec(), seed=point.seed(cycle.seed),
                engine="batched", n_workers=0, n_threads=self.n_threads,
            )
            if result.kernel != self.expected_kernel:
                raise Refusal(f"{self.name}: point ran the {result.kernel!r} kernel")
            failures = check_result(result, int(point.config["n_bins"]))
            cycle.failures += [f"point {point.index}: {f}" for f in failures]
            recheck[point.point_id] = result
        cycle.failures += check_store_against(cycle.reads, recheck)
        h = hashlib.sha256(store.manifest_bytes())
        for pid in sorted(cycle.reads["replicas"]):
            for key, array in sorted(cycle.reads["replicas"][pid].items()):
                h.update(f"{pid}.{key}".encode())
                _hash_array(h, array)
        for pid in sorted(recheck):
            _hash_array(h, recheck[pid].final_loads)
        cycle.digest = h.hexdigest()


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (RbbWindow, Families, SweepStore)
}
