"""Run one workload of the repro benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rbb_window --seed 1 --seconds 25 --trace 0

The program is the ``repro`` package under ``src/``, driven only through
its public API with inputs generated from ``--seed``: one client in a
closed loop, ``n_workers=0``, one fresh interpreter per run.  The
workloads run the kernels with ``n_threads=1`` (see ``RUN_THREADS``);
thread scaling is measured separately, in the traced run, as each
kernel's t(1) / (nproc * t(nproc)) on the same state.  The
``n_workers > 1`` process-pool path is not measured: load comes from one
process using no more threads than cores.  Native kernels are compiled
into ``$CARGO_TARGET_DIR`` (default ``.bench_build``) inside the checkout,
and every file the benchmark writes stays there.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  Their
times are scaled to a reference host speed, measured by a short fixed job
paired with each op (see ``hostspeed``), because the speed of a shared
host drifts by more than a run can average away.
``--trace 1`` runs the same cycles untraced and then traced, and reports
the per-layer metrics plus the tracing overhead; spans are written to
``<build dir>/trace/``.  Either way every cycle's outputs are checked (a
failed check counts as a failed operation), and the last line of standard
output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The lines before it give the host and build record and the sample counts.

Exit codes: 0 with a result; 2 when there is no program to measure; 3
when the program measured is not the shipped one (a kernel fell back to
numpy, or ``REPRO_SANITIZE``/``REPRO_NATIVE*`` overrides the path).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment variables that change which code path is measured.
OVERRIDES = ("REPRO_SANITIZE", "REPRO_NATIVE", "REPRO_NATIVE_FUSED", "REPRO_NATIVE_THREADS")

#: Kernel threads of the workloads' ensembles.  With the visible cores
#: (2 on a 2-vCPU KVM host) the per-replica state the kernel threads share
#: makes a call's wall time depend on where the host places the vCPUs:
#: calls varied 2x within a minute and run-to-run spreads reached 20%,
#: against about 7% with one thread.
RUN_THREADS = 1

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 5

#: The host-speed job paired with a set-up probe: (python, numpy, io) units.
SETUP_HOST_JOB = (4, 4, 0)

#: Repetitions of each thread-efficiency probe (the fastest is kept).
PROBE_REPEATS = 3

#: Thread-efficiency probe ensembles: the same (spec, seed) at 1 thread and
#: at every visible core.
PROBES = {
    "full": {
        "rbb": dict(n_bins=1024, n_replicas=256, rounds=128, start="random_uniform"),
        "walks": dict(
            n_bins=1024, n_replicas=128, rounds=64, process="graph_walks",
            topology="torus:32x32",
        ),
    },
    "tiny": {
        "rbb": dict(n_bins=128, n_replicas=16, rounds=32, start="random_uniform"),
        "walks": dict(
            n_bins=64, n_replicas=16, rounds=32, process="graph_walks",
            topology="torus:8x8",
        ),
    },
}


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import ``repro`` from the checkout; returns the import time."""
    os.environ["XDG_CACHE_HOME"] = str(build_dir() / "cache")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import repro  # noqa: F401

    return time.perf_counter() - started


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except OSError:  # no git on PATH
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_record() -> dict:
    """What ran where; refuses when a kernel did not load natively."""
    import numpy
    from workloads import Refusal

    from repro.core.native import (
        KERNEL_NAMES,
        available_cpu_count,
        native_status,
        native_threading,
    )

    kernels = {
        name: {"native_status": native_status(name), "native_threading": native_threading(name)}
        for name in KERNEL_NAMES
    }
    for name, info in kernels.items():
        if info["native_threading"] == "unavailable":
            raise Refusal(f"the {name} kernel fell back to numpy: {info['native_status']}")
    return {
        "nproc": available_cpu_count(),
        "cpu_count": os.cpu_count(),
        "kernels": kernels,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def setup_probe(args) -> int:
    """Child mode: the set-up a user pays in a fresh interpreter."""
    load_program()
    from repro.core.native import KERNEL_NAMES, get_kernel
    from workloads import WORKLOADS

    for name in KERNEL_NAMES:
        get_kernel(name)
    WORKLOADS[args.workload](args.seed, args.scale, build_dir(), 1).setup()
    return 0


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters doing the set-up (warm cache),
    each scaled to the reference host speed measured around it (the mean of
    the factors just before and just after)."""
    from hostspeed import scale_now

    walls = []
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--scale", args.scale,
    ]
    scale = scale_now(SETUP_HOST_JOB, repeats=3)
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - started
        before, scale = scale, scale_now(SETUP_HOST_JOB, repeats=3)
        walls.append(wall * (before + scale) / 2)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(walls)


def run_cycle(workload, read_repeats=1, tracer=None, run_id=0, held_out=False):
    """One cycle: ensembles and read phase, then the untimed output checks.

    With a ``tracer``, the cycle's spans carry ``run_id`` and the checks'
    spans carry ``CHECK_RUN``, which the layer metrics leave out.  Each
    cycle's data is dropped after its checks, so memory does not grow with
    the number of cycles in a run.
    """
    from tracing import CHECK_RUN

    if tracer is not None:
        tracer.run = run_id
    cycle = workload.run_cycle(held_out)
    workload.read(cycle, repeats=read_repeats)
    if tracer is not None:
        tracer.run = CHECK_RUN
    cycle.bytes_written = sum(
        p.stat().st_size for p in cycle.directory.rglob("*") if p.is_file()
    )
    workload.check(cycle)
    workload.discard(cycle)
    return cycle


def run_cycles(workload, seconds: float, read_repeats: int) -> list:
    """Closed loop of whole cycles until ``seconds`` have passed."""
    cycles = []
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        cycles.append(run_cycle(workload, read_repeats))
    return cycles


def failures_of(held_out, cycles) -> list:
    """Every failed check; all cycles of one seed must share one digest."""
    failures = [f for c in [held_out] + cycles for f in c.failures]
    digests = {c.digest for c in cycles}
    if len(digests) != 1:
        failures.append(f"cycles of one seed produced {len(digests)} different digests")
    return failures


def thread_efficiency(tracer, scale: str, n_threads: int) -> tuple:
    """t(1) / (nproc * t(nproc)) of each kernel's calls on the same state,
    and a failure for each kernel whose result depends on the thread count."""
    import repro
    from tracing import PROBE_RUN
    from workloads import result_digest

    tracer.run = PROBE_RUN
    metrics, failures = {}, []
    for kernel, fields in PROBES[scale].items():
        spec = repro.EnsembleSpec(**fields)
        best, digests = {}, set()
        for _ in range(PROBE_REPEATS):
            for threads in (1, n_threads):
                first = len(tracer.spans)
                result = repro.run_ensemble(spec, seed=7, engine="batched", n_threads=threads)
                kernel_s = sum(
                    s.duration for s in tracer.spans[first:] if s.name == "core.native.call"
                )
                best[threads] = min(best.get(threads, float("inf")), kernel_s)
                digests.add(result_digest(result))
        if len(digests) != 1:
            failures.append(f"{kernel} kernel results depend on the thread count")
        metrics[f"core.native.{kernel}.thread_efficiency"] = best[1] / (
            n_threads * best[n_threads]
        )
    return metrics, failures


def end_to_end(args, cycles) -> tuple:
    """Times at reference host speed: each op's median over the run's cycles,
    then sums and percentiles across the ops of a cycle.

    Every cycle repeats the same ops on the same inputs, and each op's times
    are scaled by the host speed measured just before it (see
    ``hostspeed``), which takes out the host's changes of speed over the
    run and between runs.  The percentiles are taken across the four
    families, or across the grid points of the sweep.  ``host_scale`` on
    the ``detail`` line is the median factor applied.
    """
    import numpy as np

    scale = np.array([c.op_scale for c in cycles])
    op_ms = np.median(np.array([c.op_ms for c in cycles]) * scale, axis=0)
    cpu_ms = np.median(np.array([c.op_cpu_ms for c in cycles]) * scale, axis=0)
    bin_rounds = cycles[0].bin_rounds
    return {
        "setup_s": measure_setup(args),
        "bin_rounds_per_s": bin_rounds / (op_ms.sum() / 1e3),
        "cpu_ns_per_bin_round": 1e6 * cpu_ms.sum() / bin_rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": np.percentile(op_ms, 50),
        "op_p95_ms": np.percentile(op_ms, 95),
        "query_s": statistics.median(c.query_s for c in cycles),
    }, {
        "cycles": len(cycles),
        "host_scale": float(np.median(scale)),
        "op_samples": sum(len(c.op_ms) for c in cycles),
        "ops_per_cycle": len(cycles[0].op_ms),
        "read_repeats": cycles[0].read_repeats,
        "setup_samples": SETUP_SAMPLES,
        "measured_s": sum(c.wall_s for c in cycles),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    overridden = [name for name in OVERRIDES if name in os.environ]
    if overridden:
        print(f"refused: {', '.join(overridden)} override the measured code path",
              file=sys.stderr)
        return 3
    import_s = load_program()
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Refusal

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = build_dir() / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        host = host_record()
        print("host " + json.dumps(host, sort_keys=True), flush=True)
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir, RUN_THREADS)
        tracer = Tracer()
        if args.trace:
            tracer.install()
        workload.setup()
        tracer.uninstall()

        held_out = run_cycle(workload, held_out=True)
        if not args.trace:
            cycles = run_cycles(workload, args.seconds, workload.read_repeats)
            failures = failures_of(held_out, cycles)
            metrics, detail = end_to_end(args, cycles)
            units = declared_units("end_to_end")
        else:
            untraced = run_cycles(workload, args.seconds / 2, 1)
            tracer.install()
            traced = [
                run_cycle(workload, tracer=tracer, run_id=run_id)
                for run_id in range(1, len(untraced) + 1)
            ]
            cycles = untraced + traced
            failures = failures_of(held_out, cycles)
            metrics = layer_metrics(tracer.spans)
            efficiency, thread_failures = thread_efficiency(tracer, args.scale, host["nproc"])
            metrics.update(efficiency)
            failures += thread_failures
            tracer.uninstall()
            metrics["store.bytes_written"] = sum(c.bytes_written for c in traced)
            metrics["setup.import_s"] = import_s
            metrics["trace.overhead"] = (
                sum(c.wall_s for c in traced) / sum(c.wall_s for c in untraced) - 1.0
            )
            tracer.write(build_dir() / "trace" / f"{args.workload}-seed{args.seed}.jsonl")
            detail = {"cycles": len(traced), "spans": len(tracer.spans)}
            units = declared_units("per_layer")
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed_digests = sorted({c.digest for c in cycles})
    detail["digest"] = hashlib.sha256(
        (held_out.digest + "".join(timed_digests)).encode()
    ).hexdigest()
    attempted = sum(c.attempted for c in [held_out] + cycles)
    print("detail " + json.dumps(detail, sort_keys=True))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
