"""The benchmark's own tests, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

(The file name keeps these out of the default ``pytest`` collection: each
case starts fresh interpreters and takes seconds.)
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in DECLARED["workloads"]]
CLEAN_ENV = {
    k: v for k, v in os.environ.items()
    if k not in ("REPRO_SANITIZE", "REPRO_NATIVE", "REPRO_NATIVE_FUSED", "REPRO_NATIVE_THREADS")
}


def bench(workload, trace, seed=3, cwd=ROOT, env=None, script=HERE / "run.py"):
    return subprocess.run(
        [
            sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=cwd, env=CLEAN_ENV if env is None else env,
        capture_output=True, text=True, timeout=300,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return result, detail


@pytest.fixture(scope="module")
def runs():
    """One untraced run twice and one traced run of every workload."""
    return {
        name: (parse(bench(name, 0)), parse(bench(name, 0)), parse(bench(name, 1)))
        for name in WORKLOAD_NAMES
    }


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_emitted_with_its_unit_and_checks_pass(runs, workload):
    (plain, _), _, (traced, _) = runs[workload]
    for result, declared in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in DECLARED[declared]}
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert got == expected
        for entry in result["metrics"].values():
            assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    for name in ("bin_rounds_per_s", "setup_s", "op_p50_ms", "query_s"):
        assert plain["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_digest_stable_and_trace_invariant(runs, workload):
    (_, first), (_, second), (_, traced) = runs[workload]
    assert first["digest"] == second["digest"] == traced["digest"]


def test_digest_depends_on_seed():
    _, a = parse(bench("families", 0, seed=3))
    _, b = parse(bench("families", 0, seed=4))
    assert a["digest"] != b["digest"]


@pytest.mark.parametrize("variable", ["REPRO_NATIVE", "REPRO_NATIVE_THREADS", "REPRO_SANITIZE"])
def test_refuses_when_the_measured_path_is_overridden(variable):
    env = dict(CLEAN_ENV, **{variable: "1" if variable != "REPRO_SANITIZE" else "asan"})
    proc = bench("rbb_window", 0, env=env)
    assert proc.returncode == 3
    assert '"metrics"' not in proc.stdout


def test_refuses_when_a_kernel_falls_back_to_numpy(tmp_path):
    # no C compiler on PATH and a cold kernel cache: both kernels fall back
    env = dict(
        CLEAN_ENV, PATH=str(Path(sys.executable).parent), CARGO_TARGET_DIR=str(tmp_path)
    )
    proc = bench("rbb_window", 0, env=env)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert "fell back to numpy" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("rbb_window", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode not in (0, None)
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_shape():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
