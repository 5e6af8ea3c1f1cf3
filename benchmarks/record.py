"""Record benchmark runs into a committed, append-only JSON ledger.

``BENCH_batched.json`` is the repo's performance record: every entry is
:mod:`benchmarks.bench_batched` run on a described host, so a future
change can be judged against numbers that are *in the tree* rather than
against folklore.  Compare entries with ``benchmarks/compare.py``.

Each case is timed ``RUNS`` times and the entry keeps its median run.
The runs are interleaved (the whole benchmark once, then again), so a
slow stretch of a shared host lands on one run of every case rather than
on every run of one case.

Usage::

    PYTHONPATH=src python benchmarks/record.py                  # full scale
    PYTHONPATH=src python benchmarks/record.py --smoke          # CI smoke
    PYTHONPATH=src python benchmarks/record.py --out /tmp/b.json

Entries record the scale, the visible core count, and the kernel's
threading backend, because the speedup floors are pro-rated by core count
(see ``bench_batched.prorated``): a 21x entry from a 1-core container and
a 140x entry from a 16-core workstation are both honest, and the ledger
keeps enough context to tell them apart.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_batched import FULL, SMOKE, check_targets, measure  # noqa: E402

from repro.core.native import (  # noqa: E402
    available_cpu_count,
    native_status,
    native_threading,
)

SCHEMA_VERSION = 1
DEFAULT_LEDGER = Path(__file__).resolve().parent / "BENCH_batched.json"
#: Timed runs per case; the ledger keeps the median one.
RUNS = 3


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        return out.stdout.strip() if out.returncode == 0 else ""
    except OSError:
        return ""


def load_ledger(path: Path) -> dict:
    if path.exists():
        ledger = json.loads(path.read_text())
        if ledger.get("schema") != SCHEMA_VERSION:
            raise SystemExit(
                f"{path} has schema {ledger.get('schema')!r}; this tool "
                f"writes schema {SCHEMA_VERSION}"
            )
        return ledger
    return {"schema": SCHEMA_VERSION, "entries": []}


def median_cases(runs: list) -> dict:
    """Per case, the run with the median wall clock.

    Each case keeps one whole run (its seconds, throughput and speedup
    stay consistent with each other); with an even number of runs the
    slower of the two middle ones is kept.
    """
    return {
        name: sorted((run[name] for run in runs), key=lambda c: c["seconds"])[
            len(runs) // 2
        ]
        for name in runs[0]
    }


def record(scale, out: Path) -> dict:
    """Run the benchmark ``RUNS`` times at ``scale`` and append the entry
    (each case's median run) to ``out``."""
    cases = median_cases([measure(scale) for _ in range(RUNS)])
    entry = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git": _git_commit(),
        "scale": scale.name,
        "runs_per_case": RUNS,
        "host": {
            "cores": available_cpu_count(),
            "kernel": native_status(),
            "threading": native_threading(),
        },
        "cases": cases,
    }
    ledger = load_ledger(out)
    ledger["entries"].append(entry)
    out.write_text(json.dumps(ledger, indent=2, sort_keys=False) + "\n")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="record at the CI smoke scale (small, no floors enforced)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_LEDGER,
        help=f"ledger file to append to (default {DEFAULT_LEDGER})",
    )
    parser.add_argument(
        "--enforce",
        action="store_true",
        help="exit non-zero when a full-scale speedup floor is missed",
    )
    args = parser.parse_args(argv)
    scale = SMOKE if args.smoke else FULL
    entry = record(scale, args.out)
    print(f"recorded {scale.name}-scale entry -> {args.out}")
    for name, case in entry["cases"].items():
        print(
            f"  {name:28s} {case['seconds']:10.2f} s "
            f"{case['replica_rounds_per_s']:18,.0f} rr/s "
            f"{case['speedup']:8.1f}x"
        )
    if args.enforce and scale.enforce:
        failures = check_targets(entry["cases"])
        for failure in failures:
            print(f"FAILED: {failure}")
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
