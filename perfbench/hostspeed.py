"""Host speed, measured with a short fixed job that shares no code with the
program.

The benchmark runs on a few cores of a shared host whose speed changes
under it: on a 2-vCPU KVM Xeon the same pure-Python loop took 19 ms or
36 ms from one half second to the next, on either vCPU, and whole runs of
the benchmark measured 20-30% slower or faster from one minute to the next,
in every timing alike (interpreter start-up, pure Python, numpy, the native
kernels and file writes).  More work per run cannot average that away, so
every end-to-end time is scaled to a reference host speed: each
measurement is paired with a run of the job just before it and multiplied
by ``<the job's reference time> / <the job's time now>``.  A change to the
program moves the scaled times exactly as it moves the raw ones; a change
of host speed moves the job's time as well and cancels out.

The job is a mix of units of three kinds, each about a millisecond:

``python``  a pure-Python dictionary loop;
``numpy``   numpy sorting, prefix sums and counting over a (64, 1024) array;
``io``      a small ``.npz`` file written, renamed into place, and a JSON
            line appended to a manifest, as the result store does.

They slow down by different amounts: when the host slowed down, the Python
unit took up to 1.95x longer and the numpy unit up to 1.33x, while the
file unit followed the disk (twice as slow over a minute of steady store
writes, when the others did not move).  Each workload names its mix,
chosen so that the job slows down about as much as the workload's ops.
The job imports nothing from ``repro``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

#: A job mix: units of (python, numpy, io) work.
Mix = Tuple[int, int, int]

#: Each kind of unit's time, in seconds, on the host the reference speed
#: names (a 2-vCPU KVM Xeon at 2.1 GHz, in its faster state).
REFERENCE_UNIT_S = (0.001, 0.0006, 0.0008)

_ARRAY = np.random.default_rng(0).integers(0, 1024, size=(64, 1024))
_SHARD = {f"v{i}": np.arange(64) for i in range(6)}


def _python_unit() -> int:
    counts: dict = {}
    for i in range(10_000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def _numpy_unit() -> int:
    ordered = np.sort(_ARRAY, axis=1)
    total = int(np.cumsum(ordered, axis=1)[:, -1].sum())
    return total + int(np.bincount(_ARRAY.ravel(), minlength=1024).max())


def _io_unit(directory: Path) -> None:
    tmp = directory / "shard.npz.tmp"
    with tmp.open("wb") as handle:
        np.savez(handle, **_SHARD)
    os.replace(tmp, directory / "shard.npz")
    with (directory / "manifest.jsonl").open("a") as handle:
        handle.write(json.dumps({"shard": "shard.npz", "values": list(range(16))}) + "\n")


def scale_now(mix: Mix, directory: Optional[Path] = None, repeats: int = 1) -> float:
    """Factor that turns a time measured now into one at reference speed,
    from the fastest of ``repeats`` runs of the job ``mix``; the ``io``
    units write into ``directory``."""
    python, numpy, io = mix
    if io:
        directory.mkdir(parents=True, exist_ok=True)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(python):
            _python_unit()
        for _ in range(numpy):
            _numpy_unit()
        for _ in range(io):
            _io_unit(directory)
        best = min(best, time.perf_counter() - started)
    return sum(n * s for n, s in zip(mix, REFERENCE_UNIT_S)) / best
