"""The ledger recorder keeps each case's median run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

RECORD = Path(__file__).resolve().parents[1] / "benchmarks" / "record.py"


def _record_module():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _case(seconds, speedup):
    return {"seconds": seconds, "replica_rounds_per_s": 60.0 / seconds, "speedup": speedup}


def test_median_cases_keeps_each_cases_median_run():
    record = _record_module()
    runs = [
        {"fast": _case(1.0, 9.0), "slow": _case(9.0, 1.0)},
        {"fast": _case(3.0, 3.0), "slow": _case(5.0, 2.0)},
        {"fast": _case(2.0, 4.5), "slow": _case(7.0, 1.5)},
    ]
    cases = record.median_cases(runs)
    # each case's median comes from its own run, whole
    assert cases == {"fast": _case(2.0, 4.5), "slow": _case(7.0, 1.5)}
