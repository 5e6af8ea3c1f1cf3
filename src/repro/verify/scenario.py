"""Scenario conformance: exact no-op equality and event-trace invariants.

Two machine-checked contracts gate the scenario interpreter
(:mod:`repro.scenarios.engine`) on top of the statistical chain gates:

no-op equality
    A scenario with zero events must be *bit-equal* to the plain static
    run on every engine coordinate — same final configurations, window
    statistics, legitimacy rounds, and metric payloads.  The compiler
    guarantees this by construction (an event-free scenario compiles to
    the single static engine call); :func:`run_noop_equality` is the
    harness that enforces it stays true.
equality-breaking events leave invariants intact
    :func:`check_scenario_event_invariants` replays a scenario run's
    full trace at ``observe_every=1`` and walks the per-replica ball
    totals against the schedule: bursts add exactly ``count`` balls,
    drains remove exactly ``count``, and every other round (including
    adversary and churn events, which must conserve) leaves the total
    unchanged.  :func:`check_observation_schedule` pins the observation
    clock: the rounds every metric payload reports must equal the
    compiler's precomputed grid, so events never shift observations.

All three helpers return a list of human-readable violation strings —
empty means the contract holds — so the conformance runner and the
pytest tier can share them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from ..errors import ConfigurationError
from ..parallel.ensemble import EnsembleSpec, run_ensemble
from ..rng import as_seed_sequence
from ..scenarios.engine import compile_scenario

__all__ = [
    "NOOP_SCENARIO",
    "fresh_seed",
    "noop_differences",
    "run_noop_equality",
    "check_scenario_event_invariants",
    "check_observation_schedule",
]

#: The canonical event-free scenario (JSON spelling, as a sweep would pass it).
NOOP_SCENARIO = '{"events": []}'


def fresh_seed(seed) -> np.random.SeedSequence:
    """An independent clone of ``seed`` with identical entropy.

    A :class:`~numpy.random.SeedSequence` mutates internal spawn state as
    engines draw children from it, so running two ensembles off the *same*
    object would not replay the same streams.  Rebuilding from the entropy
    and spawn key yields a pristine sequence that spawns identically.
    """
    root = as_seed_sequence(seed)
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key)
    )


def _compare_arrays(label: str, a, b, diffs: List[str]) -> None:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        diffs.append(f"{label}: shape {a.shape} vs {b.shape}")
    elif not np.array_equal(a, b):
        diffs.append(f"{label}: values differ")


def noop_differences(static, scenario) -> List[str]:
    """Bit-compare two :class:`EnsembleResult` objects; empty list = equal."""
    diffs: List[str] = []
    _compare_arrays("final_loads", static.final_loads, scenario.final_loads, diffs)
    _compare_arrays("rounds", static.rounds, scenario.rounds, diffs)
    _compare_arrays(
        "max_load_seen", static.max_load_seen, scenario.max_load_seen, diffs
    )
    _compare_arrays(
        "min_empty_bins_seen",
        static.min_empty_bins_seen,
        scenario.min_empty_bins_seen,
        diffs,
    )
    _compare_arrays(
        "first_legitimate_round",
        static.first_legitimate_round,
        scenario.first_legitimate_round,
        diffs,
    )
    if set(static.metrics) != set(scenario.metrics):
        diffs.append(
            f"metrics keys: {sorted(static.metrics)} vs {sorted(scenario.metrics)}"
        )
        return diffs
    for name, payload in static.metrics.items():
        other = scenario.metrics[name]
        _compare_arrays(f"metrics[{name}].rounds", payload.rounds, other.rounds, diffs)
        for slot in ("series", "summaries", "arrays"):
            mine: Dict[str, np.ndarray] = getattr(payload, slot)
            theirs: Dict[str, np.ndarray] = getattr(other, slot)
            if set(mine) != set(theirs):
                diffs.append(
                    f"metrics[{name}].{slot} keys: "
                    f"{sorted(mine)} vs {sorted(theirs)}"
                )
                continue
            for key, value in mine.items():
                _compare_arrays(
                    f"metrics[{name}].{slot}[{key}]", value, theirs[key], diffs
                )
    return diffs


def run_noop_equality(
    spec_config: Mapping[str, Any],
    horizon: int,
    seed,
    *,
    kernel: str = "numpy",
    n_threads: Optional[int] = None,
    fused: bool = True,
    n_workers: int = 1,
) -> List[str]:
    """Run static vs no-op-scenario at one coordinate; list the differences.

    Both runs start from byte-identical seed trees (:func:`fresh_seed`),
    so any nonempty return value is an interpreter bug, not noise.
    """
    from .conformance import _fusion_env

    config = {**dict(spec_config), "rounds": horizon}
    config.pop("scenario", None)
    static_spec = EnsembleSpec(**config)
    noop_spec = EnsembleSpec(**{**config, "scenario": NOOP_SCENARIO})
    results = []
    for spec in (static_spec, noop_spec):
        with _fusion_env(fused):
            results.append(
                run_ensemble(
                    spec,
                    seed=fresh_seed(seed),
                    n_workers=n_workers,
                    kernel=kernel,
                    n_threads=n_threads,
                )
            )
    return noop_differences(results[0], results[1])


def _event_ball_delta(event) -> int:
    if event.kind == "burst":
        return int(event.count)
    if event.kind == "drain":
        return -int(event.count)
    return 0


def check_scenario_event_invariants(
    spec_config: Mapping[str, Any],
    seed,
    *,
    kernel: str = "numpy",
    n_threads: Optional[int] = None,
) -> List[str]:
    """Replay a scenario run's full trace against its event schedule.

    Forces ``observe_every=1`` and the ``trace`` metric, then checks, per
    replica and per observed round ``t``: loads are non-negative, and the
    ball total equals the initial total plus the net burst/drain delta of
    every event fired at rounds ``<= t`` (so conserving events — adversary
    strikes, bin churn — must leave totals untouched round by round).
    """
    config = {**dict(spec_config), "observe_every": 1, "metrics": "trace"}
    spec = EnsembleSpec(**config)
    scenario = spec.resolved_scenario()
    if scenario is None:
        raise ConfigurationError(
            "check_scenario_event_invariants needs a spec with a scenario"
        )
    result = run_ensemble(
        spec, seed=fresh_seed(seed), kernel=kernel, n_threads=n_threads
    )
    payload = result.metrics["trace"]
    trace = np.asarray(payload.series["trace"])  # (T, R, n)
    rounds = [int(r) for r in payload.rounds]
    base = int(spec.n_balls) if spec.n_balls is not None else int(spec.n_bins)
    expanded = scenario.expand_events(spec.rounds)
    violations: List[str] = []
    if trace.size and trace.min() < 0:
        violations.append("negative load in recorded trace")
    for t_index, round_index in enumerate(rounds):
        expected = base + sum(
            _event_ball_delta(event)
            for when, event in expanded
            if when <= round_index
        )
        totals = trace[t_index].sum(axis=1)
        bad = np.nonzero(totals != expected)[0]
        if bad.size:
            violations.append(
                f"round {round_index}: replica {int(bad[0])} has "
                f"{int(totals[bad[0]])} balls, expected {expected} "
                f"({bad.size} replicas total)"
            )
    expected_final = base + sum(_event_ball_delta(event) for _, event in expanded)
    final_totals = result.final_loads.sum(axis=1)
    if not np.all(final_totals == expected_final):
        violations.append(
            f"final ball totals {sorted(set(int(x) for x in final_totals))} "
            f"!= expected {expected_final}"
        )
    return violations


def check_observation_schedule(
    spec_config: Mapping[str, Any],
    seed,
    *,
    kernel: str = "numpy",
    n_threads: Optional[int] = None,
) -> List[str]:
    """Every metric payload's observation grid must match the compiler's.

    :func:`~repro.scenarios.engine.compile_scenario` precomputes the
    observation rounds a scenario run will fire; events between grid
    points must not shift the clock.  Compares that grid against the
    ``rounds`` vector of every payload the run actually produced.
    """
    config = dict(spec_config)
    spec = EnsembleSpec(**config)
    scenario = spec.resolved_scenario()
    if scenario is None:
        raise ConfigurationError(
            "check_observation_schedule needs a spec with a scenario"
        )
    program = compile_scenario(scenario, spec.rounds, spec.observe_every)
    result = run_ensemble(
        spec, seed=fresh_seed(seed), kernel=kernel, n_threads=n_threads
    )
    expected = [int(r) for r in program.observation_rounds]
    violations: List[str] = []
    for name, payload in result.metrics.items():
        got = [int(r) for r in payload.rounds]
        if got != expected:
            violations.append(
                f"metrics[{name}].rounds {got} != compiled schedule {expected}"
            )
    if not result.metrics:
        violations.append("spec produced no metric payloads to check")
    return violations
