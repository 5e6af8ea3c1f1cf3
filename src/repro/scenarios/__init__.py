"""``repro.scenarios``: a round-clock DSL for composite, time-varying workloads.

The subsystem is three layers:

spec (:mod:`repro.scenarios.spec`)
    :class:`ScenarioSpec` / :class:`ScenarioEvent` — a JSON-serializable,
    validated schedule of events on the round clock (arrival bursts and
    drains, bin churn, staged adversaries, topology rewiring, observation
    stride changes).
compiler + interpreter (:mod:`repro.scenarios.engine`)
    :func:`compile_scenario` flattens a scenario into engine segments and
    state edits; :func:`run_scenario_batched` drives the batched engine
    between event boundaries (native kernels run whole segments).
catalog (:mod:`repro.scenarios.catalog`)
    Named composite workloads (``burst_recovery``, ``bin_churn``,
    ``staged_adversary``) and :func:`resolve_scenario`, the entry point
    behind ``EnsembleSpec.scenario=``.

Most users never import this package directly — pass ``scenario=`` to
:class:`~repro.parallel.ensemble.EnsembleSpec` (any spelling
:func:`resolve_scenario` accepts) or use the ``repro scenario`` CLI.
"""

from .catalog import (
    available_scenarios,
    bin_churn,
    burst_recovery,
    get_scenario,
    resolve_scenario,
    staged_adversary,
)
from .engine import (
    Apply,
    Run,
    ScenarioProgram,
    compile_scenario,
    run_scenario_batched,
)
from .events import apply_event
from .spec import CONSERVING_KINDS, EVENT_KINDS, ScenarioEvent, ScenarioSpec

__all__ = [
    "EVENT_KINDS",
    "CONSERVING_KINDS",
    "ScenarioEvent",
    "ScenarioSpec",
    "Run",
    "Apply",
    "ScenarioProgram",
    "compile_scenario",
    "run_scenario_batched",
    "apply_event",
    "burst_recovery",
    "bin_churn",
    "staged_adversary",
    "available_scenarios",
    "get_scenario",
    "resolve_scenario",
]
