"""Per-layer spans, recorded entirely from the benchmark's side.

:class:`Tracer` installs timing wrappers around the public entry points of
each layer of ``repro`` (and around the ``ctypes`` kernel callable that
``repro.core.native.get_kernel`` hands out) and removes them again; no
file of the program is edited.  A span is ``(name, start, end, parent,
run id, attrs)``; spans stay in memory and are written out at the end.
A span's self time is its duration minus the durations of its direct
children (calls are synchronous, so children never overlap).

Span names are ``<layer>.<what>``, with the layer named after its module.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from ctypes import c_int64
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro
import repro.core.native
import repro.scenarios.engine

#: Process family of an ensemble (``EnsembleSpec.process``, or ``scenario``)
#: -> the name its per-family throughput is reported under.
FAMILIES = {
    "rbb": "rbb",
    "d_choices": "greedy",
    "faulty": "faulty",
    "graph_walks": "walks",
    "scenario": "scenario",
}

#: Run ids of the thread-efficiency probes and of the untimed output
#: checks; spans with a negative run id stay out of the layer metrics.
PROBE_RUN = -1
CHECK_RUN = -2


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run = 0
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None):
        """``fn`` recording one span per call (a same-name nested call,
        e.g. a ``super()`` chain, stays inside the outer span)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            span = Span(
                name, 0.0, 0.0, stack[-1] if stack else -1, self.run,
                attrs(*args, **kwargs) if attrs else {},
            )
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` to ``replacement`` in every ``repro`` module."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def patch_function(self, original: Callable, name: str, attrs=None) -> None:
        """Wrap ``original`` wherever a ``repro`` module binds it."""
        self._replace(original, self.wrap(name, original, attrs))

    def patch_method(self, classes, method: str, name: str, attrs=None) -> None:
        """Wrap ``method`` on every ``repro`` class in the classes' MROs
        that defines it."""
        seen = set()
        for cls in classes:
            for klass in cls.__mro__:
                if (
                    klass in seen
                    or method not in klass.__dict__
                    or not klass.__module__.startswith("repro.")
                ):
                    continue
                seen.add(klass)
                raw = klass.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, attrs))
                else:
                    wrapped = self.wrap(name, raw, attrs)
                self._set(klass, method, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from repro.metrics import METRIC_NAMES, build_trackers

        processes = (
            repro.BatchedRepeatedBallsIntoBins,
            repro.BatchedConstrainedWalks,
            repro.BatchedDChoices,
        )
        trackers = {type(tracker) for _, tracker in build_trackers(METRIC_NAMES)}
        get_kernel = repro.core.native.get_kernel

        def traced_get_kernel(kernel: str = "rbb"):
            fn = get_kernel(kernel)
            if fn is None:
                return None

            def attrs(*args):
                # both kernels take (R, n, ..., rounds) as their first three
                # 64-bit integer scalars
                r, n, rounds = [a.value for a in args if isinstance(a, c_int64)][:3]
                return {"kernel": kernel, "bin_rounds": r * n * rounds}

            return self.wrap("core.native.call", fn, attrs)

        self._replace(get_kernel, traced_get_kernel)

        def advance_attrs(process):
            return {"bin_rounds": process.n_replicas * process.n_bins}

        def ensemble_attrs(spec, *args, **kwargs):
            family = "scenario" if spec.scenario is not None else spec.process
            return {
                "family": FAMILIES[family],
                "bin_rounds": spec.n_replicas * spec.n_bins * spec.rounds,
            }

        def fused_attrs(tracker, stats):
            return {"points": len(stats.rounds)}

        self.patch_method(
            processes + (repro.BatchedFaultyProcess,), "__init__", "core.batched.init"
        )
        self.patch_function(repro.make_ensemble_initial, "core.batched.initial")
        self.patch_method(processes, "run", "core.batched.run")
        self.patch_method(
            (repro.BatchedDChoices,), "_advance", "baselines.d_choices.advance",
            advance_attrs,
        )
        self.patch_method(trackers, "observe", "metrics.observe")
        self.patch_method(trackers, "ingest_fused", "metrics.ingest_fused", fused_attrs)
        self.patch_method(trackers, "payload", "metrics.payload")
        self.patch_method((repro.Adversary,), "apply_batch", "adversary.apply")
        self.patch_method((repro.BatchedFaultyProcess,), "run", "adversary.run")
        self.patch_function(repro.compile_scenario, "scenarios.compile")
        self.patch_function(
            repro.scenarios.engine.run_scenario_batched, "scenarios.run"
        )
        self.patch_function(repro.resolve_topology, "graphs.resolve_topology")
        self.patch_method((repro.EnsembleSpec,), "__post_init__", "parallel.spec")
        self.patch_function(repro.run_ensemble, "parallel.run_ensemble", ensemble_attrs)
        self.patch_function(repro.parallel.aggregate_ensemble, "parallel.aggregate")
        self.patch_function(repro.expand_sweep, "sweeps.plan")
        self.patch_function(repro.run_sweep, "sweeps.run")
        store = (repro.ResultStore,)
        self.patch_method(store, "append_point", "store.append")
        self.patch_method(store, "open", "store.open")
        for query in ("select", "summarize", "summarize_observed", "max_load_tail"):
            self.patch_method(store, query, "store.query")
        self.patch_method(store, "replicas", "store.shard_read")

    def uninstall(self) -> None:
        """Put every wrapped attribute back, last patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Layer counts and times over the spans of the workload's own runs."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration

    def select(name, where=None):
        return [
            i for i, s in enumerate(spans)
            if s.name == name and s.run >= 0 and (where is None or where(s))
        ]

    def count(name, where=None):
        return len(select(name, where))

    def total(name, where=None):
        return sum(spans[i].duration for i in select(name, where))

    def self_time(name):
        return sum(spans[i].duration - child_time[i] for i in select(name))

    def attr_sum(name, key, where=None):
        return sum(spans[i].attrs[key] for i in select(name, where))

    def kernel_is(kernel):
        return lambda s: s.attrs["kernel"] == kernel

    def family_is(family):
        return lambda s: s.attrs["family"] == family

    def in_scenario(s):
        return s.parent >= 0 and spans[s.parent].name == "scenarios.run"

    call = "core.native.call"
    calls = count(call)
    fused_points = attr_sum("metrics.ingest_fused", "points")
    observe_calls = count("metrics.observe")
    per_family = {
        f"parallel.{family}.bin_rounds_per_s": _ratio(
            attr_sum("parallel.run_ensemble", "bin_rounds", family_is(family)),
            total("parallel.run_ensemble", family_is(family)),
        )
        for family in FAMILIES.values()
    }
    return per_family | {
        "core.native.calls": calls,
        "core.native.kernel_s": total(call),
        "core.native.rbb.ns_per_bin_round": 1e9 * _ratio(
            total(call, kernel_is("rbb")), attr_sum(call, "bin_rounds", kernel_is("rbb"))
        ),
        "core.native.walks.ns_per_bin_round": 1e9 * _ratio(
            total(call, kernel_is("walks")),
            attr_sum(call, "bin_rounds", kernel_is("walks")),
        ),
        "core.native.bin_rounds_per_call": _ratio(attr_sum(call, "bin_rounds"), calls),
        "core.batched.init_s": total("core.batched.init") + total("core.batched.initial"),
        "core.batched.run_self_s": self_time("core.batched.run"),
        "baselines.d_choices.ns_per_bin_round": 1e9 * _ratio(
            total("baselines.d_choices.advance"),
            attr_sum("baselines.d_choices.advance", "bin_rounds"),
        ),
        "metrics.observe_calls": observe_calls,
        "metrics.observe_s": total("metrics.observe"),
        "metrics.ingest_fused_calls": count("metrics.ingest_fused"),
        "metrics.ingest_fused_s": total("metrics.ingest_fused"),
        "metrics.payload_s": total("metrics.payload"),
        "metrics.fused_share": _ratio(fused_points, fused_points + observe_calls),
        "adversary.apply_calls": count("adversary.apply"),
        "adversary.apply_s": total("adversary.apply"),
        "scenarios.compile_s": total("scenarios.compile"),
        "scenarios.segments": count("core.batched.run", in_scenario),
        "scenarios.self_s": self_time("scenarios.run"),
        "graphs.resolve_topology_s": total("graphs.resolve_topology"),
        "parallel.spec_s": total("parallel.spec"),
        "parallel.run_ensemble_self_s": self_time("parallel.run_ensemble"),
        "parallel.aggregate_s": total("parallel.aggregate"),
        "sweeps.plan_s": total("sweeps.plan"),
        "store.append_calls": count("store.append"),
        "store.append_s": total("store.append"),
        "store.open_s": total("store.open"),
        "store.query_s": total("store.query"),
        "store.shard_read_s": total("store.shard_read"),
    }
