"""Unified streaming observation layer shared by every engine.

The paper's claims are statements about *trajectories* — the max-load
window ``M(t)`` of Theorem 1, the per-round empty-bin counts of
Lemmas 1–2, legitimacy hitting times — so observation must not be a
privilege of a slow single-replica path.  This package defines one
observer pipeline that the single-replica simulators, the batched
``(R, n)`` engines (including the native C kernel, which observes in-kernel
or executes in segments between observation points), and the sweep
scheduler all share:

``process → observers → reducers → store``

* :mod:`~repro.metrics.base` — the batched observer protocol
  (``observe(round_index, loads)`` with ``(R, n)`` loads; a 1-D load
  vector is the ``R == 1`` view), fan-out lists, and adapters for legacy
  sequential observers.
* :mod:`~repro.metrics.trackers` — replica-aware ports of the six
  sequential trackers, reducing as they observe (memory ``O(R)``, not
  ``O(R·T)``, when series recording is off).
* :mod:`~repro.metrics.window` — the shared window-metric run loop of
  the batched numpy path.
* :mod:`~repro.metrics.payload` / :mod:`~repro.metrics.registry` — the
  containers and validated names through which ``EnsembleSpec.metrics``
  requests observation and results carry it.
* :mod:`~repro.metrics.adapters` — observers and summarizers feeding
  :class:`~repro.store.streaming.StreamingMoments` /
  :class:`~repro.store.streaming.TailCounter` directly from the engine
  (loaded lazily: the store itself depends on this package).

The sequential trackers of :mod:`repro.core.metrics` remain the ``R == 1``
reference implementations and are re-exported here so this package is the
one-stop import for observation machinery.
"""

from __future__ import annotations

from .base import (
    BatchedCallbackObserver,
    BatchedObserverList,
    SequentialObserverAdapter,
    TRACE_ELEMENT_BUDGET,
    as_batched,
    as_load_matrix,
)
from .fused import (
    FusedSegmentStats,
    fused_hist_cap,
    fused_needs_moments,
    supports_fused,
)
from .payload import MetricPayload, concatenate_payload_maps
from .registry import METRIC_NAMES, build_trackers, make_tracker, normalize_metric_names
from .trackers import (
    BatchedBinEmptyingTracker,
    BatchedEmptyBinsTracker,
    BatchedLegitimacyTracker,
    BatchedLoadHistogramTracker,
    BatchedLoadMomentsTracker,
    BatchedMaxLoadTracker,
    BatchedTraceRecorder,
)
from .window import run_window
from ..core.metrics import (
    BinEmptyingTracker,
    EmptyBinsTracker,
    LegitimacyTracker,
    LoadHistogramTracker,
    MaxLoadTracker,
    TraceRecorder,
)

__all__ = [
    # protocol + plumbing
    "as_load_matrix",
    "as_batched",
    "BatchedObserverList",
    "BatchedCallbackObserver",
    "SequentialObserverAdapter",
    "TRACE_ELEMENT_BUDGET",
    # batched trackers
    "BatchedMaxLoadTracker",
    "BatchedEmptyBinsTracker",
    "BatchedLegitimacyTracker",
    "BatchedLoadMomentsTracker",
    "BatchedLoadHistogramTracker",
    "BatchedTraceRecorder",
    "BatchedBinEmptyingTracker",
    # fused (in-kernel) observation
    "FusedSegmentStats",
    "supports_fused",
    "fused_needs_moments",
    "fused_hist_cap",
    # sequential (R == 1) reference trackers
    "MaxLoadTracker",
    "EmptyBinsTracker",
    "LegitimacyTracker",
    "LoadHistogramTracker",
    "TraceRecorder",
    "BinEmptyingTracker",
    # shared window loop
    "run_window",
    # payloads + registry
    "MetricPayload",
    "concatenate_payload_maps",
    "METRIC_NAMES",
    "normalize_metric_names",
    "make_tracker",
    "build_trackers",
    # adapters (lazily loaded)
    "StreamingMomentsObserver",
    "summarize_payloads",
]

#: Adapter exports resolved lazily: repro.store depends on this package, so
#: importing the adapters (which import repro.store.streaming) eagerly from
#: here would close an import cycle while repro.core.batched is mid-import.
_LAZY_ADAPTER_EXPORTS = ("StreamingMomentsObserver", "summarize_payloads")


def __getattr__(name: str):
    if name in _LAZY_ADAPTER_EXPORTS:
        from . import adapters

        return getattr(adapters, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
