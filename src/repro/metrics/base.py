"""Observer plumbing for the unified (replica-aware) observation layer.

Every simulator in the repository — the single-replica reference
simulators, the batched ``(R, n)`` processes, and the sweep scheduler on
top of them — reports its state through one protocol:
``observer.observe(round_index, loads)`` where ``loads`` is an ``(R, n)``
load matrix, or a 1-D load vector as the ``R == 1`` view.  Every
simulator holds one :class:`BatchedObserverList`; the helpers here
normalize a 1-D load vector into a ``(1, n)`` matrix, so the batched
trackers in :mod:`repro.metrics.trackers` can be attached unchanged to a
single-replica simulator, and :func:`as_batched` adapts a single-replica
:mod:`repro.core.metrics` tracker to a batched ``R == 1`` run.

Observers must treat the arrays they receive as read-only (the engines pass
views of their internal buffers for efficiency).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..types import Observer

__all__ = [
    "as_load_matrix",
    "as_batched",
    "BatchedCallbackObserver",
    "BatchedObserverList",
    "SequentialObserverAdapter",
    "TRACE_ELEMENT_BUDGET",
    "check_trace_budget",
]

#: Default snapshot budget (total stored elements) for the trace recorders;
#: ~400 MB of int64 data.  Million-round runs must either raise the budget
#: explicitly or use a stride — silent RAM exhaustion is not an option.
TRACE_ELEMENT_BUDGET = 50_000_000


def as_load_matrix(loads) -> np.ndarray:
    """Normalize a load vector or matrix into an ``(R, n)`` matrix view.

    A 1-D length-``n`` vector (the sequential protocol) becomes a
    ``(1, n)`` view of the same data; a 2-D matrix passes through.

    >>> as_load_matrix(np.array([1, 0, 2])).shape
    (1, 3)
    >>> as_load_matrix(np.zeros((4, 8), dtype=np.int64)).shape
    (4, 8)
    """
    arr = np.asarray(loads)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    if arr.ndim == 2:
        return arr
    raise ConfigurationError(
        f"loads must be a 1-D vector or a 2-D (R, n) matrix, got ndim={arr.ndim}"
    )


def resolve_trace_budget(max_elements) -> int:
    """Validate and default a trace recorder's element budget.

    Shared by :class:`repro.core.metrics.TraceRecorder` and its batched
    port so the budget policy lives in one place.
    """
    if max_elements is None:
        return TRACE_ELEMENT_BUDGET
    if max_elements < 1:
        raise ConfigurationError(
            f"max_elements must be >= 1, got {max_elements}"
        )
    return int(max_elements)


def check_trace_budget(
    stored_elements: int, next_elements: int, budget: int, what: str
) -> None:
    """Refuse a snapshot that would push a trace past its element budget."""
    if stored_elements + next_elements > budget:
        raise ConfigurationError(
            f"{what} would exceed its element budget: {stored_elements} "
            f"elements stored, next snapshot adds {next_elements}, budget is "
            f"{budget}. Raise max_elements, increase the stride, or use a "
            "streaming tracker instead of a full trace"
        )


class BatchedCallbackObserver:
    """Adapt a bare callable ``f(round_index, loads)`` to the batched protocol."""

    def __init__(self, callback: Callable[[int, np.ndarray], None]) -> None:
        self._callback = callback

    def observe(self, round_index: int, loads: np.ndarray) -> None:
        self._callback(round_index, loads)


class SequentialObserverAdapter:
    """Present a sequential observer as a batched one (``R == 1`` only).

    The wrapped observer receives the single replica's 1-D load vector, so
    legacy :class:`repro.core.metrics` trackers can ride on a batched
    ``R == 1`` run and produce byte-identical output to a sequential run of
    the same stream.
    """

    def __init__(self, observer: Observer) -> None:
        if not hasattr(observer, "observe"):
            raise ConfigurationError(
                f"sequential observer must implement .observe(t, loads), got {observer!r}"
            )
        self.observer = observer

    def observe(self, round_index: int, loads: np.ndarray) -> None:
        matrix = as_load_matrix(loads)
        if matrix.shape[0] != 1:
            raise ConfigurationError(
                "a sequential observer can only be attached to a single-replica "
                f"(R == 1) run; got R = {matrix.shape[0]}"
            )
        self.observer.observe(round_index, matrix[0])


def as_batched(observer) -> SequentialObserverAdapter:
    """Wrap a sequential observer/callable for use on an ``R == 1`` batched run."""
    if callable(observer) and not hasattr(observer, "observe"):
        observer = BatchedCallbackObserver(observer)
        # the callback sees the 1-D vector, like a sequential callback would
    return SequentialObserverAdapter(observer)


class BatchedObserverList:
    """A composite batched observer forwarding to an ordered list of observers.

    The engines hold exactly one of these, so the hot loop pays one
    attribute lookup regardless of how many metrics are attached.
    """

    def __init__(self, observers: Iterable = ()) -> None:
        self._observers: List = []
        for obs in observers:
            self.add(obs)

    def add(self, observer) -> None:
        """Attach *observer*; bare callables are wrapped automatically."""
        if hasattr(observer, "observe"):
            self._observers.append(observer)
        elif callable(observer):
            self._observers.append(BatchedCallbackObserver(observer))
        else:
            raise ConfigurationError(
                f"observer must implement .observe(t, loads) or be callable, got {observer!r}"
            )

    def observe(self, round_index: int, loads: np.ndarray) -> None:
        for obs in self._observers:
            obs.observe(round_index, loads)

    def __len__(self) -> int:
        return len(self._observers)

    def __iter__(self):
        return iter(self._observers)

    @property
    def is_empty(self) -> bool:
        return not self._observers

    @staticmethod
    def coerce(observers) -> "BatchedObserverList":
        """Normalize ``None`` / a single observer / a sequence into a list."""
        if observers is None:
            return BatchedObserverList()
        if isinstance(observers, BatchedObserverList):
            return observers
        if hasattr(observers, "observe") or callable(observers):
            return BatchedObserverList([observers])
        if isinstance(observers, (Sequence, Iterable)):
            return BatchedObserverList(observers)
        raise ConfigurationError(f"cannot interpret {observers!r} as observers")
