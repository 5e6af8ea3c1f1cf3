"""The shared window-metric run loop.

:func:`run_window` is the single implementation of the per-round
reduction — running max load, running min empty-bin count, first
legitimate round, optional per-replica early stop — that the batched
processes' numpy path runs (the native kernels compute the same
reduction in C).

The loop also drives observers: every ``observe_every`` executed rounds
(and after the final executed round) the attached
:class:`~repro.metrics.base.BatchedObserverList` sees
``(round_index, loads)`` with the engine's current ``(R, n)`` state, where
``round_index`` is the global round counter of the most-advanced replica.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .base import BatchedObserverList
from ..errors import ConfigurationError

__all__ = ["run_window"]


def run_window(
    process,
    rounds: int,
    threshold: float,
    stop_when_legitimate: bool = False,
    first_legit: Optional[np.ndarray] = None,
    observers=None,
    observe_every: int = 1,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Advance ``process`` up to ``rounds`` rounds, reducing window metrics.

    ``process`` exposes the batched stepping surface (``step``, ``loads``,
    ``active``, ``rounds_completed``, ``deactivate``).  ``first_legit``
    may be a pre-seeded ``(R,)`` vector (the batched pre-check writes into
    it); it is updated in place.

    Returns ``(max_seen, min_empty, first_legit, executed)`` where the
    first two are per-replica reductions over the rounds each replica
    actually executed and ``executed`` counts loop iterations (rounds in
    which at least one replica stepped).
    """
    if rounds < 0:
        raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
    if observe_every < 1:
        raise ConfigurationError(
            f"observe_every must be >= 1, got {observe_every}"
        )
    obs = BatchedObserverList.coerce(observers)
    R, n = process.n_replicas, process.n_bins
    if first_legit is None:
        first_legit = np.full(R, -1, dtype=np.int64)
    max_seen = np.zeros(R, dtype=np.int64)
    min_empty = np.full(R, n, dtype=np.int64)
    executed = 0
    for _ in range(rounds):
        stepped = process.active
        if not stepped.any():
            break
        loads = process.step()
        executed += 1
        current_max = loads.max(axis=1)
        current_empty = (loads == 0).sum(axis=1)
        np.maximum(max_seen, current_max, out=max_seen, where=stepped)
        np.minimum(min_empty, current_empty, out=min_empty, where=stepped)
        newly = stepped & (first_legit < 0) & (current_max <= threshold)
        if newly.any():
            first_legit[newly] = process.rounds_completed[newly]
            if stop_when_legitimate:
                process.deactivate(newly)
        if not obs.is_empty and (
            executed % observe_every == 0
            or executed == rounds
            or not process.active.any()
        ):
            obs.observe(int(process.rounds_completed.max()), loads)
    return max_seen, min_empty, first_legit, executed
