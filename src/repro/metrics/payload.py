"""Engine-agnostic containers for observed metric data.

A :class:`MetricPayload` is what one tracker hands back after a run: the
observed round indexes, optional time-major series, per-replica scalar
summaries, and per-replica auxiliary arrays.  Payloads are the currency the
ensemble engine moves around — they ride inside
:class:`~repro.core.batched.EnsembleResult`, concatenate across worker
shards, turn into columns in :func:`repro.parallel.aggregate.aggregate_ensemble`,
and are persisted by :class:`repro.store.store.ResultStore`.

Array-shape conventions
-----------------------
``series``
    Time-major: axis 0 is the observation index, axis 1 the replica
    (``(T, R)`` for scalar-per-replica series, ``(T, R, n)`` for traces).
``summaries``
    One scalar per replica: ``(R,)`` vectors, always numeric (booleans are
    stored as 0/1), so they can be summarized and tabulated directly.
``arrays``
    Replica-major extras that are neither time series nor scalars
    (histogram count matrices, per-bin first-emptying rounds): axis 0 is
    the replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = ["MetricPayload", "concatenate_payload_maps"]

#: Fill value for series entries of shards that stopped observing before the
#: longest shard (possible only for zero-observation shards; see
#: :meth:`MetricPayload.concatenate`).
SERIES_FILL = -1


@dataclass
class MetricPayload:
    """Observed data of one metric over one run (or one shard of a run)."""

    name: str
    rounds: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    summaries: Dict[str, np.ndarray] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_replicas(self) -> int:
        for vector in self.summaries.values():
            return int(np.asarray(vector).shape[0])
        for arr in self.arrays.values():
            return int(np.asarray(arr).shape[0])
        for arr in self.series.values():
            return int(np.asarray(arr).shape[1])
        return 0

    @property
    def n_observations(self) -> int:
        return int(np.asarray(self.rounds).size)

    @staticmethod
    def _pad_series(arr: np.ndarray, target: int) -> np.ndarray:
        """Extend a time-major series to ``target`` observations.

        Shards stop observing once every replica they own is frozen, at
        which point their state no longer changes — so repeating the last
        observed row is exact.  A shard with zero observations has no row
        to repeat and is padded with :data:`SERIES_FILL`.
        """
        arr = np.asarray(arr)
        have = arr.shape[0]
        if have >= target:
            return arr
        if have == 0:
            shape = (target,) + arr.shape[1:]
            return np.full(shape, SERIES_FILL, dtype=arr.dtype)
        pad = np.repeat(arr[-1:], target - have, axis=0)
        return np.concatenate([arr, pad], axis=0)

    @staticmethod
    def concatenate(payloads: Sequence["MetricPayload"]) -> "MetricPayload":
        """Stack shard payloads of one metric along the replica axis.

        Shards may have observed different numbers of rounds (early-stopped
        shards freeze and stop observing); shorter series are edge-padded to
        the longest shard's observation grid, whose round indexes are kept.
        """
        if not payloads:
            raise ConfigurationError("cannot concatenate zero metric payloads")
        head = payloads[0]
        for other in payloads[1:]:
            if other.name != head.name:
                raise ConfigurationError(
                    f"cannot concatenate payloads of different metrics: "
                    f"{head.name!r} vs {other.name!r}"
                )
            for slot in ("series", "summaries", "arrays"):
                if set(getattr(other, slot)) != set(getattr(head, slot)):
                    raise ConfigurationError(
                        f"metric {head.name!r} shards disagree on {slot} keys; "
                        "refusing to merge"
                    )
        longest = max(payloads, key=lambda p: p.n_observations)
        target = longest.n_observations
        return MetricPayload(
            name=head.name,
            rounds=np.array(longest.rounds, dtype=np.int64, copy=True),
            series={
                key: np.concatenate(
                    [MetricPayload._pad_series(p.series[key], target) for p in payloads],
                    axis=1,
                )
                for key in head.series
            },
            summaries={
                key: np.concatenate([np.asarray(p.summaries[key]) for p in payloads])
                for key in head.summaries
            },
            arrays={
                key: np.concatenate(
                    [np.asarray(p.arrays[key]) for p in payloads], axis=0
                )
                for key in head.arrays
            },
        )


def concatenate_payload_maps(
    maps: Sequence[Dict[str, MetricPayload]],
) -> Dict[str, MetricPayload]:
    """Merge per-shard ``{metric name: payload}`` dicts along replicas.

    Every shard must carry the same metric names (they come from one
    :class:`~repro.parallel.ensemble.EnsembleSpec`); an empty input or
    all-empty maps yield ``{}``.
    """
    non_empty: List[Dict[str, MetricPayload]] = [m for m in maps if m]
    if not non_empty:
        return {}
    names = set(non_empty[0])
    if len(non_empty) != len(maps) or any(set(m) != names for m in non_empty):
        raise ConfigurationError(
            "ensemble shards disagree on observed metric names; refusing to merge"
        )
    # iterate the first map, not the set, so the merged order (and so the
    # key order of store shards) does not depend on string hashing
    return {
        name: MetricPayload.concatenate([m[name] for m in maps])
        for name in non_empty[0]
    }
