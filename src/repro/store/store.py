"""Durable, queryable result store for parameter sweeps.

A :class:`ResultStore` is an **append-only** record of completed sweep
points.  On disk it is a directory:

.. code-block:: text

    store/
      sweep.json         # header: the SweepSpec + root seed + engine config
      manifest.jsonl     # one JSON line per completed point, append-only
      shards/<id>.npz    # per-replica metric vectors, keyed by point id

Each manifest line carries the point's resolved configuration, its
content-hashed ``point_id``, the execution context (engine, kernel, root
seed entropy), and a *streaming* summary (Welford moments per metric, an
exact max-load tail histogram, the converged fraction).  Because the
summary is computed incrementally while the point is written and stored in
the manifest, queries and cross-point aggregation never load replica
vectors; the npz shards exist for the minority of analyses that do want
every replica.

Points run with an observed-metric selection (``EnsembleSpec.metrics``,
see :mod:`repro.metrics`) additionally carry, per observed metric, a
summary block under ``summary["observed"]`` — streaming moments of every
per-replica tracker summary, folded inline at write time through
:func:`repro.metrics.adapters.summarize_payloads` — while the full
per-replica series/arrays land in the point's npz shard under
``observed.<metric>.*`` keys.

The store is the sweep scheduler's checkpoint: the set of ``point_id``
values present in the manifest is exactly the set of completed points, so
a killed sweep resumes where it stopped.  Records are encoded canonically
(sorted keys, compact separators, ``allow_nan=False``), which makes
manifests byte-comparable across a run and its kill/resume counterpart.

An in-memory variant (:meth:`ResultStore.in_memory`) implements the same
interface without touching disk; experiments use it to run sweep-generated
parameter families without leaving files behind.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Union

import numpy as np

from .streaming import StreamingMoments, TailCounter
from ..core.batched import EnsembleResult
from ..errors import ConfigurationError
from ..parallel.ensemble import EnsembleSpec

__all__ = ["ResultStore", "PointTable", "canonical_json"]

PathLike = Union[str, Path]

#: Metric vectors extracted from an :class:`EnsembleResult`, in the order
#: they appear in flattened query rows and npz shards.
METRICS = (
    "window_max_load",
    "min_empty_bins",
    "first_legitimate_round",
    "rounds",
    "final_max_load",
    "final_empty_bins",
)

#: Replicas are folded into the streaming summary in chunks of this size,
#: so summarising arbitrarily large ensembles needs O(chunk) extra memory.
REPLICA_CHUNK = 1024

#: Filter aliases accepted by :meth:`ResultStore.select` (paper notation).
FILTER_ALIASES = {"n": "n_bins", "m": "n_balls", "R": "n_replicas"}

#: Canonical config-key order for flattened rows (EnsembleSpec field order).
_CONFIG_ORDER = tuple(f.name for f in dataclasses.fields(EnsembleSpec))


def canonical_json(payload: Any) -> str:
    """The canonical encoding used for manifest lines and content hashes."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _metric_vectors(result: EnsembleResult) -> Dict[str, np.ndarray]:
    return {
        "window_max_load": np.asarray(result.max_load_seen, dtype=np.int64),
        "min_empty_bins": np.asarray(result.min_empty_bins_seen, dtype=np.int64),
        "first_legitimate_round": np.asarray(
            result.first_legitimate_round, dtype=np.int64
        ),
        "rounds": np.asarray(result.rounds, dtype=np.int64),
        "final_max_load": np.asarray(result.final_max_load, dtype=np.int64),
        "final_empty_bins": np.asarray(result.final_empty_bins, dtype=np.int64),
    }


def _observed_arrays(result: EnsembleResult) -> Dict[str, np.ndarray]:
    """Flatten observed metric payloads into namespaced shard arrays."""
    arrays: Dict[str, np.ndarray] = {}
    for name, payload in result.metrics.items():
        arrays[f"observed.{name}.rounds"] = np.asarray(
            payload.rounds, dtype=np.int64
        )
        for key, series in payload.series.items():
            arrays[f"observed.{name}.series.{key}"] = np.asarray(series)
        for key, vector in payload.summaries.items():
            arrays[f"observed.{name}.summary.{key}"] = np.asarray(vector)
        for key, extra in payload.arrays.items():
            arrays[f"observed.{name}.array.{key}"] = np.asarray(extra)
    return arrays


def _streaming_summary(vectors: Mapping[str, np.ndarray]) -> Dict[str, Any]:
    """Fold replica vectors chunk-by-chunk into the manifest summary."""
    moments = {name: StreamingMoments() for name in METRICS}
    tail = TailCounter()
    n_replicas = int(next(iter(vectors.values())).size)
    converged = 0
    for lo in range(0, n_replicas, REPLICA_CHUNK):
        hi = min(lo + REPLICA_CHUNK, n_replicas)
        for name in METRICS:
            moments[name].update(vectors[name][lo:hi])
        tail.update(vectors["window_max_load"][lo:hi])
        converged += int(
            np.count_nonzero(vectors["first_legitimate_round"][lo:hi] >= 0)
        )
    return {
        "converged_fraction": converged / n_replicas if n_replicas else 0.0,
        "max_load_tail": tail.to_dict(),
        "metrics": {name: moments[name].to_dict() for name in METRICS},
    }


class PointTable:
    """Column-oriented view of a store query: one row per sweep point.

    ``rows`` are flat dictionaries (config fields plus scalar summary
    fields) in manifest order, directly consumable by
    :func:`repro.experiments.tables.format_table` and the CSV writer.
    """

    def __init__(self, records: Sequence[Mapping[str, Any]]):
        self.records = list(records)
        self.rows = [self._flatten(record) for record in self.records]

    @staticmethod
    def _flatten(record: Mapping[str, Any]) -> Dict[str, Any]:
        config = record["config"]
        row: Dict[str, Any] = {
            "index": record["index"],
            "point_id": record["point_id"],
        }
        for key in _CONFIG_ORDER:
            if key in config:
                row[key] = config[key]
        summary = record["summary"]
        row["converged_fraction"] = summary["converged_fraction"]
        for name in METRICS:
            moments = StreamingMoments.from_dict(summary["metrics"][name])
            row[f"{name}_mean"] = moments.mean
            row[f"{name}_std"] = moments.std(ddof=1)
            row[f"{name}_min"] = moments.minimum
            row[f"{name}_max"] = moments.maximum
        # observed-metric summaries (points run with EnsembleSpec.metrics)
        for name, entry in sorted(summary.get("observed", {}).items()):
            for key, payload_moments in sorted(entry.items()):
                moments = StreamingMoments.from_dict(payload_moments)
                row[f"{name}_{key}_mean"] = moments.mean
                row[f"{name}_{key}_max"] = moments.maximum
        return row

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        """One column across all rows, as an array."""
        if not self.rows:
            return np.asarray([])
        if name not in self.rows[0]:
            raise ConfigurationError(
                f"unknown column {name!r}; available: "
                f"{', '.join(sorted(self.rows[0]))}"
            )
        return np.asarray([row[name] for row in self.rows])

    def columns(self) -> Dict[str, np.ndarray]:
        if not self.rows:
            return {}
        return {name: self.column(name) for name in self.rows[0]}


class ResultStore:
    """Append-only sweep result store (on disk or in memory).

    Use :meth:`create` for a fresh on-disk store, :meth:`open` to attach
    to an existing one (resume / query), or :meth:`in_memory` for an
    ephemeral store with the identical interface.
    """

    HEADER_NAME = "sweep.json"
    MANIFEST_NAME = "manifest.jsonl"
    SHARD_DIR = "shards"

    def __init__(self, directory: Optional[Path], records: List[dict], lines: List[str]):
        self.directory = directory
        self._records = records
        self._lines = lines
        #: point_id -> manifest record, so appends and point lookups stay
        #: O(1) however many points the store holds.
        self._by_id: Dict[str, dict] = {r["point_id"]: r for r in records}
        self._shards: Dict[str, Dict[str, np.ndarray]] = {}
        self._header: Optional[dict] = None
        if directory is not None:
            header_path = directory / self.HEADER_NAME
            if header_path.exists():
                self._header = json.loads(header_path.read_text())

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def in_memory(cls) -> "ResultStore":
        """An ephemeral store that never touches the filesystem."""
        return cls(directory=None, records=[], lines=[])

    @classmethod
    def create(cls, directory: PathLike) -> "ResultStore":
        """Create a fresh on-disk store (refuses to reuse an existing one)."""
        directory = Path(directory)
        if (directory / cls.MANIFEST_NAME).exists() or (
            directory / cls.HEADER_NAME
        ).exists():
            raise ConfigurationError(
                f"store {directory} already exists; use ResultStore.open "
                "(or `repro sweep resume`) to continue it"
            )
        directory.mkdir(parents=True, exist_ok=True)
        (directory / cls.SHARD_DIR).mkdir(exist_ok=True)
        return cls(directory=directory, records=[], lines=[])

    @classmethod
    def open(cls, directory: PathLike) -> "ResultStore":
        """Attach to an existing on-disk store (for resume or queries)."""
        directory = Path(directory)
        if not (directory / cls.HEADER_NAME).exists():
            raise ConfigurationError(
                f"{directory} is not a sweep store (no {cls.HEADER_NAME}); "
                "create one with `repro sweep run`"
            )
        records, lines = cls._load_manifest(directory / cls.MANIFEST_NAME)
        (directory / cls.SHARD_DIR).mkdir(exist_ok=True)
        return cls(directory=directory, records=records, lines=lines)

    @staticmethod
    def _load_manifest(path: Path) -> "tuple[List[dict], List[str]]":
        """Parse the manifest, truncating a torn trailing line (kill mid-write)."""
        records: List[dict] = []
        lines: List[str] = []
        if not path.exists():
            return records, lines
        text = path.read_text()
        good_length = 0
        for raw in text.splitlines(keepends=True):
            if not raw.endswith("\n"):
                break  # torn write: no trailing newline
            try:
                records.append(json.loads(raw))
            except json.JSONDecodeError:
                break
            lines.append(raw)
            good_length += len(raw)
        if good_length != len(text):
            warnings.warn(
                f"store manifest {path} ends with a torn record; truncating "
                f"to the last {len(lines)} complete record(s)",
                RuntimeWarning,
                stacklevel=2,
            )
            path.write_text(text[:good_length])
        return records, lines

    # ------------------------------------------------------------------
    # Header (the sweep checkpoint context)
    # ------------------------------------------------------------------
    def write_header(self, header: Mapping[str, Any]) -> None:
        """Record the sweep context; idempotent, refuses a *different* one."""
        payload = json.loads(canonical_json(header))
        if self._header is not None:
            if self._header != payload:
                raise ConfigurationError(
                    "store already belongs to a different sweep (spec, seed, "
                    "or engine configuration differ); refusing to mix results"
                )
            return
        self._header = payload
        if self.directory is not None:
            (self.directory / self.HEADER_NAME).write_text(
                canonical_json(payload) + "\n"
            )

    def read_header(self) -> Optional[dict]:
        return None if self._header is None else dict(self._header)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def completed_point_ids(self) -> Set[str]:
        """Point ids already present in the manifest (the resume checkpoint)."""
        return set(self._by_id)

    def append_point(
        self,
        index: int,
        point_id: str,
        config: Mapping[str, Any],
        result: EnsembleResult,
        engine: str = "auto",
        kernel: str = "auto",
        seed_entropy: Optional[int] = None,
    ) -> dict:
        """Persist one completed point: shard first, then the manifest line."""
        if point_id in self._by_id:
            raise ConfigurationError(
                f"point {point_id} already recorded; the store is append-only"
            )
        vectors = _metric_vectors(result)
        shard_name = f"{self.SHARD_DIR}/{point_id}.npz"
        summary = _streaming_summary(vectors)
        if result.metrics:
            # summarize observed trackers inline (single streaming pass at
            # write time) so queries never re-read replica shards
            from ..metrics.adapters import summarize_payloads

            summary["observed"] = summarize_payloads(result.metrics)
        record = {
            "index": int(index),
            "point_id": point_id,
            "config": dict(config),
            "engine": engine,
            "kernel": kernel,
            "seed_entropy": seed_entropy,
            "n_bins": int(result.n_bins),
            "beta": float(result.beta),
            "shard": shard_name,
            "summary": summary,
        }
        line = canonical_json(record) + "\n"
        shard_arrays = {**vectors, **_observed_arrays(result)}
        if self.directory is None:
            self._shards[point_id] = shard_arrays
        else:
            shard_path = self.directory / shard_name
            tmp_path = shard_path.with_suffix(".npz.tmp")
            with tmp_path.open("wb") as handle:
                np.savez(handle, **shard_arrays)
            tmp_path.replace(shard_path)
            with (self.directory / self.MANIFEST_NAME).open("a") as handle:
                handle.write(line)
        self._records.append(json.loads(line))
        self._lines.append(line)
        self._by_id[point_id] = self._records[-1]
        return self._records[-1]

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[dict]:
        """Raw manifest records, in append order."""
        return list(self._records)

    def manifest_bytes(self) -> bytes:
        """The manifest's exact byte content (for resume-equality checks)."""
        if self.directory is not None:
            manifest = self.directory / self.MANIFEST_NAME
            return manifest.read_bytes() if manifest.exists() else b""
        return "".join(self._lines).encode()

    def _matches(self, record: Mapping[str, Any], filters: Mapping[str, Any]) -> bool:
        for key, wanted in filters.items():
            key = FILTER_ALIASES.get(key, key)
            if key in ("point_id", "index", "engine", "kernel"):
                actual = record.get(key)
            elif key in record["config"]:
                actual = record["config"][key]
            else:
                raise ConfigurationError(
                    f"unknown filter field {key!r}; filterable: point_id, "
                    "index, engine, kernel, and any config field "
                    f"({', '.join(sorted(record['config']))})"
                )
            if actual != wanted:
                return False
        return True

    def select(self, **filters: Any) -> PointTable:
        """Points whose config matches every filter, as a column table.

        Filters are exact-match on config fields (paper aliases ``n``,
        ``m``, ``R`` are accepted) plus ``point_id`` / ``index`` /
        ``engine`` / ``kernel``::

            store.select(process="faulty", n=1024)
        """
        return PointTable(
            [r for r in self._records if self._matches(r, filters)]
        )

    def replicas(self, point_id: str) -> Dict[str, np.ndarray]:
        """Load one point's per-replica metric vectors from its shard."""
        if self.directory is None:
            if point_id not in self._shards:
                raise ConfigurationError(f"unknown point id {point_id!r}")
            return {k: np.array(v, copy=True) for k, v in self._shards[point_id].items()}
        record = self._by_id.get(point_id)
        if record is None:
            raise ConfigurationError(f"unknown point id {point_id!r}")
        with np.load(self.directory / record["shard"]) as payload:
            return {name: np.array(payload[name]) for name in payload.files}

    def summarize(self, metric: str, **filters: Any) -> StreamingMoments:
        """Merge the selected points' streaming moments for one metric.

        Reads only manifest summaries — never the replica shards — so the
        cost is O(points), independent of ensemble sizes.
        """
        if metric not in METRICS:
            raise ConfigurationError(
                f"unknown metric {metric!r}; available: {', '.join(METRICS)}"
            )
        merged = StreamingMoments()
        for record in self.select(**filters).records:
            merged = merged.merged(
                StreamingMoments.from_dict(record["summary"]["metrics"][metric])
            )
        return merged

    def summarize_observed(
        self, metric: str, key: str, **filters: Any
    ) -> StreamingMoments:
        """Merge the selected points' *observed*-metric moments.

        ``metric`` / ``key`` name a tracker and one of its per-replica
        summaries (e.g. ``("legitimacy", "violations")``); points recorded
        without that observation are skipped.  Like :meth:`summarize`,
        this reads only manifest summaries.
        """
        from ..metrics.registry import METRIC_NAMES

        if metric not in METRIC_NAMES:
            raise ConfigurationError(
                f"unknown observed metric {metric!r}; available: "
                f"{', '.join(METRIC_NAMES)}"
            )
        merged = StreamingMoments()
        for record in self.select(**filters).records:
            entry = record["summary"].get("observed", {}).get(metric)
            if entry is None:
                continue
            if key not in entry:
                raise ConfigurationError(
                    f"observed metric {metric!r} has no summary {key!r}; "
                    f"available: {', '.join(sorted(entry))}"
                )
            merged = merged.merged(StreamingMoments.from_dict(entry[key]))
        return merged

    def max_load_tail(self, **filters: Any) -> TailCounter:
        """Merged max-load tail histogram of the selected points."""
        merged = TailCounter()
        for record in self.select(**filters).records:
            merged = merged.merged(
                TailCounter.from_dict(record["summary"]["max_load_tail"])
            )
        return merged
