"""Replayable counterexample artifacts — the harness's TLC error traces.

When a conformance gate or a trace invariant fails, the harness does not
just raise: it writes a self-contained JSON artifact to ``.verify/`` that
pins down *everything* needed to reproduce the failure —

* the fully resolved :class:`~repro.parallel.ensemble.EnsembleSpec`
  field assignment (the same canonical encoding the sweep store hashes),
* the engine coordinates (engine, kernel, thread count, fusion, workers),
* the root seed entropy, so the exact random streams regenerate,
* the violation itself: for statistical failures the observed-vs-exact
  table; for invariant failures a minimized round-by-round state diff of
  the offending replica, truncated at the first violating round.

``repro verify --replay <artifact.json>`` re-runs exactly that check —
one command from a CI log to a local reproduction.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "CounterexampleArtifact",
    "DEFAULT_ARTIFACT_DIR",
    "write_artifact",
    "load_artifact",
    "list_artifacts",
]

#: Default directory conformance/trace failures are written to.
DEFAULT_ARTIFACT_DIR = ".verify"

_FORMAT_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays into JSON-encodable values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class CounterexampleArtifact:
    """One reproducible failure of a conformance gate or trace invariant.

    Attributes
    ----------
    kind:
        ``"conformance"`` (a statistical gate fired) or ``"invariant"``
        (a machine-checked trace invariant was violated).
    case:
        The case name from the catalog (or a free-form description).
    check:
        Which gate/invariant failed (e.g. ``"state@t=4"``,
        ``"ball_conservation"``).
    seed_entropy, seed_spawn_key:
        Root seed entropy and spawn key of the failing run's
        :class:`~numpy.random.SeedSequence`; replay reconstructs the
        sequence from both, so derived case seeds round-trip exactly.
    spec:
        Fully resolved engine-spec field assignment (JSON scalars only).
    engine:
        Engine coordinates: kernel/n_threads/fused/n_workers plus
        any runner-specific knobs.
    violation:
        Check-specific evidence: observed vs expected tables for
        statistical gates; ``{round, replica, trace}`` state diffs for
        invariants.
    """

    kind: str
    case: str
    check: str
    seed_entropy: int
    spec: Dict[str, Any]
    engine: Dict[str, Any]
    violation: Dict[str, Any] = field(default_factory=dict)
    seed_spawn_key: List[int] = field(default_factory=list)
    format_version: int = _FORMAT_VERSION

    def seed_sequence(self) -> np.random.SeedSequence:
        """The exact seed sequence of the failing run."""
        return np.random.SeedSequence(
            entropy=self.seed_entropy, spawn_key=tuple(self.seed_spawn_key)
        )

    def to_json(self) -> str:
        payload = _jsonable(asdict(self))
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CounterexampleArtifact":
        version = data.get("format_version", 0)
        if version != _FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported artifact format_version {version!r} "
                f"(this build reads {_FORMAT_VERSION})"
            )
        return cls(
            kind=data["kind"],
            case=data["case"],
            check=data["check"],
            seed_entropy=int(data["seed_entropy"]),
            spec=dict(data["spec"]),
            engine=dict(data["engine"]),
            violation=dict(data.get("violation", {})),
            seed_spawn_key=[int(k) for k in data.get("seed_spawn_key", [])],
        )

    def replay_command(self, path: str) -> str:
        """The one command that reproduces this failure."""
        return f"repro verify --replay {path}"


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in text)[:80]


def write_artifact(
    artifact: CounterexampleArtifact,
    directory: Optional[str] = None,
) -> str:
    """Write one artifact; returns its path.

    File names are deterministic in (case, check) and disambiguated with
    a counter, so repeated runs never clobber earlier evidence.
    """
    directory = directory or DEFAULT_ARTIFACT_DIR
    os.makedirs(directory, exist_ok=True)
    base = f"{_slug(artifact.case)}__{_slug(artifact.check)}"
    path = os.path.join(directory, f"{base}.json")
    counter = 1
    while os.path.exists(path):
        path = os.path.join(directory, f"{base}.{counter}.json")
        counter += 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(artifact.to_json())
        handle.write("\n")
    return path


def load_artifact(path: str) -> CounterexampleArtifact:
    """Read an artifact back for replay."""
    if not os.path.exists(path):
        raise ConfigurationError(f"artifact not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return CounterexampleArtifact.from_dict(data)


def list_artifacts(directory: Optional[str] = None) -> List[str]:
    """All artifact paths under ``directory``, sorted."""
    directory = directory or DEFAULT_ARTIFACT_DIR
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".json")
    )
