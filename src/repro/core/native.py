"""On-demand compilation and loading of the native batched kernel.

One C kernel ships with the package: ``ensemble_kernel.c`` (next to this
module), compiled once per source version into a shared library under the
user's cache directory and loaded through :mod:`ctypes`.  Its one entry
point, ``ensemble_run``, advances every process family with a compiled
round, each through its destination rule (``DEST_*`` below):

``"rbb"``
    The repeated balls-into-bins update driven by
    :class:`~repro.core.batched.BatchedRepeatedBallsIntoBins` (and the
    faulty process built on it): the implicit-clique rule.
``"walks"``
    The topology-constrained parallel-walk update driven by
    :class:`~repro.graphs.batched.BatchedConstrainedWalks`: the CSR rules.

:func:`get_kernel`, :func:`native_status` and friends take the process
family so callers can label what they run; both names resolve to the same
library.  The kernel includes ``_kernel_common.h`` (RNG, replica-axis
threading, fused observation) and is compiled against a ladder of flag
variants, best first::

    -O3 -march=native -funroll-loops -fopenmp        (OpenMP threading)
    -O3 -march=native -funroll-loops -DREPRO_PTHREADS -pthread
    -O3 -march=native -funroll-loops                 (serial)
    -O3 -fopenmp
    -O3 -DREPRO_PTHREADS -pthread
    -O3

Each variant gets its own cached binary, fingerprinted over the kernel
source, the shared header, the compiler, the exact flag list, and the
host identity — so changing any flag (or the header) can never reuse a
stale ``.so``.  A variant that fails to compile leaves a ``.failed``
marker next to where its binary would live and is skipped on subsequent
runs.  The loaded library is probed via ``repro_threading_model()`` to
report which threading backend it actually carries.

Everything is best-effort: when no C compiler is available, compilation
fails, or the environment variable ``REPRO_NATIVE=0`` disables the fast
path, callers fall back to the pure-numpy kernels — the semantic
reference implementations.

Thread-count resolution (:func:`resolve_n_threads`) has the precedence
explicit ``n_threads`` argument > ``REPRO_NATIVE_THREADS`` environment
variable > available CPU count, clamped to the replica count and forced
to 1 when the compiled kernel has no threading backend.  A run sharded
across worker processes asks :func:`shard_n_threads` for its per-shard
default instead, which keeps the environment variable first and splits
the CPU count between the shards.  Results are bit-identical for every
thread count, so this is purely a performance knob.

Sanitizer builds (``REPRO_SANITIZE=asan|ubsan|tsan``) compile every flag
variant with the matching ``-fsanitize=...`` flags appended (and
``-march=native`` dropped under TSan, whose instrumentation does not mix
well with aggressively vectorized code).  UBSan names
``-fsanitize=float-cast-overflow`` on its own because GCC's
``-fsanitize=undefined`` leaves it out.  Sanitized binaries live under
their own cache fingerprints *and* mode-tagged file names, so they can
never shadow — or be shadowed by — the fast binaries.  Loading an
ASan/TSan ``.so`` into a stock CPython requires the sanitizer runtime to
be preloaded; ``scripts/with_sanitizer.sh`` sets that up.

The ``ctypes`` signature of every exported kernel symbol is declared
once, as data, in :data:`KERNEL_ABI`; the loader applies it to the
loaded library and ``repro.lint.abi`` cross-checks it against the C
declarations themselves (arity, argument order, integer widths), so the
hand-maintained mirror cannot silently drift.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "native_available",
    "get_kernel",
    "native_status",
    "native_threading",
    "resolve_n_threads",
    "requested_n_threads",
    "shard_n_threads",
    "available_cpu_count",
    "sanitize_mode",
    "kernel_abi",
    "SymbolABI",
    "KERNEL_ABI",
    "KERNEL_NAMES",
    "DEST_CLIQUE",
    "DEST_CSR_ONE",
    "DEST_CSR_ALL",
    "SANITIZE_MODES",
    "THREAD_MODELS",
]

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: Shared header compiled into every kernel (threading + RNG runtime).
_COMMON_HEADER = _PACKAGE_ROOT / "core" / "_kernel_common.h"

#: repro_threading_model() return values -> human-readable backend names.
THREAD_MODELS: Dict[int, str] = {0: "serial", 1: "pthreads", 2: "openmp"}


@dataclass(frozen=True)
class SymbolABI:
    """The declared ``ctypes`` signature of one exported kernel symbol.

    This is the Python side of the C ABI, kept as *data* so that the
    loader (:func:`get_kernel`) and the static cross-checker
    (:mod:`repro.lint.abi`) share one source of truth.  ``source`` names
    the C file whose ``REPRO_ABI``-marked definition must agree with it.
    """

    name: str
    argtypes: Tuple[object, ...]
    restype: Optional[object]
    source: Path


_SOURCE = _PACKAGE_ROOT / "core" / "ensemble_kernel.c"

#: Destination rules of ``ensemble_run`` (the ``DEST_*`` enum of the C
#: source): the implicit clique of repeated balls-into-bins, one token per
#: non-empty CSR node (constrained walks), every token along the CSR
#: (unconstrained walks).
DEST_CLIQUE, DEST_CSR_ONE, DEST_CSR_ALL = 0, 1, 2

_RUN_ABI = SymbolABI(
    name="ensemble_run",
    argtypes=(
        ctypes.POINTER(ctypes.c_int32),  # loads (R, n)
        ctypes.c_int64,  # R
        ctypes.c_int64,  # n
        ctypes.c_int64,  # rounds
        ctypes.POINTER(ctypes.c_uint64),  # rng_state (R, 4)
        ctypes.c_double,  # threshold
        ctypes.c_int,  # stop_when_legitimate
        ctypes.POINTER(ctypes.c_int32),  # max_seen (R,)
        ctypes.POINTER(ctypes.c_int32),  # min_empty_seen (R,)
        ctypes.POINTER(ctypes.c_int64),  # first_legit (R,)
        ctypes.POINTER(ctypes.c_int64),  # rounds_done (R,)
        ctypes.POINTER(ctypes.c_uint8),  # active (R,)
        ctypes.c_int,  # rule (DEST_*)
        ctypes.POINTER(ctypes.c_int32),  # neighbors (E,) or None
        ctypes.POINTER(ctypes.c_int64),  # offsets (n + 1,) or None
        ctypes.POINTER(ctypes.c_int32),  # degrees (n,) or None
        ctypes.POINTER(ctypes.c_uint32),  # lims (n,) or None
        ctypes.POINTER(ctypes.c_int32),  # scratch (n_threads, n) or None
        ctypes.POINTER(ctypes.c_int32),  # sources (n_threads, n) or None
        ctypes.c_int32,  # n_threads
        ctypes.c_int64,  # observe_every
        ctypes.c_int64,  # n_obs
        ctypes.POINTER(ctypes.c_int32),  # obs_max (n_obs, R) or None
        ctypes.POINTER(ctypes.c_int32),  # obs_empty (n_obs, R) or None
        ctypes.POINTER(ctypes.c_int64),  # obs_sum (n_obs, R) or None
        ctypes.POINTER(ctypes.c_int64),  # obs_sumsq (n_obs, R) or None
        ctypes.c_int64,  # hist_cap
        ctypes.POINTER(ctypes.c_int64),  # obs_hist (R, hist_cap + 1) or None
        ctypes.POINTER(ctypes.c_int64),  # obs_overflow (R,) or None
    ),
    restype=None,
    source=_SOURCE,
)

_PROBE_ABI = SymbolABI(
    name="repro_threading_model",
    argtypes=(),
    restype=ctypes.c_int,
    source=_COMMON_HEADER,
)

#: Every exported symbol of the compiled kernel, by name.  The lint ABI
#: checker walks this mapping and verifies each entry against the
#: ``REPRO_ABI``-marked C definition in ``SymbolABI.source``.
KERNEL_ABI: Dict[str, SymbolABI] = {
    abi.name: abi for abi in (_RUN_ABI, _PROBE_ABI)
}


def kernel_abi() -> Dict[str, SymbolABI]:
    """The declared C entry points, by symbol name (a defensive copy)."""
    return dict(KERNEL_ABI)


def _declare(lib: ctypes.CDLL, abi: SymbolABI):
    """Apply one symbol's declared signature to a loaded library.

    A missing symbol raises ``AttributeError`` — that is an ABI bug
    (kernel and loader out of sync), not a recoverable condition.
    """
    fn = getattr(lib, abi.name)
    fn.argtypes = list(abi.argtypes)
    fn.restype = abi.restype
    return fn


@dataclass(frozen=True)
class _KernelSpec:
    source: Path
    abi: SymbolABI
    headers: Tuple[Path, ...] = (_COMMON_HEADER,)


@dataclass(frozen=True)
class _LoadedKernel:
    """A resolved kernel: its entry point (or None) plus diagnostics."""

    fn: Optional[object]
    status: str
    threading: str  # "openmp" | "pthreads" | "serial" | "unavailable"


_KERNEL = _KernelSpec(source=_SOURCE, abi=_RUN_ABI)

#: Process families the kernel runs; the ``kernel`` argument of
#: :func:`get_kernel` and friends names one of them, and every name
#: resolves to the same library.
KERNEL_NAMES: Tuple[str, ...] = ("rbb", "walks")

#: The loaded library per sanitize mode (``None``: the fast build).
_CACHE: Dict[Optional[str], _LoadedKernel] = {}


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro-native"


def _compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


#: Optimization/threading flag variants, best first.  The threaded
#: variants come before their serial siblings so threading is lost only
#: when neither OpenMP nor pthreads links on this toolchain.
_FAST = ["-march=native", "-funroll-loops"]
_OPENMP = ["-fopenmp"]
_PTHREADS = ["-DREPRO_PTHREADS", "-pthread"]
_FLAG_VARIANTS: Tuple[Tuple[str, ...], ...] = tuple(
    tuple(flags)
    for flags in (
        _FAST + _OPENMP,
        _FAST + _PTHREADS,
        _FAST,
        _OPENMP,
        _PTHREADS,
        [],
    )
)

#: ``REPRO_SANITIZE`` modes -> the flags appended to every variant.
#: ``-fno-omit-frame-pointer`` keeps sanitizer stack traces readable.
SANITIZE_MODES: Dict[str, Tuple[str, ...]] = {
    "asan": ("-fsanitize=address", "-fno-omit-frame-pointer"),
    "ubsan": (
        "-fsanitize=undefined",
        "-fsanitize=float-cast-overflow",
        "-fno-sanitize-recover=all",
        "-fno-omit-frame-pointer",
    ),
    "tsan": ("-fsanitize=thread", "-fno-omit-frame-pointer"),
}


def sanitize_mode() -> Optional[str]:
    """The active ``REPRO_SANITIZE`` mode, or ``None`` for fast builds."""
    raw = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    if not raw:
        return None
    if raw not in SANITIZE_MODES:
        raise ConfigurationError(
            f"REPRO_SANITIZE must be one of {', '.join(SANITIZE_MODES)} "
            f"(or unset), got {raw!r}"
        )
    return raw


def _variant_ladder(mode: Optional[str]) -> Tuple[Tuple[str, ...], ...]:
    """The flag-variant ladder for one sanitize mode (best first).

    Sanitized variants append the mode's ``-fsanitize=...`` flags to every
    fast variant; under TSan ``-march=native`` is dropped (TSan's
    instrumentation of aggressively vectorized code is a known source of
    false positives and miscompiles on older toolchains).  Duplicates
    created by the drop collapse, preserving order.
    """
    if mode is None:
        return _FLAG_VARIANTS
    extra = SANITIZE_MODES[mode]
    ladder: List[Tuple[str, ...]] = []
    for flags in _FLAG_VARIANTS:
        if mode == "tsan":
            flags = tuple(f for f in flags if f != "-march=native")
        variant = tuple(flags) + extra
        if variant not in ladder:
            ladder.append(variant)
    return tuple(ladder)


def _fingerprint(spec: _KernelSpec, cc: str, flags: Tuple[str, ...]) -> str:
    """Cache key for one (kernel, compiler, flag-variant, host) binary.

    The exact flag list is part of the key, so changing the variant
    ladder (e.g. adding ``-fopenmp``) can never silently reuse a binary
    compiled without it; the shared header is hashed alongside the
    kernel source because it is compiled into the binary; the host
    identity is included because ``-march=native`` builds are not
    portable across CPUs (e.g. a shared ``$HOME`` on a heterogeneous
    cluster).
    """
    digest = hashlib.sha256(spec.source.read_bytes())
    for header in spec.headers:
        digest.update(header.read_bytes())
    digest.update(cc.encode())
    digest.update("\x1f".join(flags).encode())
    digest.update(platform.machine().encode())
    digest.update(platform.processor().encode())
    digest.update(platform.node().encode())
    return digest.hexdigest()[:16]


def _compile(
    spec: _KernelSpec, out: Path, cc: str, flags: Tuple[str, ...]
) -> None:
    """Compile one flag variant of the kernel into ``out`` (atomically)."""
    out.parent.mkdir(parents=True, exist_ok=True)
    include_dirs = sorted({str(h.parent) for h in spec.headers})
    cmd = (
        [cc, "-O3", "-shared", "-fPIC"]
        + list(flags)
        + [f"-I{d}" for d in include_dirs]
        + [str(spec.source), "-o"]
    )
    with tempfile.NamedTemporaryFile(
        dir=out.parent, suffix=".so", delete=False
    ) as tmp:
        tmp_path = Path(tmp.name)
    proc = subprocess.run(
        cmd + [str(tmp_path)], capture_output=True, text=True, timeout=120
    )
    if proc.returncode == 0:
        os.replace(tmp_path, out)  # atomic: concurrent builds are safe
        return
    tmp_path.unlink(missing_ok=True)
    raise subprocess.CalledProcessError(
        proc.returncode, cmd, output=proc.stdout, stderr=proc.stderr
    )


def _describe_error(exc: BaseException) -> str:
    """One-line diagnostic for a failed compile/load attempt."""
    if isinstance(exc, subprocess.CalledProcessError):
        detail = (exc.stderr or "").strip()[:500]
        return f"compilation failed: {detail or exc}"
    return str(exc)


def _probe_threading(lib: ctypes.CDLL) -> str:
    """Which threading backend the loaded binary was compiled with."""
    probe = _declare(lib, _PROBE_ABI)
    return THREAD_MODELS.get(int(probe()), "serial")


def _load(mode: Optional[str]) -> _LoadedKernel:
    spec = _KERNEL
    if os.environ.get("REPRO_NATIVE", "").strip() == "0":
        return _LoadedKernel(None, "disabled via REPRO_NATIVE=0", "unavailable")
    missing = [
        p for p in (spec.source, *spec.headers) if not p.exists()
    ]
    if missing:
        return _LoadedKernel(
            None, f"kernel source missing: {missing[0]}", "unavailable"
        )
    cc = _compiler()
    if cc is None:
        return _LoadedKernel(
            None,
            "no C compiler found (set CC or install cc/gcc/clang)",
            "unavailable",
        )
    last_error = "no flag variant compiled"
    for flags in _variant_ladder(mode):
        fingerprint = _fingerprint(spec, cc, flags)
        stem = spec.source.stem if mode is None else f"{spec.source.stem}-{mode}"
        lib_path = _cache_dir() / f"{stem}-{fingerprint}.so"
        marker = lib_path.with_suffix(".failed")
        # Compilation can fail (CalledProcessError/TimeoutExpired) and a
        # cached or fresh binary can fail to load (OSError, e.g. a missing
        # sanitizer runtime); both legitimately fall through to the next
        # flag variant.  Anything else — in particular AttributeError from
        # a symbol the loader declares but the kernel no longer exports —
        # is a programming error and surfaces immediately.
        try:
            if not lib_path.exists():
                if marker.exists():
                    continue  # this variant is known not to compile here
                _compile(spec, lib_path, cc, flags)
            lib = ctypes.CDLL(str(lib_path))
        except (subprocess.SubprocessError, OSError) as exc:
            last_error = _describe_error(exc)
            try:
                marker.parent.mkdir(parents=True, exist_ok=True)
                marker.write_text(last_error[:2000])
            except OSError:
                pass
            continue
        kernel = _declare(lib, spec.abi)
        threading = _probe_threading(lib)
        flag_label = " ".join(flags) if flags else "(base flags)"
        sanitize_label = "" if mode is None else f" [sanitize={mode}]"
        return _LoadedKernel(
            kernel,
            f"compiled with {cc} {flag_label} [{threading}]"
            f"{sanitize_label} -> {lib_path}",
            threading,
        )
    return _LoadedKernel(
        None, f"native kernel unavailable: {last_error}", "unavailable"
    )


def _resolve(name: str) -> _LoadedKernel:
    if name not in KERNEL_NAMES:
        raise KeyError(
            f"unknown native kernel {name!r}; available: {', '.join(KERNEL_NAMES)}"
        )
    mode = sanitize_mode()
    if mode not in _CACHE:
        _CACHE[mode] = _load(mode)
    return _CACHE[mode]


def native_available(kernel: str = "rbb") -> bool:
    """Whether the compiled kernel is usable in this process."""
    return _resolve(kernel).fn is not None


def get_kernel(kernel: str = "rbb"):
    """The ``ctypes`` entry point ``ensemble_run``, or ``None``.

    ``kernel`` names the process family the caller runs (see
    :data:`KERNEL_NAMES`); every family gets the same entry point.
    """
    return _resolve(kernel).fn


def native_status(kernel: str = "rbb") -> str:
    """Human-readable availability message (for diagnostics and the CLI)."""
    return _resolve(kernel).status


def native_threading(kernel: str = "rbb") -> str:
    """Threading backend of the loaded kernel.

    One of ``"openmp"``, ``"pthreads"``, ``"serial"``, or
    ``"unavailable"`` (kernel not loaded at all).
    """
    return _resolve(kernel).threading


#: Whether this process has launched an OpenMP kernel on more than one
#: thread, and whether it was forked from one that had.  GNU libgomp's
#: worker pool does not survive ``fork()``: a forked child (a process-pool
#: shard) entering a multi-threaded parallel region again deadlocks, so
#: such a child runs its OpenMP kernels on one thread.
_openmp_pool_started = False
_openmp_pool_inherited = False


def _after_fork_in_child() -> None:
    global _openmp_pool_inherited
    _openmp_pool_inherited = _openmp_pool_inherited or _openmp_pool_started


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def available_cpu_count() -> int:
    """CPUs this process may use (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def requested_n_threads() -> Optional[int]:
    """The ``REPRO_NATIVE_THREADS`` override, or ``None`` when it is unset."""
    env = os.environ.get("REPRO_NATIVE_THREADS", "").strip()
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_NATIVE_THREADS must be an integer, got {env!r}"
        ) from None


def shard_n_threads(n_shards: int) -> int:
    """Default native threads per shard when a run uses ``n_shards`` processes.

    ``REPRO_NATIVE_THREADS`` wins; otherwise the available CPUs are split
    between the shards so shard processes and kernel threads do not
    oversubscribe the machine.
    """
    requested = requested_n_threads()
    if requested is not None:
        return requested
    return max(1, available_cpu_count() // max(int(n_shards), 1))


def resolve_n_threads(
    n_threads: Optional[int] = None,
    n_replicas: Optional[int] = None,
    kernel: str = "rbb",
) -> int:
    """Resolve the worker-thread count for one native kernel call.

    Precedence: explicit ``n_threads`` argument, then the
    ``REPRO_NATIVE_THREADS`` environment variable, then the available
    CPU count.  The result is clamped to ``n_replicas`` (extra threads
    would only idle) and forced to 1 when the compiled kernel has no
    threading backend, or when it is OpenMP and this process was forked
    from one whose OpenMP worker pool had started.  Thread count never
    changes results — replicas own disjoint state and RNG streams — so
    this is a pure performance knob and is deliberately *not* part of
    :class:`EnsembleSpec`.
    """
    global _openmp_pool_started
    if n_threads is None:
        n_threads = requested_n_threads()
    if n_threads is None:
        n_threads = available_cpu_count()
    n_threads = int(n_threads)
    if n_threads < 1:
        raise ConfigurationError(f"n_threads must be >= 1, got {n_threads}")
    threading = native_threading(kernel)
    if threading in ("serial", "unavailable") or (
        threading == "openmp" and _openmp_pool_inherited
    ):
        n_threads = 1
    if n_replicas is not None:
        n_threads = min(n_threads, max(int(n_replicas), 1))
    if threading == "openmp" and n_threads > 1:
        _openmp_pool_started = True
    return n_threads
