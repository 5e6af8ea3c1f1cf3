#!/usr/bin/env bash
# Run a command against the sanitizer-instrumented native kernel.
#
# Usage:
#   scripts/with_sanitizer.sh <asan|ubsan|tsan> <command...>
#   REPRO_SANITIZE=asan scripts/with_sanitizer.sh <command...>
#
# The script exports REPRO_SANITIZE (selecting the instrumented build
# variant in repro.core.native), resolves the sanitizer runtime that a
# stock CPython needs preloaded (ASan/TSan), sets sane *SAN_OPTIONS
# defaults, and then — before running anything — asserts that the kernel
# library actually loads instrumented.  A sanitizer leg that silently
# fell back to the numpy kernels would test nothing, so the fallback is
# an error here, never a skip.
#
# The probe and the command both run as children of a small Python
# driver rather than directly from this shell: TSan's startup is
# sensitive to the address-space layout it inherits, and spawning from a
# Python parent is the configuration that works reliably across the
# kernels/containers we run on.
#
# The caller provides PYTHONPATH (CI: PYTHONPATH=src).
set -euo pipefail

if [[ "${1:-}" =~ ^(asan|ubsan|tsan)$ ]]; then
    export REPRO_SANITIZE="$1"
    shift
fi
if [[ -z "${REPRO_SANITIZE:-}" || $# -eq 0 ]]; then
    echo "usage: with_sanitizer.sh <asan|ubsan|tsan> <command...>" >&2
    exit 2
fi

CC_BIN="${CC:-cc}"
runtime=""
case "$REPRO_SANITIZE" in
    asan)
        runtime="$("$CC_BIN" -print-file-name=libasan.so)"
        # The kernel is leak-checked by its own tests; Python's
        # allocator noise would drown real reports.
        export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"
        ;;
    ubsan)
        # UBSan's runtime links into the .so itself; no preload needed.
        export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
        ;;
    tsan)
        runtime="$("$CC_BIN" -print-file-name=libtsan.so)"
        export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
        ;;
    *)
        echo "with_sanitizer.sh: REPRO_SANITIZE must be asan, ubsan or tsan; got '$REPRO_SANITIZE'" >&2
        exit 2
        ;;
esac

if [[ -n "$runtime" ]]; then
    if [[ "$runtime" == lib*.so || ! -e "$runtime" ]]; then
        echo "with_sanitizer.sh: $CC_BIN has no runtime for $REPRO_SANITIZE (got '$runtime')" >&2
        exit 2
    fi
    export REPRO_SANITIZER_RUNTIME="$runtime"
fi

exec python - "$@" <<'PY'
import os
import subprocess
import sys

command = sys.argv[1:]
env = dict(os.environ)
runtime = env.pop("REPRO_SANITIZER_RUNTIME", "")
if runtime:
    tail = env.get("LD_PRELOAD")
    env["LD_PRELOAD"] = f"{runtime}:{tail}" if tail else runtime

probe = (
    "from repro.core.native import native_available, native_status, sanitize_mode\n"
    "status = native_status()\n"
    "assert native_available(), status\n"
    "assert f'[sanitize={sanitize_mode()}]' in status, status\n"
    "print(f'[with_sanitizer] {status}', flush=True)\n"
)
rc = subprocess.run([sys.executable, "-c", probe], env=env).returncode
if rc != 0:
    print("with_sanitizer.sh: instrumented kernel failed to load", file=sys.stderr)
    sys.exit(rc)
sys.exit(subprocess.run(command, env=env).returncode)
PY
