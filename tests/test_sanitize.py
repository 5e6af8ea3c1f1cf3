"""Sanitizer build-variant tests: REPRO_SANITIZE parsing, the flag
ladder, cache fingerprint/filename isolation, and (where the toolchain
cooperates) actually compiling and loading instrumented kernels."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import native
from repro.core.native import (
    SANITIZE_MODES,
    _FLAG_VARIANTS,
    _KERNEL,
    _fingerprint,
    _variant_ladder,
    sanitize_mode,
)
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _isolate_kernel_cache(monkeypatch):
    """Keep the in-process kernel cache out of cross-test state."""
    saved = dict(native._CACHE)
    yield
    native._CACHE.clear()
    native._CACHE.update(saved)


def _sanitizer_runtime(lib: str):
    cc = native._compiler()
    if cc is None:
        return None
    proc = subprocess.run(
        [cc, f"-print-file-name={lib}"], capture_output=True, text=True
    )
    path = proc.stdout.strip()
    if proc.returncode != 0 or not path or path == lib:
        return None
    resolved = Path(path)
    return resolved if resolved.exists() else None


def _python_survives_preload(runtime: Path) -> bool:
    """Some containers segfault any TSan-preloaded process (mmap layout)."""
    env = dict(os.environ)
    env["LD_PRELOAD"] = str(runtime)
    env["ASAN_OPTIONS"] = "detect_leaks=0"
    proc = subprocess.run(
        [sys.executable, "-c", "print('ok')"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    return proc.returncode == 0 and "ok" in proc.stdout


class TestMode:
    def test_unset_means_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize_mode() is None

    @pytest.mark.parametrize("mode", sorted(SANITIZE_MODES))
    def test_valid_modes(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_SANITIZE", mode)
        assert sanitize_mode() == mode

    def test_mode_is_case_insensitive(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", " ASan ")
        assert sanitize_mode() == "asan"

    def test_invalid_mode_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "msan")
        with pytest.raises(ConfigurationError, match="REPRO_SANITIZE"):
            sanitize_mode()

    def test_catalog_covers_the_three_sanitizers(self):
        assert set(SANITIZE_MODES) == {"asan", "ubsan", "tsan"}
        for flags in SANITIZE_MODES.values():
            assert any(f.startswith("-fsanitize=") for f in flags)

    def test_ubsan_checks_float_to_int_casts(self):
        """GCC's -fsanitize=undefined leaves float-cast-overflow out, so
        an out-of-range double -> int conversion in a kernel would pass
        the UBSan leg silently unless the flag is named."""
        flags = SANITIZE_MODES["ubsan"]
        assert "-fsanitize=undefined" in flags
        assert "-fsanitize=float-cast-overflow" in flags


class TestLadder:
    def test_no_mode_is_the_fast_ladder(self):
        assert _variant_ladder(None) == _FLAG_VARIANTS

    @pytest.mark.parametrize("mode", sorted(SANITIZE_MODES))
    def test_every_variant_carries_the_mode_flags(self, mode):
        extra = SANITIZE_MODES[mode]
        for flags in _variant_ladder(mode):
            assert flags[-len(extra):] == extra

    def test_tsan_drops_march_native(self):
        for flags in _variant_ladder("tsan"):
            assert "-march=native" not in flags

    def test_asan_keeps_march_native(self):
        assert any("-march=native" in flags for flags in _variant_ladder("asan"))

    def test_tsan_ladder_has_no_duplicates(self):
        ladder = _variant_ladder("tsan")
        assert len(ladder) == len(set(ladder))


class TestCacheIsolation:
    def test_fingerprints_differ_per_flag_variant(self):
        spec = _KERNEL
        fast = _fingerprint(spec, "cc", _FLAG_VARIANTS[0])
        sanitized = _fingerprint(spec, "cc", _variant_ladder("asan")[0])
        assert fast != sanitized

    def test_fingerprints_differ_per_mode(self):
        spec = _KERNEL
        prints = {
            mode: _fingerprint(spec, "cc", _variant_ladder(mode)[0])
            for mode in SANITIZE_MODES
        }
        prints["fast"] = _fingerprint(spec, "cc", _FLAG_VARIANTS[0])
        assert len(set(prints.values())) == len(prints)

    def test_in_process_cache_is_keyed_by_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        native._CACHE.clear()
        native.native_status("rbb")
        assert None in native._CACHE
        monkeypatch.setenv("REPRO_SANITIZE", "msan")
        with pytest.raises(ConfigurationError):
            native.native_status("rbb")


@pytest.mark.skipif(native._compiler() is None, reason="no C compiler")
class TestSanitizedBuilds:
    def test_ubsan_kernel_compiles_and_loads(self, monkeypatch):
        if _sanitizer_runtime("libubsan.so") is None:
            pytest.skip("toolchain has no UBSan runtime")
        monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
        native._CACHE.clear()
        status = native.native_status("rbb")
        assert native.native_available("rbb"), status
        assert "[sanitize=ubsan]" in status
        assert "ensemble_kernel-ubsan-" in status

    def test_ubsan_results_match_fast_build(self, monkeypatch):
        if _sanitizer_runtime("libubsan.so") is None:
            pytest.skip("toolchain has no UBSan runtime")
        from repro.core.batched import BatchedRepeatedBallsIntoBins

        def run():
            native._CACHE.clear()
            engine = BatchedRepeatedBallsIntoBins(n_bins=16, n_replicas=4, seed=123)
            result = engine.run(rounds=64)
            return result.final_loads.copy()

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        if not native.native_available("rbb"):
            pytest.skip(native.native_status("rbb"))
        fast = run()
        monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
        sanitized = run()
        assert (fast == sanitized).all()

    def test_asan_kernel_loads_under_preload(self, monkeypatch):
        runtime = _sanitizer_runtime("libasan.so")
        if runtime is None:
            pytest.skip("toolchain has no ASan runtime")
        if not _python_survives_preload(runtime):
            pytest.skip("python does not survive ASan preload here")
        env = dict(os.environ)
        env.update(
            {
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "REPRO_SANITIZE": "asan",
                "LD_PRELOAD": str(runtime),
                "ASAN_OPTIONS": "detect_leaks=0",
            }
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.core.native import native_available, native_status\n"
                "status = native_status('rbb')\n"
                "assert native_available('rbb'), status\n"
                "assert '[sanitize=asan]' in status, status\n"
                "print(status)",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr or proc.stdout

    def test_tsan_kernel_loads_under_preload(self, monkeypatch):
        runtime = _sanitizer_runtime("libtsan.so")
        if runtime is None:
            pytest.skip("toolchain has no TSan runtime")
        if not _python_survives_preload(runtime):
            pytest.skip("python does not survive TSan preload here (mmap layout)")
        env = dict(os.environ)
        env.update(
            {
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "REPRO_SANITIZE": "tsan",
                "REPRO_NATIVE_THREADS": "2",
                "LD_PRELOAD": str(runtime),
            }
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.core.native import native_available, native_status\n"
                "status = native_status('rbb')\n"
                "assert native_available('rbb'), status\n"
                "assert '[sanitize=tsan]' in status, status\n"
                "assert '-march=native' not in status, status\n"
                "print(status)",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr or proc.stdout

    def test_sanitized_binaries_never_shadow_fast(self, monkeypatch):
        if _sanitizer_runtime("libubsan.so") is None:
            pytest.skip("toolchain has no UBSan runtime")
        monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
        native._CACHE.clear()
        sanitized_status = native.native_status("rbb")
        monkeypatch.delenv("REPRO_SANITIZE")
        native._CACHE.clear()
        fast_status = native.native_status("rbb")
        if "compiled with" in fast_status:
            assert "sanitize" not in fast_status
            assert fast_status != sanitized_status
