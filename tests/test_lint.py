"""Tests for the project linter (repro.lint): rules R1-R5, the ABI
cross-checker, pragma handling, the engine, and the CLI exit codes."""

import ast
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.native import KERNEL_ABI, SymbolABI, kernel_abi
from repro.lint import (
    Finding,
    RULE_IDS,
    RULES,
    check_abi,
    check_broad_except,
    check_observer_contracts,
    check_spec_contracts,
    check_unseeded_rng,
    check_wall_clock,
    collect_pragmas,
    compare_symbol,
    default_root,
    parse_exported_functions,
    rule_by_id,
    run_lint,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import normalize_selection

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
TREE = FIXTURES / "tree"
BAD_KERNEL = FIXTURES / "abi_bad_kernel.c"
REPO_ROOT = Path(__file__).resolve().parent.parent


def _keys(findings):
    return {(f.path, f.line, f.rule) for f in findings}


def _run_rule(checker, source, rel_path):
    tree = ast.parse(source)
    pragmas, pragma_findings = collect_pragmas(source, rel_path)
    assert pragma_findings == []
    return checker(tree, rel_path, pragmas)


# ---------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------
class TestCatalog:
    def test_rule_ids_cover_catalog(self):
        assert RULE_IDS == tuple(info.rule for info in RULES)
        assert set(RULE_IDS) == {"R1", "R2", "R3", "R4", "R5", "ABI"}

    def test_lookup_by_id_and_slug(self):
        assert rule_by_id("R5").slug == "broad-except"
        assert rule_by_id("broad-except").rule == "R5"
        assert rule_by_id("abi-drift").rule == "ABI"

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            rule_by_id("R99")

    def test_finding_render_format(self):
        f = Finding("a/b.py", 7, "R5", "broad-except", "msg")
        assert f.render() == "a/b.py:7: R5 [broad-except] msg"

    def test_findings_order_stably(self):
        a = Finding("a.py", 2, "R1", "unseeded-rng", "x")
        b = Finding("a.py", 10, "R1", "unseeded-rng", "x")
        c = Finding("b.py", 1, "R1", "unseeded-rng", "x")
        assert sorted([c, b, a]) == [a, b, c]

    def test_normalize_selection(self):
        assert normalize_selection(None) == RULE_IDS
        assert normalize_selection("R1,R5") == ("R1", "R5")
        assert normalize_selection(["abi-drift"]) == ("ABI",)
        with pytest.raises(KeyError):
            normalize_selection("R1,R99")


# ---------------------------------------------------------------------
# AST rules on the fixture tree
# ---------------------------------------------------------------------
class TestFixtureTree:
    def test_exact_findings(self):
        report = run_lint(root=TREE, select=["R1", "R2", "R5"])
        assert _keys(report.findings) == {
            ("bad_pragma.py", 7, "R0"),
            ("bad_pragma.py", 7, "R5"),
            ("bad_pragma.py", 14, "R0"),
            ("bad_pragma.py", 14, "R5"),
            ("bad_pragma.py", 21, "R0"),
            ("bad_pragma.py", 21, "R5"),
            ("broad.py", 7, "R5"),
            ("broad.py", 14, "R5"),
            ("core/unseeded.py", 9, "R1"),
            ("core/unseeded.py", 10, "R1"),
            ("core/unseeded.py", 11, "R1"),
            ("core/wall_clock.py", 9, "R2"),
            ("core/wall_clock.py", 10, "R2"),
            ("core/wall_clock.py", 11, "R2"),
        }
        assert not report.clean
        assert report.n_files == 6

    def test_r1_exemption_for_seeding_module(self):
        report = run_lint(root=TREE, select=["R1"])
        assert not any(f.path == "parallel/seeding.py" for f in report.findings)

    def test_r2_scope_excludes_top_level_modules(self):
        report = run_lint(root=TREE, select=["R2"])
        assert all(f.path.startswith("core/") for f in report.findings if f.rule == "R2")

    def test_valid_pragmas_suppress(self):
        report = run_lint(root=TREE, select=["R5"])
        assert not any(f.path == "suppressed.py" for f in report.findings)

    def test_malformed_pragmas_are_findings(self):
        report = run_lint(root=TREE, select=["R5"])
        r0 = [f for f in report.findings if f.rule == "R0"]
        assert _keys(r0) == {
            ("bad_pragma.py", 7, "R0"),
            ("bad_pragma.py", 14, "R0"),
            ("bad_pragma.py", 21, "R0"),
        }


# ---------------------------------------------------------------------
# alias-awareness of the AST rules (inline sources)
# ---------------------------------------------------------------------
class TestAliasResolution:
    def test_r1_sees_numpy_submodule_alias(self):
        findings = _run_rule(
            check_unseeded_rng,
            "import numpy.random as npr\nrng = npr.default_rng()\n",
            "core/x.py",
        )
        assert _keys(findings) == {("core/x.py", 2, "R1")}

    def test_r1_sees_renamed_from_import(self):
        findings = _run_rule(
            check_unseeded_rng,
            "from random import random as r\nvalue = r()\n",
            "core/x.py",
        )
        # the import line and the call line both fire
        assert _keys(findings) == {("core/x.py", 1, "R1"), ("core/x.py", 2, "R1")}

    def test_r1_allows_seeded_default_rng(self):
        findings = _run_rule(
            check_unseeded_rng,
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            "core/x.py",
        )
        assert findings == []

    def test_r2_sees_renamed_time_import(self):
        findings = _run_rule(
            check_wall_clock,
            "from time import time as now\nstamp = now()\n",
            "core/x.py",
        )
        assert _keys(findings) == {("core/x.py", 2, "R2")}

    def test_r2_allows_perf_counter(self):
        findings = _run_rule(
            check_wall_clock,
            "import time\nelapsed = time.perf_counter()\n",
            "core/x.py",
        )
        assert findings == []

    def test_r2_flags_secrets_import(self):
        findings = _run_rule(
            check_wall_clock, "import secrets\n", "metrics/x.py"
        )
        assert _keys(findings) == {("metrics/x.py", 1, "R2")}

    def test_r5_flags_broad_in_tuple(self):
        findings = _run_rule(
            check_broad_except,
            "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n",
            "x.py",
        )
        assert _keys(findings) == {("x.py", 3, "R5")}


# ---------------------------------------------------------------------
# contract rules R3/R4 against broken fakes
# ---------------------------------------------------------------------
class TestContracts:
    def test_r3_flags_non_scalar_field(self):
        import dataclasses

        @dataclasses.dataclass
        class BadSpec:
            n_bins: int = 8
            n_replicas: int = 2
            rounds: int = 4
            metrics: object = None
            observe_every: int = 0
            scenario: object = None
            payload: object = dataclasses.field(default_factory=dict)

        findings = check_spec_contracts(spec_cls=BadSpec, include_catalogs=False)
        assert findings, "a dict-valued field must fail R3"
        assert all(f.rule == "R3" for f in findings)

    def test_r3_clean_on_real_spec(self):
        assert check_spec_contracts() == []

    def test_r4_flags_missing_observe(self):
        class NoObserve:
            def bind(self, n_replicas, n_bins):
                pass

            def payload(self):
                return None

        findings = check_observer_contracts(factories={"fake": NoObserve})
        assert len(findings) == 1
        assert findings[0].rule == "R4"
        assert "observe" in findings[0].message

    def test_r4_flags_wrong_payload_type(self):
        class WrongPayload:
            def bind(self, n_replicas, n_bins):
                pass

            def observe(self, t, loads):
                pass

            def payload(self):
                return {"not": "a MetricPayload"}

        findings = check_observer_contracts(factories={"fake": WrongPayload})
        assert len(findings) == 1
        assert "MetricPayload" in findings[0].message

    def test_r4_clean_on_real_registry(self):
        assert check_observer_contracts() == []


# ---------------------------------------------------------------------
# ABI cross-checker
# ---------------------------------------------------------------------
def _bad_symbols(**entries):
    return {
        name: SymbolABI(name=name, argtypes=argtypes, restype=restype, source=BAD_KERNEL)
        for name, (argtypes, restype) in entries.items()
    }


class TestABI:
    def test_parses_all_real_exports(self):
        for abi in kernel_abi().values():
            exported = {
                f.name: f for f in parse_exported_functions(abi.source)
            }
            assert abi.name in exported, f"{abi.name} not parsed from {abi.source}"
            assert len(exported[abi.name].params) == len(abi.argtypes)

    def test_real_abi_is_clean(self):
        assert check_abi() == []

    def test_good_fixture_symbol_is_clean(self):
        symbols = _bad_symbols(
            good_fn=(
                (
                    ctypes.POINTER(ctypes.c_int32),
                    ctypes.c_int64,
                    ctypes.c_int64,
                ),
                None,
            ),
        )
        findings = check_abi(symbols)
        # only the orphaned C exports fire; good_fn itself is silent
        assert all("good_fn" not in f.message for f in findings)

    def test_c_int_vs_c_int32_do_not_false_positive(self):
        good = parse_exported_functions(BAD_KERNEL)
        by_name = {f.name: f for f in good}
        abi = SymbolABI(
            name="width_fn",
            argtypes=(ctypes.POINTER(ctypes.c_int32), ctypes.c_longlong),
            restype=None,
            source=BAD_KERNEL,
        )
        # int64_t == c_longlong on this platform: no width finding
        assert compare_symbol(by_name["width_fn"], abi) == []

    def test_arity_drift(self):
        symbols = _bad_symbols(
            arity_fn=((ctypes.POINTER(ctypes.c_int32), ctypes.c_int64), None),
        )
        findings = [f for f in check_abi(symbols) if "arity_fn" in f.message]
        assert len(findings) == 1
        assert "3 parameter(s)" in findings[0].message
        assert "2" in findings[0].message

    def test_width_drift(self):
        symbols = _bad_symbols(
            width_fn=((ctypes.POINTER(ctypes.c_int64), ctypes.c_int64), None),
        )
        findings = [f for f in check_abi(symbols) if "width_fn" in f.message]
        assert len(findings) == 1
        assert "parameter 0" in findings[0].message
        assert "int32" in findings[0].message and "int64" in findings[0].message

    def test_argument_order_drift(self):
        # C order is (int64_t n, int32_t *loads); mirror declares the swap
        symbols = _bad_symbols(
            order_fn=((ctypes.POINTER(ctypes.c_int32), ctypes.c_int64), None),
        )
        findings = [f for f in check_abi(symbols) if "order_fn" in f.message]
        assert len(findings) == 2
        assert any("parameter 0" in f.message for f in findings)
        assert any("parameter 1" in f.message for f in findings)

    def test_restype_drift(self):
        symbols = _bad_symbols(ret_fn=((), ctypes.c_int64))
        findings = [f for f in check_abi(symbols) if "ret_fn" in f.message]
        assert len(findings) == 1
        assert "returns" in findings[0].message

    def test_orphaned_c_export_is_flagged(self):
        symbols = _bad_symbols(ret_fn=((), ctypes.c_int32))
        findings = check_abi(symbols)
        orphans = [f for f in findings if "no ctypes declaration" in f.message]
        assert {f.message.split("'")[1] for f in orphans} >= {
            "good_fn",
            "orphan_fn",
        }
        # the unmarked static helper stays invisible
        assert all("helper" not in f.message for f in findings)

    def test_missing_c_definition_is_flagged(self):
        symbols = _bad_symbols(ghost_fn=((), None))
        findings = [f for f in check_abi(symbols) if "ghost_fn" in f.message]
        assert len(findings) == 1
        assert "no REPRO_ABI-marked definition" in findings[0].message

    def test_missing_source_file_is_flagged(self):
        symbols = {
            "gone": SymbolABI(
                name="gone",
                argtypes=(),
                restype=None,
                source=FIXTURES / "does_not_exist.c",
            )
        }
        findings = check_abi(symbols)
        assert len(findings) == 1
        assert "missing" in findings[0].message

    def test_real_kernel_argtypes_are_all_recognized(self):
        from repro.lint.abi import _desc_of_ctypes

        for abi in KERNEL_ABI.values():
            for argtype in abi.argtypes:
                assert _desc_of_ctypes(argtype) is not None, (
                    f"{abi.name}: unrecognized argtype {argtype!r}"
                )


# ---------------------------------------------------------------------
# engine + self-hosting
# ---------------------------------------------------------------------
class TestEngine:
    def test_repo_is_lint_clean(self):
        report = run_lint()
        assert report.clean, report.render()
        assert report.n_files > 50

    def test_default_root_is_the_package(self):
        assert default_root().name == "repro"
        assert (default_root() / "lint" / "engine.py").exists()

    def test_report_is_sorted_and_deduplicated(self):
        report = run_lint(root=TREE, select=["R1", "R2", "R5"])
        assert list(report.findings) == sorted(set(report.findings))

    def test_report_to_dict_round_trips_json(self):
        report = run_lint(root=TREE, select=["R5"])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["clean"] is False
        assert len(payload["findings"]) == len(report.findings)

    def test_syntax_error_is_a_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        report = run_lint(root=tmp_path, select=["R5"])
        assert _keys(report.findings) == {("broken.py", 1, "R0")}

    def test_pycache_is_skipped(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "ghost.py").write_text("import random\nrandom.random()\n")
        report = run_lint(root=tmp_path, select=["R1"])
        assert report.clean
        assert report.n_files == 0


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------
class TestCLI:
    def test_clean_repo_exits_zero(self, capsys):
        assert lint_main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fixture_tree_exits_one(self, capsys):
        code = lint_main(["--root", str(TREE), "--select", "R1,R2,R5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "core/unseeded.py:9" in out

    def test_json_format(self, capsys):
        code = lint_main(["--root", str(TREE), "--select", "R5", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["R5"]
        assert payload["clean"] is False

    def test_list_rules_exits_zero(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for info in RULES:
            assert info.rule in out
            assert info.slug in out

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--select", "R99"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_empty_select_exits_two(self):
        assert lint_main(["--select", " , "]) == 2

    def test_missing_root_exits_two(self):
        assert lint_main(["--root", str(TREE / "nope")]) == 2

    def test_bad_flag_exits_two(self):
        assert lint_main(["--format", "xml"]) == 2

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "abi-drift" in proc.stdout

    def test_umbrella_cli_subcommand(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "lint",
                "--root",
                str(TREE),
                "--select",
                "R5",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert "broad.py:7" in proc.stdout


class TestStaticAnalysisDoc:
    """The generated docs/STATIC_ANALYSIS.md stays wired to the catalogs."""

    def test_renderer_covers_every_rule(self):
        from repro.lint import render_static_analysis_doc

        doc = render_static_analysis_doc()
        for info in RULES:
            assert f"| {info.rule} |" in doc, info.rule
            assert info.slug in doc
        for symbol in kernel_abi():
            assert symbol in doc

    def test_renderer_covers_every_sanitize_mode(self):
        from repro.core.native import SANITIZE_MODES
        from repro.lint import render_static_analysis_doc

        doc = render_static_analysis_doc()
        for mode in SANITIZE_MODES:
            assert f"| {mode} |" in doc

    def test_checked_in_doc_is_current(self):
        from repro.lint import render_static_analysis_doc

        committed = REPO_ROOT / "docs" / "STATIC_ANALYSIS.md"
        assert committed.exists(), "docs/STATIC_ANALYSIS.md missing"
        assert committed.read_text() == render_static_analysis_doc(), (
            "docs/STATIC_ANALYSIS.md is stale; rerun "
            "scripts/generate_docs.py"
        )

    def test_generator_check_mode(self):
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "generate_docs.py"),
                "--check",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
