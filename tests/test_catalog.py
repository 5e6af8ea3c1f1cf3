"""The generated docs must stay in sync with the code they are rendered from.

``docs/EXPERIMENTS.md``, ``docs/VERIFICATION.md`` and
``docs/STATIC_ANALYSIS.md`` are rendered by ``scripts/generate_docs.py``;
CI runs the same ``--check`` invocation, but keeping it in the tier-1
suite means a stale document fails fast locally too.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "generate_docs.py"


def test_catalog_is_up_to_date():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, (
        "a generated doc is stale — regenerate with "
        "`python scripts/generate_docs.py`\n"
        f"{proc.stdout}{proc.stderr}"
    )


def test_check_flags_a_stale_catalog(tmp_path):
    (tmp_path / "EXPERIMENTS.md").write_text("# outdated\n")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--check", "--docs-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 1
    assert "STALE" in proc.stdout
