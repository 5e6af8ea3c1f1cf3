#!/usr/bin/env python3
"""Render the generated documents under ``docs/`` from the live code.

Three documents are *generated*, so they can never drift from what the
code registers or enforces:

``EXPERIMENTS.md``
    The experiment catalog: every registered experiment's id, claim,
    expected shape, default parameters and report-scale overrides, plus
    the process families and the sweep-generated families.
``VERIFICATION.md``
    The conformance matrix: every :class:`repro.verify.ConformanceCase`
    with its engine coordinate, process, size, horizons and exact ground
    truth (:func:`repro.verify.render_verification_doc`).
``STATIC_ANALYSIS.md``
    The lint rule table, checked C symbol table and sanitizer matrix
    (:func:`repro.lint.doc.render_static_analysis_doc`).

CI runs ``--check``, which fails when any checked-in file is stale.

Usage::

    python scripts/generate_docs.py           # rewrite all three documents
    python scripts/generate_docs.py --check   # fail if any is stale
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import registry  # noqa: E402
from repro.experiments.report import report_scale_params  # noqa: E402
from repro.lint.doc import render_static_analysis_doc  # noqa: E402
from repro.parallel.ensemble import PROCESSES  # noqa: E402
from repro.sweeps import available_sweeps, expand_sweep, get_sweep  # noqa: E402
from repro.verify import render_verification_doc  # noqa: E402

DOCS_DIR = ROOT / "docs"

CATALOG_HEADER = """\
# Experiment catalog

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python scripts/generate_docs.py
     CI fails when this file is stale (--check). -->

Every quantitative claim of the paper is registered as an experiment; this
catalog is rendered from that registry
(`repro.experiments.registry`), so ids and parameters are always in sync
with the code.  Run any experiment with:

```bash
PYTHONPATH=src python -m repro run <ID> [-p KEY=VALUE ...]
```

`python -m repro report` runs experiments at *report scale* (the overrides
listed per experiment below) and writes their measured tables; this file
documents what exists, not one run's numbers.
"""


def _format_value(value) -> str:
    return f"`{value!r}`"


def render_catalog() -> str:
    """The full contents of ``docs/EXPERIMENTS.md``."""
    out = io.StringIO()
    out.write(CATALOG_HEADER)
    ids = registry.all_ids()
    out.write("\n## Index\n\n")
    out.write("| id | claim | title |\n")
    out.write("|---|---|---|\n")
    for experiment_id in ids:
        spec = registry.get(experiment_id).spec
        out.write(f"| {spec.experiment_id} | {spec.claim} | {spec.title} |\n")

    for experiment_id in ids:
        spec = registry.get(experiment_id).spec
        out.write(f"\n## {spec.experiment_id} — {spec.title}\n\n")
        out.write(f"- **Claim:** {spec.claim}\n")
        if spec.expected_shape:
            out.write(f"- **Expected shape:** {spec.expected_shape}\n")
        out.write("\n### Default parameters\n\n")
        out.write("| parameter | default |\n")
        out.write("|---|---|\n")
        for key, value in spec.default_params.items():
            out.write(f"| `{key}` | {_format_value(value)} |\n")
        overrides = report_scale_params(spec.experiment_id)
        if overrides:
            out.write("\n### Report-scale overrides\n\n")
            out.write("| parameter | report value |\n")
            out.write("|---|---|\n")
            for key, value in overrides.items():
                out.write(f"| `{key}` | {_format_value(value)} |\n")

    out.write("\n## Process families\n\n")
    out.write(
        "Ensemble experiments route through `run_ensemble`, whose "
        "`EnsembleSpec.process` selector accepts "
        + ", ".join(f"`{p}`" for p in PROCESSES)
        + ": the plain 1-choice repeated balls-into-bins process, the "
        "repeated Greedy[d] allocator, the plain process under the "
        "Section 4.1 adversarial fault model, and topology-constrained "
        "parallel walks on the graph named by `topology=` (e.g. "
        "`\"torus:32x32\"`).\n"
    )

    out.write("\n## Sweep-generated families\n\n")
    out.write(
        "The multi-point parameter families below are generated from "
        "declarative sweep specs (`repro.sweeps.catalog`): the sweep "
        "planner expands the grid and assigns grid-size-independent "
        "per-point seeds, and the same specs run standalone — with a "
        "durable, resumable result store — via "
        "`repro sweep run <name> --store DIR`.  The E9 and A2 experiment "
        "tables are built from these specs (A2 executes through the sweep "
        "scheduler and consumes the store's streaming summaries).\n\n"
    )
    out.write("| sweep | points | description |\n")
    out.write("|---|---|---|\n")
    for name in available_sweeps():
        sweep = get_sweep(name)
        out.write(
            f"| `{name}` | {expand_sweep(sweep).n_points} | "
            f"{sweep.description} |\n"
        )
    return out.getvalue()


#: Document file name -> renderer.
RENDERERS = {
    "EXPERIMENTS.md": render_catalog,
    "VERIFICATION.md": render_verification_doc,
    "STATIC_ANALYSIS.md": render_static_analysis_doc,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when a checked-in document differs from the "
        "rendered one (used by CI)",
    )
    parser.add_argument(
        "--docs-dir",
        default=str(DOCS_DIR),
        help=f"directory holding the documents (default {DOCS_DIR})",
    )
    args = parser.parse_args(argv)

    docs_dir = Path(args.docs_dir)
    stale = 0
    for name, render in RENDERERS.items():
        rendered = render()
        target = docs_dir / name
        if not args.check:
            docs_dir.mkdir(parents=True, exist_ok=True)
            target.write_text(rendered)
            print(f"wrote {target}")
        elif not target.exists() or target.read_text() != rendered:
            print(f"STALE: {target}; regenerate with `python scripts/generate_docs.py`")
            stale += 1
        else:
            print(f"{target} is up to date")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
