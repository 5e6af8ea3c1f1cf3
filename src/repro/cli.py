"""Command-line interface: ``python -m repro`` or the ``repro`` console script.

Sub-commands
------------
``list``
    Show every registered experiment with its claim and default parameters.
``run EXPERIMENT_ID``
    Run one experiment and print its result table; optionally write JSON/CSV.
``describe EXPERIMENT_ID``
    Show the full spec of one experiment.
``report``
    Run a set of experiments and write an EXPERIMENTS.md-style report.
``sweep run|resume|status|query|list``
    Declarative parameter sweeps with a durable result store: run a
    catalogued or JSON-file sweep into a store directory, resume a killed
    sweep without re-running completed points, inspect completion state,
    and query stored point summaries as tables.
``verify``
    Exact-chain conformance harness: drive every engine coordinate
    (kernel x threads x fusion x workers) at small ``n`` and
    gate its empirical distributions against the exactly enumerated
    Markov chains of ``repro.markov``.  Failures write replayable
    counterexample artifacts; ``--replay`` re-runs one from its file.
``scenario run|list|validate``
    Round-clock scenarios (``repro.scenarios``): list the named catalog,
    validate a scenario spelling (catalog name, ``name:key=value`` or
    inline JSON) and show its expanded event schedule, or run one
    against an ensemble and print the recovery summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .experiments import (
    available_experiments,
    format_table,
    get_experiment,
    run_experiment,
    save_result_csv,
    save_result_json,
)
from .errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Self-stabilizing repeated balls-into-bins' "
            "(Becchetti et al.)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    describe = sub.add_parser("describe", help="show one experiment's spec")
    describe.add_argument("experiment_id", help="experiment id, e.g. E1")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id", help="experiment id, e.g. E1")
    run.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    run.add_argument(
        "--param",
        "-p",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a default parameter (VALUE is parsed as JSON, e.g. -p sizes='[64,128]')",
    )
    run.add_argument("--json", dest="json_path", default=None, help="write the result as JSON")
    run.add_argument("--csv", dest="csv_path", default=None, help="write the rows as CSV")
    run.add_argument(
        "--markdown", action="store_true", help="print a markdown table instead of plain text"
    )

    report = sub.add_parser(
        "report", help="run a set of experiments and write a markdown report (EXPERIMENTS.md style)"
    )
    report.add_argument("--out", default="EXPERIMENTS.md", help="output path (default EXPERIMENTS.md)")
    report.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    report.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="ID",
        help="restrict to a subset of experiment ids (default: all)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="declarative parameter sweeps with a durable, resumable result store",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_sub.add_parser("list", help="list catalogued sweeps")

    sweep_run = sweep_sub.add_parser(
        "run", help="run a sweep into a fresh store directory"
    )
    sweep_run.add_argument(
        "name",
        nargs="?",
        default=None,
        help="catalogued sweep name (see `repro sweep list`); omit with --spec-file",
    )
    sweep_run.add_argument(
        "--spec-file",
        default=None,
        help="JSON file holding a SweepSpec (alternative to a catalogued name)",
    )
    sweep_run.add_argument(
        "--store", required=True, help="store directory (created; must not exist)"
    )
    sweep_run.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    sweep_run.add_argument(
        "--kernel",
        choices=["auto", "numpy", "native"],
        default="auto",
        help="batched-engine kernel (default auto)",
    )
    sweep_run.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool workers sharding each point's replicas (default 0 = in-process)",
    )
    sweep_run.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help=(
            "native-kernel threads per shard (default: REPRO_NATIVE_THREADS, "
            "then the visible core count); results are identical for any "
            "value, and workers x threads is capped to the visible cores"
        ),
    )
    sweep_run.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="stop after newly running this many points (resume later)",
    )
    sweep_run.add_argument(
        "--metrics",
        default=None,
        metavar="NAMES",
        help=(
            "observed metrics collected at every point, as comma-separated "
            "tracker names (e.g. max_load,legitimacy); per-replica "
            "series/summaries land in the point shards and streaming "
            "summaries in the manifest"
        ),
    )
    sweep_run.add_argument(
        "--observe-every",
        type=int,
        default=None,
        metavar="STRIDE",
        help=(
            "observation stride for --metrics (default 1); the native "
            "kernel runs in segments of this length between observations"
        ),
    )

    sweep_resume = sweep_sub.add_parser(
        "resume",
        help="continue a stored sweep from its own header; re-runs nothing",
    )
    sweep_resume.add_argument("--store", required=True, help="existing store directory")
    sweep_resume.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="stop after newly running this many points",
    )

    sweep_status_p = sweep_sub.add_parser(
        "status", help="show a stored sweep's completion state"
    )
    sweep_status_p.add_argument("--store", required=True, help="existing store directory")

    sweep_query = sweep_sub.add_parser(
        "query", help="query stored point summaries as a table"
    )
    sweep_query.add_argument("--store", required=True, help="existing store directory")
    sweep_query.add_argument(
        "--where",
        "-w",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "exact-match filter on a config field (aliases n/m/R accepted; "
            "VALUE parsed as JSON), e.g. -w process=faulty -w n=1024"
        ),
    )
    sweep_query.add_argument(
        "--columns",
        nargs="*",
        default=None,
        metavar="COL",
        help="explicit column list (default: a compact summary set)",
    )
    sweep_query.add_argument(
        "--markdown", action="store_true", help="print a markdown table"
    )
    sweep_query.add_argument(
        "--csv", dest="csv_path", default=None, help="also write the rows as CSV"
    )

    scenario = sub.add_parser(
        "scenario",
        help="round-clock scenarios: composite, time-varying workloads",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_sub.add_parser("list", help="list the named scenario catalog")

    scenario_validate = scenario_sub.add_parser(
        "validate",
        help="parse a scenario spelling and show its expanded event schedule",
    )
    scenario_validate.add_argument(
        "spec",
        help=(
            "catalog name (optionally name:key=value,...) or an inline "
            "JSON object"
        ),
    )
    scenario_validate.add_argument(
        "--rounds",
        type=int,
        default=None,
        metavar="T",
        help="expand periodic events over a T-round window (default: no expansion)",
    )

    scenario_run = scenario_sub.add_parser(
        "run", help="run a scenario against an ensemble and summarize recovery"
    )
    scenario_run.add_argument("spec", help="scenario spelling (as for validate)")
    scenario_run.add_argument("--n-bins", type=int, default=64, help="bins (default 64)")
    scenario_run.add_argument(
        "--replicas", type=int, default=256, help="independent replicas (default 256)"
    )
    scenario_run.add_argument(
        "--rounds", type=int, default=128, help="rounds to simulate (default 128)"
    )
    scenario_run.add_argument(
        "--process",
        choices=["rbb", "d_choices", "graph_walks"],
        default="rbb",
        help="process family (default rbb; faulty is spelled as adversary events)",
    )
    scenario_run.add_argument(
        "--topology", default=None, help="graph_walks topology, e.g. cycle:64"
    )
    scenario_run.add_argument(
        "--start", default="balanced", help="start family (default balanced)"
    )
    scenario_run.add_argument(
        "--metrics",
        default=None,
        metavar="NAMES",
        help="comma-separated metric names observed during the run",
    )
    scenario_run.add_argument(
        "--observe-every", type=int, default=1, metavar="STRIDE",
        help="observation stride (default 1)",
    )
    scenario_run.add_argument(
        "--kernel", choices=["auto", "numpy", "native"], default="auto"
    )
    scenario_run.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    scenario_run.add_argument(
        "--json", dest="json_path", default=None, help="write the summary as JSON"
    )

    verify = sub.add_parser(
        "verify",
        help="conformance-check every engine against the exact small-n chains",
    )
    verify.add_argument(
        "--level",
        choices=["smoke", "full"],
        default="smoke",
        help="smoke = the fast CI gate; full = the pre-merge cross product",
    )
    verify.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    verify.add_argument(
        "--only",
        default=None,
        metavar="SUBSTR",
        help=(
            "restrict to cases whose name contains SUBSTR (thresholds stay "
            "those of the unfiltered run)"
        ),
    )
    verify.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="directory for counterexample artifacts (default .verify)",
    )
    verify.add_argument(
        "--no-artifacts",
        action="store_true",
        help="do not write counterexample artifacts on failure",
    )
    verify.add_argument(
        "--replay",
        default=None,
        metavar="ARTIFACT",
        help="re-run exactly the failing check recorded in an artifact JSON",
    )
    verify.add_argument(
        "--list", action="store_true", help="list the catalog cases and exit"
    )

    lint = sub.add_parser(
        "lint",
        help="run the project-invariant linter and the C<->ctypes ABI check",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="directory tree for the AST rules (default: the repro package)",
    )
    lint.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids/slugs (default: all rules)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def _parse_overrides(pairs: List[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"parameter override {pair!r} must look like KEY=VALUE")
        key, raw = pair.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # fall back to the raw string (e.g. adversary=concentrate)
        overrides[key] = value
    return overrides


def _cmd_list() -> int:
    rows = [
        {
            "id": spec.experiment_id,
            "claim": spec.claim,
            "title": spec.title,
        }
        for spec in available_experiments()
    ]
    print(format_table(rows, columns=["id", "claim", "title"]))
    return 0


def _cmd_describe(experiment_id: str) -> int:
    spec = get_experiment(experiment_id)
    print(f"{spec.experiment_id}: {spec.title}")
    print(f"  claim          : {spec.claim}")
    print(f"  expected shape : {spec.expected_shape}")
    print("  default params :")
    for key, value in spec.default_params.items():
        print(f"    {key} = {value!r}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = _parse_overrides(args.param)
    result = run_experiment(args.experiment_id, params=overrides or None, seed=args.seed)
    style = "markdown" if args.markdown else "text"
    title = f"{result.spec.experiment_id}: {result.spec.title} ({result.spec.claim})"
    print(format_table(result.rows, style=style, title=title))
    for note in result.notes:
        print(f"note: {note}")
    if args.json_path:
        path = save_result_json(result, args.json_path)
        print(f"wrote {path}")
    if args.csv_path:
        path = save_result_csv(result, args.csv_path)
        print(f"wrote {path}")
    return 0


#: Compact default column set for `repro sweep query` (full rows carry
#: every config field plus mean/std/min/max per metric).
_QUERY_COLUMNS = [
    "index",
    "n_bins",
    "n_replicas",
    "rounds",
    "process",
    "topology",
    "d",
    "adversary",
    "fault_period",
    "window_max_load_mean",
    "window_max_load_max",
    "min_empty_bins_min",
    "converged_fraction",
]


def _load_sweep_spec(args: argparse.Namespace):
    from .sweeps import SweepSpec, get_sweep

    if (args.name is None) == (args.spec_file is None):
        raise ReproError(
            "provide exactly one of a catalogued sweep name or --spec-file "
            "(see `repro sweep list`)"
        )
    if args.spec_file is not None:
        path = Path(args.spec_file)
        if not path.exists():
            raise ReproError(f"sweep spec file {path} does not exist")
        return SweepSpec.from_dict(json.loads(path.read_text()))
    return get_sweep(args.name)


def _print_sweep_report(report) -> None:
    print(
        f"sweep {report.spec.name!r}: {report.n_run} point(s) run, "
        f"{report.n_skipped} already done, {report.n_remaining} remaining "
        f"({report.engine_seconds:.2f}s engine / "
        f"{report.elapsed_seconds:.2f}s total)"
    )


def _cmd_sweep_list() -> int:
    from .sweeps import available_sweeps, get_sweep

    rows = []
    for name in available_sweeps():
        spec = get_sweep(name)
        rows.append(
            {
                "name": name,
                "points": spec.n_points,
                "description": spec.description,
            }
        )
    print(format_table(rows, columns=["name", "points", "description"]))
    return 0


def _with_observation(spec, metrics: Optional[str], observe_every: Optional[int]):
    """Fold the CLI observation flags into a sweep spec's shared base.

    The modified spec is what gets pinned into the store header, so a
    ``repro sweep resume`` keeps collecting the same observed metrics
    without the flags being repeated.
    """
    if metrics is None and observe_every is None:
        return spec
    import dataclasses

    base = dict(spec.base)
    if metrics is not None:
        base["metrics"] = metrics
    if observe_every is not None:
        base["observe_every"] = observe_every
    return dataclasses.replace(spec, base=base)


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from .store import ResultStore
    from .sweeps import run_sweep

    spec = _with_observation(
        _load_sweep_spec(args), args.metrics, args.observe_every
    )
    store_dir = Path(args.store)
    if (store_dir / ResultStore.HEADER_NAME).exists():
        raise ReproError(
            f"store {store_dir} already exists; continue it with "
            f"`repro sweep resume --store {store_dir}`"
        )
    if (store_dir / ResultStore.MANIFEST_NAME).exists():
        raise ReproError(
            f"{store_dir} holds a manifest but no {ResultStore.HEADER_NAME} "
            "(incomplete or damaged store); it cannot be resumed — pick a "
            "fresh --store directory"
        )
    report = run_sweep(
        spec,
        store_dir,
        seed=args.seed,
        kernel=args.kernel,
        n_workers=args.workers,
        n_threads=args.threads,
        max_points=args.max_points,
        progress=print,
    )
    _print_sweep_report(report)
    return 0


def _cmd_sweep_resume(args: argparse.Namespace) -> int:
    from .sweeps import resume_sweep

    report = resume_sweep(args.store, max_points=args.max_points, progress=print)
    _print_sweep_report(report)
    return 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from .sweeps import sweep_status

    status = sweep_status(args.store)
    state = "finished" if status.finished else "in progress"
    print(
        f"sweep {status.name!r}: {status.n_completed}/{status.n_points} "
        f"point(s) completed ({state})"
    )
    if status.pending_indexes:
        pending = ", ".join(str(i) for i in status.pending_indexes[:16])
        more = "" if status.n_remaining <= 16 else ", ..."
        print(f"pending point index(es): {pending}{more}")
    return 0


def _cmd_sweep_query(args: argparse.Namespace) -> int:
    from .experiments.tables import rows_to_csv
    from .store import ResultStore

    store = ResultStore.open(args.store)
    filters = _parse_overrides(args.where)
    table = store.select(**filters)
    if not table.rows:
        print("(no matching points)")
        return 0
    columns = args.columns if args.columns else _QUERY_COLUMNS
    style = "markdown" if args.markdown else "text"
    print(format_table(table.rows, columns=columns, style=style))
    if args.csv_path:
        path = Path(args.csv_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rows_to_csv(table.rows))
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.sweep_command == "list":
        return _cmd_sweep_list()
    if args.sweep_command == "run":
        return _cmd_sweep_run(args)
    if args.sweep_command == "resume":
        return _cmd_sweep_resume(args)
    if args.sweep_command == "status":
        return _cmd_sweep_status(args)
    if args.sweep_command == "query":
        return _cmd_sweep_query(args)
    raise ReproError(f"unknown sweep command {args.sweep_command!r}")


def _cmd_scenario_list() -> int:
    from .scenarios import available_scenarios

    rows = [
        {"name": name, "default schedule": description}
        for name, description in sorted(available_scenarios().items())
    ]
    print(format_table(rows, columns=["name", "default schedule"]))
    print(
        "\nuse name:key=value,... to override parameters, or pass an "
        "inline JSON object (see `repro scenario validate`)"
    )
    return 0


def _cmd_scenario_validate(args: argparse.Namespace) -> int:
    from .scenarios import resolve_scenario

    scenario = resolve_scenario(args.spec)
    label = scenario.name or "(inline)"
    print(f"scenario {label}: {len(scenario.events)} event(s)")
    if scenario.description:
        print(f"  {scenario.description}")
    print(f"  canonical JSON: {scenario.to_json()}")
    if args.rounds is not None:
        expanded = scenario.expand_events(args.rounds)
        print(f"  expanded over {args.rounds} rounds: {len(expanded)} firing(s)")
        for when, event in expanded:
            payload = {
                key: getattr(event, key)
                for key in ("count", "adversary", "topology", "value")
                if getattr(event, key) is not None
            }
            detail = ", ".join(f"{k}={v}" for k, v in payload.items())
            print(f"    round {when:>6}: {event.kind}({detail})")
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    import numpy as np

    from .parallel.ensemble import EnsembleSpec, run_ensemble

    config = dict(
        n_bins=args.n_bins,
        n_replicas=args.replicas,
        rounds=args.rounds,
        start=args.start,
        scenario=args.spec,
        observe_every=args.observe_every,
    )
    if args.process != "rbb":
        config["process"] = args.process
    if args.topology is not None:
        config["topology"] = args.topology
    if args.metrics is not None:
        config["metrics"] = args.metrics
    spec = EnsembleSpec(**config)
    scenario = spec.resolved_scenario()
    result = run_ensemble(spec, seed=args.seed, kernel=args.kernel)
    label = scenario.name or "(inline)"
    summary = {
        "scenario": label,
        "events": len(scenario.expand_events(args.rounds)),
        "n_bins": args.n_bins,
        "n_replicas": args.replicas,
        "rounds": args.rounds,
        "final_balls_mean": float(np.mean(result.final_loads.sum(axis=1))),
        "window_max_load_mean": float(np.mean(result.max_load_seen)),
        "window_max_load_max": int(np.max(result.max_load_seen)),
        "min_empty_bins_min": int(np.min(result.min_empty_bins_seen)),
        "converged_fraction": result.converged_fraction,
    }
    print(format_table([summary], columns=list(summary)))
    for name, payload in sorted(result.metrics.items()):
        print(
            f"metric {name}: {payload.n_observations} observation(s) at "
            f"rounds {', '.join(str(int(r)) for r in payload.rounds[:8])}"
            + (" ..." if payload.n_observations > 8 else "")
        )
    if args.json_path:
        path = Path(args.json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        return _cmd_scenario_list()
    if args.scenario_command == "validate":
        return _cmd_scenario_validate(args)
    if args.scenario_command == "run":
        return _cmd_scenario_run(args)
    raise ReproError(f"unknown scenario command {args.scenario_command!r}")


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import (
        DEFAULT_ARTIFACT_DIR,
        build_cases,
        replay_artifact,
        run_conformance,
    )

    if args.replay is not None:
        report = replay_artifact(args.replay)
        print(report.render())
        return 0 if report.passed else 1
    if args.list:
        rows = [
            {
                "case": case.name,
                "engine": case.engine_label,
                "horizons": ",".join(str(h) for h in case.horizons),
                "ground_truth": case.ground_truth,
            }
            for case in build_cases(args.level)
        ]
        print(format_table(rows, columns=["case", "engine", "horizons", "ground_truth"]))
        return 0
    artifacts_dir = None if args.no_artifacts else (args.artifacts or DEFAULT_ARTIFACT_DIR)
    report = run_conformance(
        args.level, seed=args.seed, only=args.only, artifacts_dir=artifacts_dir
    )
    print(report.render())
    return 0 if report.passed else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import main as lint_main

    argv: List[str] = []
    if args.root is not None:
        argv += ["--root", args.root]
    if args.select is not None:
        argv += ["--select", args.select]
    argv += ["--format", args.format]
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import generate_full_report

    report = generate_full_report(experiment_ids=args.only, seed=args.seed)
    Path(args.out).write_text(report)
    print(f"wrote {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "describe":
            return _cmd_describe(args.experiment_id)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - argparse exits before reaching this


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
