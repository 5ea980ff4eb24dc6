"""Command line front end.

Subcommands:
    generate    build a scenario file from a preset or a config file
    solve       run one mechanism on a scenario file
    experiment  batch comparison of mechanisms over generated scenarios
    verify      audit rationality and bid sweeps, exit 1 on violation
    bench       runtime scaling table for the exact solver vs matching

Exit codes: 0 success, 1 property violation, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .model import scenario_dumps, scenario_loads, validate_scenario
from .generator import GenConfig, PRESET_NAMES, config_from_dict, generate, preset, validate_config
from .harness import (
    DEFAULT_BUDGET_SECS,
    MECHANISMS,
    bench_sweep,
    experiment,
    run_mechanism,
    run_to_doc,
    scenario_digest,
    verify_report,
)

__all__ = ["main", "entrypoint"]


def _write_json(path: Path, doc: dict | list) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    fields = list(rows[0].keys())
    with path.open("w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _load_scenario(path: str):
    s = scenario_loads(Path(path).read_text())
    problems = validate_scenario(s)
    if problems:
        raise ValueError(f"invalid scenario {path}: " + "; ".join(problems))
    return s


def _load_config(args) -> tuple[GenConfig, str | None]:
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        cfg = config_from_dict(doc)
        name = None
    else:
        cfg = preset(args.preset)
        name = args.preset
    problems = validate_config(cfg)
    if problems:
        raise ValueError("invalid generator config: " + "; ".join(problems))
    return cfg, name


def cmd_generate(args) -> int:
    cfg, _ = _load_config(args)
    s = generate(cfg, seed=args.seed)
    text = scenario_dumps(s)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(s.buyers)} buyers, {len(s.sellers)} sellers, digest {scenario_digest(s)})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args) -> int:
    s = _load_scenario(args.scenario)
    run = run_mechanism(s, args.mechanism, seed=args.seed, budget_secs=args.budget_secs)
    doc = run_to_doc(s, run)
    if args.out:
        _write_json(Path(args.out), doc)
    status = "ok" if run.success else ("budget exceeded" if run.truncated else "no feasible allocation")
    print(
        f"{args.mechanism}: {status}, objective {run.objective_value:.6f}, "
        f"{run.runtime_secs:.4f}s, {len(s.buyers)} buyers / {len(s.sellers)} sellers"
    )
    if run.payments:
        for sid, p in sorted(run.payments.items()):
            sel = s.seller(sid)
            print(f"  winner {sid.label()}: bid {sel.bid:.4f} payment {p:.4f} utility {p - sel.true_value:.4f}")
    return 0


def cmd_experiment(args) -> int:
    cfg, name = _load_config(args)
    summary, rows = experiment(
        cfg,
        trials=args.trials,
        base_seed=args.seed,
        budget_secs=args.budget_secs,
        preset_name=name,
    )
    out = Path(args.out)
    _write_json(out, summary)
    _write_csv(out.with_suffix(".csv"), rows)
    print(f"wrote {out} and {out.with_suffix('.csv')} ({args.trials} trials)")
    for mech, stats in summary["mechanisms"].items():
        mean = stats["mean_objective"]
        mean_txt = "n/a" if mean is None else f"{mean:.4f}"
        print(f"  {mech:8s} successes {stats['successes']:4d} mean objective {mean_txt}")
    for mech, pct in summary["improvement_over_baseline_pct"].items():
        if pct is not None:
            print(f"  maxuosg vs {mech}: {pct:+.2f}%")
    if summary["ir_violations"]:
        print(f"  {len(summary['ir_violations'])} rationality violations", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    s = _load_scenario(args.scenario)
    report, rows = verify_report(s, mechanism=args.mechanism, budget_secs=args.budget_secs)
    if args.out:
        out = Path(args.out)
        _write_json(out, report)
        _write_csv(out.with_suffix(".csv"), rows)
    if not report["success"]:
        status = "budget exceeded" if report["truncated"] else "no feasible allocation"
        print(f"{args.mechanism}: {status}, nothing to verify")
        return 0
    print(
        f"{args.mechanism}: objective {report['objective']:.6f}, "
        f"{len(report['winners'])} winners, {len(rows)} sweep rows"
    )
    if report["truncated"]:
        print(f"{args.mechanism}: budget exceeded before every sweep finished")
    for v in report["violations"]:
        print(f"  VIOLATION: {v}", file=sys.stderr)
    return 1 if report["violations"] else 0


def cmd_bench(args) -> int:
    rows = bench_sweep(
        args.job_type,
        args.sp_range,
        base_seed=args.seed,
        budget_secs=args.budget_secs,
    )
    out = Path(args.out)
    _write_json(out, rows)
    _write_csv(out.with_suffix(".csv"), rows)
    print(f"wrote {out} and {out.with_suffix('.csv')}")
    for r in rows:
        trunc = "" if r["enum_completed"] else " (budget hit)"
        print(
            f"  {r['sp_count']} providers: enumeration {r['enum_runtime_secs']:.4f}s{trunc}, "
            f"branch-and-bound {r['bnb_runtime_secs']:.4f}s, "
            f"maxuosg {r['maxuosg_runtime_secs']:.4f}s"
        )
    return 0


def _budget_secs(text: str) -> float:
    """A finite `--budget-secs` of at least 0: NaN or an infinity would never
    expire, and a negative budget is spent before the run starts."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number of seconds")
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is a negative number of seconds")
    return value


def _trials(text: str) -> int:
    """A `--trials` count of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive number of trials")
    return value


def _sp_range(text: str) -> list[int]:
    """A `--sp-range` LO:HI, inclusive, with LO <= HI, as its provider counts."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"{text} is not LO:HI")
    if int(lo) > int(hi):
        raise argparse.ArgumentTypeError(f"{text} is an empty range: LO is above HI")
    return list(range(int(lo), int(hi) + 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vcauction", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a scenario file")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--preset", choices=PRESET_NAMES, default="small")
    src.add_argument("--config", help="generator config JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output scenario path (stdout if omitted)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one mechanism on a scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--mechanism", choices=MECHANISMS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write result JSON here")
    p.add_argument("--budget-secs", type=_budget_secs, default=DEFAULT_BUDGET_SECS)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("experiment", help="batch mechanism comparison")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--preset", choices=PRESET_NAMES, default="small")
    src.add_argument("--config", help="generator config JSON file")
    p.add_argument("--trials", type=_trials, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="summary JSON path (CSV written beside it)")
    p.add_argument("--budget-secs", type=_budget_secs, default=DEFAULT_BUDGET_SECS)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="audit rationality and bid sweeps")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--mechanism", choices=("opt", "maxuosg"), default="maxuosg")
    p.add_argument("--out", help="report JSON path (CSV written beside it)")
    p.add_argument("--budget-secs", type=_budget_secs, default=DEFAULT_BUDGET_SECS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="runtime scaling table")
    p.add_argument("--job-type", type=int, default=2)
    p.add_argument(
        "--sp-range", type=_sp_range, default="1:5", help="provider counts LO:HI inclusive"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="rows JSON path (CSV written beside it)")
    p.add_argument("--budget-secs", type=_budget_secs, default=DEFAULT_BUDGET_SECS)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
