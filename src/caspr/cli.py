"""Command-line entry point.

    caspr run <scenario> [--seed N] [--out DIR] [--trace] [--set k=v ...]
    caspr validate <scenario>
    caspr compare <run-dir> <run-dir> [...]
    caspr scenarios

A scenario argument is either a path to a YAML file or the bare name of
a bundled one.  Exit code 2 flags an invalid scenario or bad usage,
exit code 1 a run that violated a built-in invariant.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import metrics, runner, scenario


def _resolve(arg: str) -> str:
    if os.path.exists(arg):
        return arg
    bundled = scenario.bundled_path(arg)
    if bundled:
        return bundled
    names = ", ".join(scenario.bundled_names()) or "none bundled"
    raise scenario.ScenarioError(
        f"no scenario file {arg!r} (bundled: {names})")


def _cmd_run(args) -> int:
    cfg = scenario.load(_resolve(args.scenario), args.set or [])
    seeds = [args.seed] if args.seed is not None else None
    out_dir = args.out or os.path.join("runs", cfg.name)
    try:
        runner.run_scenario(cfg, out_dir, seeds=seeds, trace=args.trace)
    except runner.InvariantViolation as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return 1
    with open(os.path.join(out_dir, "summary.txt")) as f:
        print(f.read(), end="")
    print(f"artifacts in {out_dir}/")
    return 0


def _cmd_validate(args) -> int:
    cfg = scenario.load(_resolve(args.scenario), args.set or [])
    print(f"{cfg.name}: OK")
    return 0


def _load_all_row(run_dir: str) -> dict:
    path = os.path.join(run_dir, "summary.csv")
    try:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    except (OSError, UnicodeDecodeError) as e:
        raise scenario.ScenarioError(f"cannot read {path}: {e}")
    if not rows:
        raise scenario.ScenarioError(f"{path} is empty")
    schemas = {r.get("schema") for r in rows}
    if schemas != {metrics.SUMMARY_SCHEMA}:
        raise scenario.ScenarioError(
            f"{path}: schema {sorted(map(str, schemas))} does not match "
            f"{metrics.SUMMARY_SCHEMA}; regenerate the run")
    for row in rows:
        if row.get("seed") == "all":
            return row
    raise scenario.ScenarioError(f"{path} has no pooled 'all' row")


_COMPARE_FIELDS = ["scenario", "sent", "direct_lost", "recovery_rate",
                   "within_half_rtt_frac", "nacks_sent", "timer_nacks",
                   "gap_nacks", "failed_silent", "dc1_egress_bytes",
                   "dc2_egress_recovery_bytes", "dup_bytes"]


def _cmd_compare(args) -> int:
    rows = [_load_all_row(d) for d in args.run_dirs]
    width = max(len(f) for f in _COMPARE_FIELDS) + 2
    cols = [os.path.normpath(d) for d in args.run_dirs]
    col_w = [max(len(c), 14) + 2 for c in cols]
    line = "metric".ljust(width)
    for c, w in zip(cols, col_w):
        line += c.rjust(w)
    print(line)
    for name in _COMPARE_FIELDS:
        line = name.ljust(width)
        for row, w in zip(rows, col_w):
            line += row.get(name, "").rjust(w)
        print(line)
    return 0


def _cmd_scenarios(args) -> int:
    for name in scenario.bundled_names():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caspr",
        description="cloud-assisted packet recovery experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write artifacts")
    p_run.add_argument("scenario", help="YAML file or bundled scenario name")
    p_run.add_argument("--seed", type=int, help="run this single seed only")
    p_run.add_argument("--out", help="artifact directory (default runs/<name>)")
    p_run.add_argument("--trace", action="store_true",
                       help="write per-seed JSONL packet traces")
    p_run.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a scenario field, e.g. detector.kind=fixed_small")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")
    p_val.add_argument("--set", action="append", metavar="PATH=VALUE")
    p_val.set_defaults(func=_cmd_validate)

    p_cmp = sub.add_parser("compare", help="diff pooled summaries of run dirs")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.set_defaults(func=_cmd_compare)

    p_ls = sub.add_parser("scenarios", help="list bundled scenarios")
    p_ls.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except scenario.ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
