"""Command line interface.

Exit codes: 0 success, 1 a scenario, grid, log or argument that cannot
be read, parsed or validated, 2 check failure under `run --check`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness
from .engine import run
from .events import LogFormatError, load_log
from .metrics import compute_metrics
from .scenario import ParseError, ValidationError, load_scenario


def _parse_seeds(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValidationError("--seeds", "expected a..b or a comma list of integers") from None


def _read(load, path):
    """`load(path)`, with a file that is not UTF-8 text reported by name."""
    try:
        return load(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_grid(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc.msg}", exc.lineno) from None


def cmd_run(args) -> int:
    if args.steps is not None and args.steps < 0:
        raise ValidationError("--steps", "must be >= 0")
    config = _read(load_scenario, args.scenario)
    result = run(config, args.seed, horizon=args.steps)
    metrics = result.metrics
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = f"{config.name}-seed{args.seed}"
        log_path = os.path.join(args.out, stem + ".log")
        result.log.save(log_path)
        harness.emit_report(metrics, args.format,
                            os.path.join(args.out, stem + ".metrics." + args.format))
    print(json.dumps(metrics.as_dict(), indent=2, sort_keys=True))
    if args.check:
        replayed = compute_metrics(result.log.events)
        if replayed != metrics:
            print("check failed: replayed metrics differ", file=sys.stderr)
            return 2
        if args.out:
            replayed = compute_metrics(load_log(log_path))
            if replayed != metrics:
                print("check failed: persisted log does not reproduce metrics",
                      file=sys.stderr)
                return 2
    return 0


def cmd_sweep(args) -> int:
    config = _read(load_scenario, args.scenario)
    rows = harness.sweep(config, _read(_load_grid, args.grid), _parse_seeds(args.seeds))
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{config.name}-sweep.{args.format}")
    harness.emit_report(rows, args.format, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_validate(args) -> int:
    config = _read(load_scenario, args.scenario)
    print(f"ok: {config.name} ({config.topology.kind}, horizon {config.horizon})")
    return 0


def cmd_replay(args) -> int:
    metrics = compute_metrics(_read(load_log, args.log))
    print(json.dumps(metrics.as_dict(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="immunet")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded run")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--steps", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default="json")
    p_run.add_argument("--check", action="store_true",
                       help="verify replay reproduces the reported metrics")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs over knobs and seeds")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--grid", required=True,
                         help="JSON file: {\"knob.path\": [values...]}")
    p_sweep.add_argument("--seeds", required=True, help="a..b or comma list")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_rep = sub.add_parser("replay", help="recompute metrics from a log")
    p_rep.add_argument("--log", required=True)
    p_rep.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, LogFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a named file or directory that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
