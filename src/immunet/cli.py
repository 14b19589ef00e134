"""Command line interface.

Exit codes: 0 success, 1 a scenario, grid, log or argument that cannot
be read, parsed or validated, or a random topology that never connects,
2 check failure under `run --check`.
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
from .scenario import ParseError, ValidationError, load_scenario, parse_json
from .topology import TopologyError


def _parse_seeds(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValidationError("--seeds", "expected a..b or a comma list of integers") from None
    if not seeds:
        raise ValidationError("--seeds", "names no seed")
    return seeds


def _read(load, path):
    """`load(path)`, with a file that is not UTF-8 text or not JSON reported
    by name."""
    try:
        return load(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _replay(path):
    """Metrics of a saved log, folded as `load_log` streams it: the file's
    errors surface here, so callers go through `_read`."""
    return compute_metrics(load_log(path))


def _load_grid(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_json(fh.read())


def cmd_run(args) -> int:
    if args.steps is not None and args.steps < 0:
        raise ValidationError("--steps", "must be >= 0")
    if args.check and not args.out:
        raise ValidationError("--check", "needs --out, the log it replays")
    config = _read(load_scenario, args.scenario)
    if args.out:
        os.makedirs(args.out, exist_ok=True)  # an --out that cannot be made fails before the run
    seed = config.seed if args.seed is None else args.seed
    result = run(config, seed, horizon=args.steps)
    metrics = result.metrics
    if args.out:
        stem = f"{config.name}-seed{seed}"
        log_path = os.path.join(args.out, stem + ".log")
        result.log.save(log_path)
        harness.emit_report(metrics, args.format,
                            os.path.join(args.out, stem + ".metrics." + args.format))
    print(json.dumps(metrics.as_dict(), indent=2, sort_keys=True))
    if args.check and _read(_replay, log_path) != metrics:
        print("check failed: persisted log does not reproduce metrics", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(args) -> int:
    config = _read(load_scenario, args.scenario)
    grid, seeds = _read(_load_grid, args.grid), _parse_seeds(args.seeds)
    points = harness.grid_points(config, grid)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)  # after validation, before the first run
    rows = harness.run_points(points, seeds)
    path = os.path.join(out, f"{config.name}-sweep.{args.format}")
    harness.emit_report(rows, args.format, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_validate(args) -> int:
    config = _read(load_scenario, args.scenario)
    print(f"ok: {config.name} ({config.topology.kind}, horizon {config.horizon})")
    return 0


def cmd_replay(args) -> int:
    metrics = _read(_replay, args.log)
    print(json.dumps(metrics.as_dict(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="immunet")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded run")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="the run's seed (default: the scenario's seed)")
    p_run.add_argument("--steps", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default="json")
    p_run.add_argument("--check", action="store_true",
                       help="replay the log saved under --out and verify it reproduces the metrics")
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
    # OSError: a named file or directory that cannot be opened
    except (ParseError, ValidationError, LogFormatError, TopologyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
