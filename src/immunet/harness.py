"""Experiment harness: parameter sweeps and report emission."""

from __future__ import annotations

import copy
import csv
import itertools
import json
from dataclasses import fields, is_dataclass

from .engine import run
from .metrics import Metrics
from .scenario import ScenarioConfig


class UnknownKnob(KeyError):
    pass


def apply_knob(config: ScenarioConfig, path: str, value) -> None:
    """Set a dotted config path like 'pheromone.threshold' in place."""
    target = config
    parts = path.split(".")
    for part in parts[:-1]:
        if not is_dataclass(target) or part not in {f.name for f in fields(target)}:
            raise UnknownKnob(path)
        target = getattr(target, part)
    last = parts[-1]
    if is_dataclass(target):
        if last not in {f.name for f in fields(target)}:
            raise UnknownKnob(path)
        setattr(target, last, value)
    elif isinstance(target, dict):
        target[last] = value
    else:
        raise UnknownKnob(path)


def sweep(config: ScenarioConfig, grid: dict[str, list], seeds) -> list[dict]:
    """Cartesian product of grid points x seeds; one row per run.

    Row order is deterministic: grid keys sorted, values in given order,
    seeds in given order. Runs share no state, so any execution order
    yields the same table.
    """
    keys = sorted(grid)
    for key in keys:
        apply_knob(copy.deepcopy(config), key, grid[key][0])  # validate early
    rows = []
    for values in itertools.product(*(grid[k] for k in keys)):
        for seed in seeds:
            point = copy.deepcopy(config)
            for key, value in zip(keys, values):
                apply_knob(point, key, value)
            result = run(point, seed)
            row = {k: v for k, v in zip(keys, values)}
            row["seed"] = seed
            row.update(result.metrics.as_dict())
            rows.append(row)
    return rows


def _fmt_value(value):
    if isinstance(value, float):
        return format(value, ".6g")
    if value is None:
        return ""
    return value


def emit_report(data, fmt: str, path) -> None:
    """Write metrics or a sweep table as CSV (stable header order) or JSON
    (stable key order); floats at 6 significant digits."""
    if isinstance(data, Metrics):
        table = [data.as_dict()]
    elif isinstance(data, dict):
        table = [data]
    else:
        table = list(data)
    if fmt == "csv":
        header: list[str] = []
        for row in table:
            for key in row:
                if key not in header:
                    header.append(key)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in table:
                writer.writerow([_fmt_value(row.get(k)) for k in header])
    elif fmt == "json":
        def roundtrip(value):
            if isinstance(value, float):
                return float(format(value, ".6g"))
            return value
        payload = [{k: roundtrip(v) for k, v in row.items()} for row in table]
        if isinstance(data, (Metrics, dict)):
            payload = payload[0]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
