"""Experiment harness: parameter sweeps and report emission."""

from __future__ import annotations

import csv
import itertools
import json

from .engine import run
from .metrics import Metrics
from .scenario import ScenarioConfig, ValidationError, from_dict


def _grid_point(config: ScenarioConfig, knobs) -> ScenarioConfig:
    """A copy of `config` with each (dotted path, value) knob set, such as
    ('pheromone.threshold', 6.0), built and validated as a scenario file is."""
    data = config.to_dict()
    for path, value in knobs:
        *sections, last = path.split(".")
        target = data
        for part in sections:
            target = target.get(part) if isinstance(target, dict) else None
        if not isinstance(target, dict):
            raise ValidationError(path, "not a section of the scenario")
        target[last] = value
    return from_dict(data)


def grid_points(config: ScenarioConfig, grid: dict[str, list]) -> list[tuple]:
    """Every grid point as (its knob values, its scenario): grid keys
    sorted, values in given order, each point built and validated. The
    scenario's `seed` is no knob: each row's `seed` is its run's seed."""
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise ValidationError("grid", "must map knob paths to lists of values")
    if "seed" in grid:
        raise ValidationError("seed", "a sweep takes its seeds from --seeds, not from the grid")
    keys = sorted(grid)
    return [(dict(zip(keys, values)), _grid_point(config, zip(keys, values)))
            for values in itertools.product(*(grid[k] for k in keys))]


def run_points(points, seeds) -> list[dict]:
    """One row per (point, seed): the knob values, the seed and the run's
    metrics. Runs share no state, so any execution order gives this table."""
    return [{**knobs, "seed": seed, **run(point, seed).metrics.as_dict()}
            for knobs, point in points for seed in seeds]


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
        if isinstance(data, Metrics):
            payload = payload[0]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
