"""Benchmark of the immunet simulator, end to end and layer by layer.

    python3 perfbench/run.py --workload baseline --seed 42 --seconds 20 --trace 0

Each round runs in a fresh child process (round.py), one at a time, so
rounds share no heap and peak memory is that of one run.

With `--trace 0` a run makes one round on each of SEEDS_PER_RUN world
seeds derived from `--seed`, then more in the same order while the next
still ends within `--seconds`, and reports the end-to-end metrics. Rounds
of one world seed must log byte-identical event logs. With `--trace 1`
one untraced round is followed by traced rounds, all on world seed
`--seed`, and the run reports the per-layer metrics and the tracing
overhead. A last, untimed round on world seed `--seed` runs with
`strict_checks=True` and checks the saved log against computations made
apart from the program (checks.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every operation (a round or an output check) succeeded.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from statistics import fmean, median

from workloads import BENCH_DIR, OUT_DIR, WORKLOADS

SEEDS_PER_RUN = 3  # world seeds per untraced run, one round each at least
SEED_STRIDE = 1_000_003
MIN_TRACED_ROUNDS = 2
ROUND_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "events_per_s": "events/s",
    "finish_s": "s",
    "run_s": "s",
    "save_s": "s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Operations:
    """Counts every round and every output check; reports each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}",
              file=sys.stdout if ok else sys.stderr)
        return ok


def world_seeds(seed: int, count: int) -> list[int]:
    """The world seeds of a run: `--seed` itself, then seeds far from it."""
    return [seed + k * SEED_STRIDE for k in range(count)]


def run_round(mode: str, workload: str, seed: int, index: int):
    """One child round; its JSON result, or None with the child's error shown."""
    log_path = OUT_DIR / f"{workload}-seed{seed}-{mode}{index}.log"
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "round.py"), mode, workload, str(seed), str(log_path)],
            capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        sys.stderr.write(f"{mode} round {index} ran past {ROUND_TIMEOUT_S} s\n")
        log_path.unlink(missing_ok=True)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    out = json.loads(proc.stdout.splitlines()[-1])
    out["mode"] = mode
    out["seed"] = seed
    return out


def run_rounds(plan: list[tuple[str, int]], workload: str, seconds: float,
               ops: Operations) -> list[dict]:
    """The planned (mode, world seed) rounds, then the plan again from its
    start while the next round still ends within `seconds`. A failed round
    is counted, not timed."""
    rounds = []
    start = time.monotonic()
    index = last = 0
    while index < len(plan) or time.monotonic() - start + last <= seconds:
        mode, seed = plan[index % len(plan)]
        began = time.monotonic()
        out = run_round(mode, workload, seed, index)
        last = time.monotonic() - began
        if ops.record(f"{mode} round {index}, seed {seed}", out is not None,
                      f"{last:.1f} s wall"):
            rounds.append(out)
        index += 1
    return rounds


def check_outputs(workload: str, seed: int, rounds: list[dict], ops: Operations) -> None:
    """Every check of a run; the strict run uses the first world seed."""
    for i, r in enumerate(rounds):
        ops.record(f"replay round {i}", r["replayed"] == r["metrics"],
                   "compute_metrics(load_log(saved)) equals the run's metrics")
        if r["mode"] == "traced":
            ops.record(f"scan oracle round {i}", r["scan_miss_count"] == 0,
                       f"{r['layers']['signatures.scans']} scans, {r['scan_checks']} hold a "
                       f"stored signature, missed: {r['scan_misses']}")
    strict = run_round("check", workload, seed, len(rounds))
    if not ops.record("strict run", strict is not None,
                      f"seed {seed}, strict_checks=True, ran to its end"):
        return
    for c in strict["checks"]:
        ops.record(c["name"], c["ok"], c["detail"])
    for s, group in by_seed(rounds + [strict]).items():
        digests = {r["sha256"] for r in group}
        if len(group) > 1:
            ops.record(f"digest seed {s}", len(digests) == 1,
                       f"{len(group)} runs log sha256 {sorted(digests)}")
    same = [r for r in rounds if r["seed"] == seed]
    ops.record("strict metrics", all(r["metrics"] == strict["metrics"] for r in same),
               f"the strict run reports the metrics of the {len(same)} timed runs of seed {seed}")


def by_seed(rounds: list[dict]) -> dict[int, list[dict]]:
    groups: dict[int, list[dict]] = {}
    for r in rounds:
        groups.setdefault(r["seed"], []).append(r)
    return groups


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Rounds of one world seed do the same work, so chunk j of steps costs
    the same in each: a seed's stepping time is the sum over chunks of the
    median over its rounds, which drops a slow stretch that hits one round
    only. Stepping is pooled over seeds; the other stages are the mean over
    seeds of the median over each seed's rounds."""
    groups = list(by_seed(rounds).values())

    def per_seed(key: str) -> float:
        return fmean(median(r[key] for r in group) for group in groups)
    setup_s = median(s for r in rounds for s in r["setup_s"])
    step_s = sum(sum(median(col) for col in zip(*(r["step_s"] for r in group)))
                 for group in groups)
    finish_s = per_seed("finish_s")
    return {
        "setup_s": setup_s,
        "steps_per_s": sum(group[0]["steps"] for group in groups) / step_s,
        "events_per_s": sum(group[0]["events"] for group in groups) / step_s,
        "finish_s": finish_s,
        "run_s": setup_s + step_s / len(groups) + finish_s,
        "save_s": per_seed("save_s"),
        "replay_s": per_seed("replay_s"),
        "peak_rss_mb": per_seed("peak_rss_mb"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    layers["trace.overhead_ratio"] = (median(r["loop_s"] for r in traced)
                                      / median(sum(r["step_s"]) for r in untraced))
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)

    ops = Operations()
    if args.trace:
        # one world seed, so traced and untraced rounds do the same work
        plan = [("timed", args.seed)] + [("traced", args.seed)] * MIN_TRACED_ROUNDS
    else:
        plan = [("timed", seed) for seed in world_seeds(args.seed, SEEDS_PER_RUN)]
    rounds = run_rounds(plan, args.workload, args.seconds, ops)
    check_outputs(args.workload, args.seed, rounds, ops)

    timed = [r for r in rounds if r["mode"] == "timed"]
    traced = [r for r in rounds if r["mode"] == "traced"]
    if args.trace:
        values = per_layer(timed, traced) if timed and traced else {}
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(timed) if timed else {}
        units = END_TO_END_UNITS
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    correct = ops.failed == 0 and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
