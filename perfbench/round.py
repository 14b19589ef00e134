"""One round of one workload, in a fresh process.

    python3 perfbench/round.py <timed|traced|check> <workload> <seed> <log path>

Prints one JSON object on its last line of standard output.

- `timed`: builds the world several times (set-up samples), steps the last
  one, finishes as `World.run` does (three times), saves the log (three
  times) and replays it. Each stage
  is timed on its own, stepping in chunks of CHUNK_STEPS steps, in CPU
  seconds scaled to a fixed machine speed (speed.py). Each stage starts
  from a collected heap, so that it is not charged for a collection the
  stage before it left due.
- `traced`: the same stages once, with every layer wrapped (see tracer.py).
- `check`: one untimed run with `strict_checks=True`, and every output
  check of checks.py on its saved log.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from statistics import median

from speed import ScaledTimer
from workloads import WORKLOADS, setup

from immunet import transport
from immunet.events import load_log
from immunet.metrics import compute_metrics
from immunet.transport import DATA, IMMUNE

SETUP_MIN_S = 0.3  # build at least this long in total, so tiny set-ups repeat enough
REPEATS = 3  # finish and save are short; each is repeated on the same log
CHUNK_STEPS = 10  # steps timed between two samples of the machine's speed


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def queued_by_class(world) -> dict[str, int]:
    """Packets the program holds at the end, by class. Only data packets wait
    staged for the next step (background and worm injections)."""
    immune = sum(len(q.immune) for q in world.state.queues.values())
    return {IMMUNE: immune, DATA: world.state.in_flight() - immune}


def finish(world):
    """What `World.run` does after its loop."""
    transport.conservation_audit(world.log.events)
    return compute_metrics(world.log.events)


def timed(workload, seed: int, log_path: Path) -> dict:
    timer = ScaledTimer()
    setup_s = []
    world = None
    while sum(setup_s) < SETUP_MIN_S:
        world = None
        gc.collect()
        world, seconds = timer.time(setup, workload, seed)
        setup_s.append(seconds)
    logged = len(world.log)
    gc.collect()
    step_s = stepping(world, workload.steps, timer)
    events = len(world.log) - logged
    finish_s = []
    for _ in range(REPEATS):
        gc.collect()
        metrics, seconds = timer.time(finish, world)
        finish_s.append(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    save_s = []
    for _ in range(REPEATS):
        gc.collect()
        save_s.append(timer.time(world.log.save, log_path)[1])
    world = None
    gc.collect()
    replayed, replay_s = timer.time(replay, log_path)
    return {
        "setup_s": setup_s,
        "step_s": step_s,
        "steps": workload.steps,
        "events": events,
        "finish_s": median(finish_s),
        "save_s": median(save_s),
        "replay_s": replay_s,
        "peak_rss_mb": peak_rss_mb,
        "metrics": metrics.as_dict(),
        "replayed": replayed.as_dict(),
        "sha256": sha256(log_path),
    }


def stepping(world, steps: int, timer: ScaledTimer, wrap_hooks=None) -> list[float]:
    """Step the world through `world.hooks()`; scaled seconds per chunk of steps."""
    if steps % CHUNK_STEPS:
        raise ValueError(f"{steps} steps is not a whole number of {CHUNK_STEPS}-step chunks")
    hooks = world.hooks()
    if wrap_hooks is not None:
        wrap_hooks(hooks)

    def chunk():
        for _ in range(CHUNK_STEPS):
            transport.step(world.state, hooks)
    return [timer.time(chunk)[1] for _ in range(steps // CHUNK_STEPS)]


def replay(log_path: Path):
    """What `immunet replay` does."""
    return compute_metrics(load_log(log_path))


def traced(workload, seed: int, log_path: Path) -> dict:
    import workloads
    from tracer import Tracer, clock as trace_clock

    tracer = Tracer()
    tracer.install()
    tracer.patch(workloads, "load_scenario", "scenario.load_s")
    world = setup(workload, seed)
    step_s = 0.0
    step = transport.step

    def traced_step(state, hooks):
        nonlocal step_s
        t0 = trace_clock()
        step(state, hooks)
        step_s += trace_clock() - t0
        tracer.sample(world)

    def clocked(fn, *args):
        t0 = trace_clock()
        return fn(*args), trace_clock() - t0

    transport.step = traced_step
    loop_s = sum(stepping(world, workload.steps, ScaledTimer(interval=None), tracer.wrap_hooks))
    _, audit_s = clocked(transport.conservation_audit, world.log.events)
    metrics, compute_s = clocked(compute_metrics, world.log.events)
    _, save_s = clocked(world.log.save, log_path)
    events, parse_s = clocked(load_log, log_path)
    replayed, replay_compute_s = clocked(compute_metrics, events)
    layers = tracer.layer_metrics(workload.steps, step_s, len(world.routing), audit_s,
                                  compute_s + replay_compute_s, save_s, parse_s,
                                  log_path.stat().st_size)
    return {
        "loop_s": loop_s,
        "layers": layers,
        "scan_checks": tracer.count["signatures.oracle_hits"],
        "scan_misses": tracer.scan_misses[:3],
        "scan_miss_count": len(tracer.scan_misses),
        "metrics": metrics.as_dict(),
        "replayed": replayed.as_dict(),
        "sha256": sha256(log_path),
    }


def check(workload, seed: int, log_path: Path) -> dict:
    from checks import log_checks, read_log

    world = setup(workload, seed, strict_checks=True)
    result = world.run(workload.steps)
    result.log.save(log_path)
    records = read_log(log_path.read_text(encoding="utf-8"))
    metrics = result.metrics.as_dict()
    checks = log_checks(workload.name, records, metrics, workload.steps, queued_by_class(world),
                        routes=world.routing, links=world.network.links)
    kinds = Counter(kind for _s, kind, _f in records)
    return {
        "checks": [c.__dict__ for c in checks],
        "metrics": metrics,
        "sha256": sha256(log_path),
        "kinds": dict(kinds),
    }


MODES = {"timed": timed, "traced": traced, "check": check}


def main(argv) -> int:
    mode, name, seed, log_path = argv
    log_path = Path(log_path)
    try:
        out = MODES[mode](WORKLOADS[name], int(seed), log_path)
    finally:
        log_path.unlink(missing_ok=True)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
