"""The benchmark's workloads and the one way every script builds them.

Importing this module puts the checkout's own `src/` first on the import
path and refuses an `immunet` found anywhere else, so the benchmark always
measures the source tree it sits in.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(SRC))

import immunet  # noqa: E402

if Path(immunet.__file__).resolve().parent != SRC / "immunet":
    raise ImportError(f"immunet imported from {immunet.__file__}, not from {SRC}")

from immunet.engine import World  # noqa: E402
from immunet.scenario import load_scenario  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Path
    steps: int  # steps stepped per round; fixed, so a seed fixes the event log


WORKLOADS = {
    # signature scanning dominates: 30 detectors scan every benign payload
    "baseline": Workload("baseline", SRC / "immunet" / "scenarios" / "baseline.scenario", 300),
    # 500 nodes of pure forwarding: routing build, dequeue sweep, event log
    "transit": Workload("transit", BENCH_DIR / "scenarios" / "transit.scenario", 150),
    # endemic worm: pheromone, cells, receptors, stations, store inserts
    "outbreak": Workload("outbreak", BENCH_DIR / "scenarios" / "outbreak.scenario", 200),
}


def setup(workload: Workload, seed: int, strict_checks: bool = False) -> World:
    """What `setup_s` times: load the scenario file and build the world."""
    return World(load_scenario(workload.scenario), seed, strict_checks=strict_checks)
