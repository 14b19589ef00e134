"""Pheromone field over directed edges, driving ant-cell localization.

Detections deposit on the edge the malicious packet arrived on, marking
where bad traffic came from; evaporation decays every level each step;
a node whose outgoing pheromone mass crosses the declare threshold while
enough ants sit on it is declared infected. The field reads its deposit,
evaporation, threshold and quorum from the scenario's `pheromone`
section, whose annotations state their bounds.

`level`, keyed by edge, is the whole field. Out-masses are summed with
`+=` in `level`'s order, so they are the same floats on every Python
version; `sum()` would not be (from Python 3.12 it compensates rounding
error). The ant walk's total is likewise the last of its running sums,
the same pass that places the draw. Attack tallies are one Counter per
node, over the detections on all its out-edges; a tally outlives the
pheromone of the edges that fed it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import accumulate
from random import Random

from .scenario import PheromoneConfig

CLAMP_FLOOR = 1e-6
MEMORY_NOVELTY = 0.1


class PheromoneMap:
    def __init__(self, config: PheromoneConfig):
        self.config = config
        self.level: dict[tuple[int, int], float] = {}
        self._tallies: defaultdict[int, Counter] = defaultdict(Counter)

    def deposit(self, edge: tuple[int, int], attack: int | None = None) -> None:
        self.level[edge] = self.level.get(edge, 0.0) + self.config.deposit
        if attack is not None:
            self._tallies[edge[0]][attack] += 1

    def evaporate(self) -> None:
        keep = 1.0 - self.config.evaporation
        self.level = {edge: lvl for edge, old in self.level.items()
                      if (lvl := old * keep) >= CLAMP_FLOOR}

    def out_mass(self) -> dict[int, float]:
        """Outgoing pheromone mass per node that has a live out-edge."""
        mass: dict[int, float] = {}
        for (u, _v), lvl in self.level.items():
            mass[u] = mass.get(u, 0.0) + lvl
        return mass

    def declare(self, mass: dict[int, float], ants_present: dict[int, int]) -> list[int]:
        """Nodes of an `out_mass()` table whose mass crosses the threshold
        with an ant quorum."""
        theta, quorum = self.config.threshold, self.config.quorum
        return sorted(n for n, m in mass.items()
                      if m >= theta and ants_present.get(n, 0) >= quorum)

    def dominant_attack(self, node: int) -> int | None:
        """Most frequently tallied attack on edges out of a node, ties to
        the smaller attack id; None when nothing was tallied there."""
        tally = self._tallies.get(node)
        if not tally:
            return None
        return min(tally, key=lambda a: (-tally[a], a))


def transition_weights(pheromone: PheromoneMap, here: int, neighbors,
                       memory, epsilon: float) -> list[float]:
    """Ant walk weights: pheromone pointing back toward traffic origins,
    discounted for recently visited nodes, with an exploration floor."""
    recent = set(memory)
    level = pheromone.level.get
    return [(epsilon + level((nbr, here), 0.0))
            * (MEMORY_NOVELTY if nbr in recent else 1.0)
            for nbr in neighbors]


def choose_move(pheromone: PheromoneMap, here: int, neighbors, memory,
                epsilon: float, rng: Random) -> int:
    neighbors = list(neighbors)
    bounds = list(accumulate(transition_weights(pheromone, here, neighbors, memory, epsilon)))
    point = rng.random() * bounds[-1]
    return neighbors[min(bisect_right(bounds, point), len(neighbors) - 1)]
