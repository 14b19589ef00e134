"""Pheromone field over directed edges, driving ant-cell localization.

Detections deposit on the edge the malicious packet arrived on, marking
where bad traffic came from; evaporation decays every level each step;
a node whose outgoing pheromone mass crosses the declare threshold while
enough ants sit on it is declared infected.
"""

from __future__ import annotations

from collections import Counter
from random import Random

CLAMP_FLOOR = 1e-6
MEMORY_NOVELTY = 0.1


class PheromoneMap:
    def __init__(self, evaporation_rate: float = 0.02, deposit_quantum: float = 1.0,
                 declare_threshold: float = 5.0):
        if not 0.0 < evaporation_rate < 1.0:
            raise ValueError("evaporation_rate must be in (0, 1)")
        if deposit_quantum <= 0.0 or declare_threshold <= 0.0:
            raise ValueError("deposit_quantum and declare_threshold must be > 0")
        self.evaporation_rate = evaporation_rate
        self.deposit_quantum = deposit_quantum
        self.declare_threshold = declare_threshold
        self.level: dict[tuple[int, int], float] = {}
        self.attack_tally: dict[tuple[int, int], Counter] = {}

    def deposit(self, edge: tuple[int, int], attack: int | None = None) -> None:
        self.level[edge] = self.level.get(edge, 0.0) + self.deposit_quantum
        if attack is not None:
            self.attack_tally.setdefault(edge, Counter())[attack] += 1

    def evaporate(self) -> None:
        keep = 1.0 - self.evaporation_rate
        dead = []
        for edge, lvl in self.level.items():
            lvl *= keep
            if lvl < CLAMP_FLOOR:
                dead.append(edge)
            else:
                self.level[edge] = lvl
        for edge in dead:
            del self.level[edge]

    def edge_level(self, edge: tuple[int, int]) -> float:
        return self.level.get(edge, 0.0)

    def total(self) -> float:
        return sum(self.level.values())

    def out_mass(self) -> dict[int, float]:
        """Outgoing pheromone mass per node."""
        mass: dict[int, float] = {}
        for (u, _v), lvl in self.level.items():
            mass[u] = mass.get(u, 0.0) + lvl
        return mass

    def node_mass(self, node: int) -> float:
        """One node's entry of `out_mass`, summed in the same order."""
        mass = 0.0
        for (u, _v), lvl in self.level.items():
            if u == node:
                mass += lvl
        return mass

    def declare(self, ants_present: dict[int, int], quorum: int) -> list[int]:
        """Nodes whose outgoing mass crosses the threshold with an ant quorum."""
        theta = self.declare_threshold
        return sorted(n for n, m in self.out_mass().items()
                      if m >= theta and ants_present.get(n, 0) >= quorum)

    def dominant_attack(self, node: int) -> int | None:
        """Most frequently tallied attack on edges out of a node."""
        combined: Counter = Counter()
        for (u, _v), tally in self.attack_tally.items():
            if u == node:
                combined.update(tally)
        if not combined:
            return None
        return min(combined, key=lambda a: (-combined[a], a))


def transition_weights(pheromone: PheromoneMap, here: int, neighbors,
                       memory, epsilon: float) -> list[float]:
    """Ant walk weights: pheromone pointing back toward traffic origins,
    discounted for recently visited nodes, with an exploration floor."""
    recent = set(memory)
    return [(epsilon + pheromone.edge_level((nbr, here)))
            * (MEMORY_NOVELTY if nbr in recent else 1.0)
            for nbr in neighbors]


def choose_move(pheromone: PheromoneMap, here: int, neighbors, memory,
                epsilon: float, rng: Random) -> int:
    neighbors = list(neighbors)
    weights = transition_weights(pheromone, here, neighbors, memory, epsilon)
    total = sum(weights)
    point = rng.random() * total
    acc = 0.0
    for nbr, w in zip(neighbors, weights):
        acc += w
        if point < acc:
            return nbr
    return neighbors[-1]
