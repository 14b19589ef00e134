"""Pheromone field over directed edges, driving ant-cell localization.

Detections deposit on the edge the malicious packet arrived on, marking
where bad traffic came from; evaporation decays every level each step;
a node whose outgoing pheromone mass crosses the declare threshold while
enough ants sit on it is declared infected.

`level` and `attack_tally` are keyed by edge. A per-node index of live
out-edges and of tally Counters, each in the order the edge entered
`level` or `attack_tally`, lets one node's mass or tally be read without
scanning every edge. Masses are summed with `+=` in that order, so a
one-node read equals a scan of `level` bit for bit; `sum()` would not
(from Python 3.12 it compensates rounding error).
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
        # node -> its live out-edges (an ordered set), and its out-edges' tallies
        self._out: dict[int, dict[tuple[int, int], None]] = {}
        self._tallies: dict[int, list[Counter]] = {}

    def deposit(self, edge: tuple[int, int], attack: int | None = None) -> None:
        if edge not in self.level:
            self._out.setdefault(edge[0], {})[edge] = None
        self.level[edge] = self.level.get(edge, 0.0) + self.deposit_quantum
        if attack is not None:
            tally = self.attack_tally.get(edge)
            if tally is None:
                tally = self.attack_tally[edge] = Counter()
                self._tallies.setdefault(edge[0], []).append(tally)
            tally[attack] += 1

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
            out = self._out[edge[0]]
            del out[edge]
            if not out:
                del self._out[edge[0]]

    def out_mass(self) -> dict[int, float]:
        """Outgoing pheromone mass per node that has a live out-edge."""
        return {node: self.node_mass(node) for node in self._out}

    def node_mass(self, node: int) -> float:
        """A node's outgoing mass, summed in `level`'s order."""
        level = self.level
        mass = 0.0
        for edge in self._out.get(node, ()):
            mass += level[edge]
        return mass

    def declare(self, ants_present: dict[int, int], quorum: int) -> list[int]:
        """Nodes whose outgoing mass crosses the threshold with an ant quorum."""
        theta = self.declare_threshold
        return sorted(n for n, m in self.out_mass().items()
                      if m >= theta and ants_present.get(n, 0) >= quorum)

    def dominant_attack(self, node: int) -> int | None:
        """Most frequently tallied attack on edges out of a node."""
        combined: Counter = Counter()
        for tally in self._tallies.get(node, ()):
            combined.update(tally)
        if not combined:
            return None
        return min(combined, key=lambda a: (-combined[a], a))


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
    weights = transition_weights(pheromone, here, neighbors, memory, epsilon)
    total = sum(weights)
    point = rng.random() * total
    acc = 0.0
    for nbr, w in zip(neighbors, weights):
        acc += w
        if point < acc:
            return nbr
    return neighbors[-1]
