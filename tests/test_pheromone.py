import random
from collections import Counter

import pytest

from immunet.pheromone import (CLAMP_FLOOR, PheromoneMap, choose_move,
                               transition_weights)


def declare_oracle(level, ants_present, theta, quorum):
    """Exhaustive scan: sum outgoing levels per node, apply both conditions."""
    mass = {}
    for (u, _v), lvl in level.items():
        mass[u] = mass.get(u, 0.0) + lvl
    return sorted(n for n in mass
                  if mass[n] >= theta and ants_present.get(n, 0) >= quorum)


class TestNodeMass:

    def test_equals_out_mass_entry_bit_for_bit(self):
        rng = random.Random(4)
        pm = PheromoneMap(deposit_quantum=0.37, evaporation_rate=0.03)
        for _ in range(400):
            pm.deposit((rng.randrange(6), rng.randrange(6)))
            if rng.random() < 0.3:
                pm.evaporate()
        out = pm.out_mass()
        for node in range(7):
            assert pm.node_mass(node) == out.get(node, 0.0)
        assert pm.node_mass(6) == 0.0


def scan_node_mass(level, node):
    """The scan `node_mass` made before the per-node index: every edge, in order."""
    mass = 0.0
    for (u, _v), lvl in level.items():
        if u == node:
            mass += lvl
    return mass


def scan_out_mass(level):
    mass = {}
    for (u, _v), lvl in level.items():
        mass[u] = mass.get(u, 0.0) + lvl
    return mass


def scan_dominant_attack(attack_tally, node):
    combined = Counter()
    for (u, _v), tally in attack_tally.items():
        if u == node:
            combined.update(tally)
    if not combined:
        return None
    return min(combined, key=lambda a: (-combined[a], a))


class TestPerNodeIndex:
    """One-node reads equal scans of `level` and `attack_tally`, bit for bit,
    while edges die below CLAMP_FLOOR and are deposited again."""

    @pytest.mark.parametrize("seed", range(5))
    def test_reads_equal_full_scans(self, seed):
        rng = random.Random(seed)
        # a small quantum and fast decay: an edge dies after ~13 passes untouched
        pm = PheromoneMap(deposit_quantum=1e-3 * (1 + rng.random()), evaporation_rate=0.4)
        died = revived = 0
        ever = set()
        for _ in range(3000):
            if rng.random() < 0.6:
                edge = (rng.randrange(7), rng.randrange(7))
                if edge in ever and edge not in pm.level:
                    revived += 1
                ever.add(edge)
                pm.deposit(edge, rng.choice((None, 1, 2, 3)))
            else:
                before = len(pm.level)
                pm.evaporate()
                died += before - len(pm.level)
            assert pm.out_mass() == scan_out_mass(pm.level)
            for node in range(8):
                assert pm.node_mass(node) == scan_node_mass(pm.level, node)
                assert pm.dominant_attack(node) == scan_dominant_attack(pm.attack_tally, node)
        assert died > 50 and revived > 50


class TestDeposit:

    def test_single_deposit(self):
        pm = PheromoneMap(deposit_quantum=1.0)
        pm.deposit((1, 0))
        assert pm.level.get((1, 0), 0.0) == 1.0
        assert pm.level.get((0, 1), 0.0) == 0.0

    def test_two_deposits_same_edge(self):
        pm = PheromoneMap(deposit_quantum=1.5)
        pm.deposit((1, 0))
        pm.deposit((1, 0))
        assert pm.level.get((1, 0), 0.0) == 3.0

    def test_total_equals_quantum_times_events(self):
        rng = random.Random(3)
        pm = PheromoneMap(deposit_quantum=1.0)
        events = 0
        for _ in range(500):
            pm.deposit((rng.randrange(6), rng.randrange(6)))
            events += 1
        assert sum(pm.level.values()) == 1.0 * events


class TestEvaporation:

    def test_single_pass(self):
        pm = PheromoneMap(evaporation_rate=0.1)
        pm.deposit((0, 1))
        pm.evaporate()
        assert pm.level.get((0, 1), 0.0) == pytest.approx(0.9, rel=1e-12)

    def test_zero_stays_zero(self):
        pm = PheromoneMap()
        pm.evaporate()
        assert sum(pm.level.values()) == 0.0

    def test_identity_within_1e9_relative(self):
        rng = random.Random(4)
        pm = PheromoneMap(evaporation_rate=0.02)
        for _ in range(300):
            pm.deposit((rng.randrange(10), rng.randrange(10)))
        before = sum(pm.level.values())
        pm.evaporate()
        assert abs(sum(pm.level.values()) - 0.98 * before) <= 1e-9 * before

    def test_clamp_after_200_passes(self):
        # 0.9^200 ~ 7e-10 < 1e-6, so the level must clamp to exactly zero
        assert 0.9 ** 200 < CLAMP_FLOOR
        pm = PheromoneMap(evaporation_rate=0.1)
        pm.deposit((0, 1))
        for _ in range(200):
            pm.evaporate()
        assert pm.level.get((0, 1), 0.0) == 0.0


class TestDeclare:

    def test_empty_map(self):
        pm = PheromoneMap(declare_threshold=5.0)
        assert pm.declare({0: 10}, 1) == []

    def test_mass_and_quorum(self):
        pm = PheromoneMap(declare_threshold=5.0, deposit_quantum=25.0)
        pm.deposit((3, 0))  # outgoing mass of node 3 = 5 * theta
        assert pm.declare({3: 2}, 2) == [3]
        assert pm.declare({3: 1}, 2) == []

    def test_oracle_equivalence_random_maps(self):
        rng = random.Random(9)
        for _ in range(200):
            pm = PheromoneMap(declare_threshold=2.0)
            for _ in range(rng.randrange(40)):
                pm.deposit((rng.randrange(8), rng.randrange(8)))
            ants = {n: rng.randrange(4) for n in range(8)}
            quorum = rng.randint(1, 3)
            assert pm.declare(ants, quorum) == declare_oracle(pm.level, ants, 2.0, quorum)

    def test_dominant_attack(self):
        pm = PheromoneMap()
        pm.deposit((5, 1), attack=7)
        pm.deposit((5, 2), attack=7)
        pm.deposit((5, 2), attack=3)
        assert pm.dominant_attack(5) == 7
        assert pm.dominant_attack(1) is None


class TestAntWalk:

    def test_uniform_when_no_pheromone(self):
        pm = PheromoneMap()
        weights = transition_weights(pm, 0, [1, 2, 3, 4], [], 0.01)
        assert len(set(weights)) == 1

    def test_strong_edge_dominates(self):
        """One incoming edge at 10^3: it must take >= 99% of the mass."""
        pm = PheromoneMap(deposit_quantum=1000.0)
        pm.deposit((2, 0))  # traffic came from node 2 into node 0
        neighbors = [1, 2, 3]
        weights = transition_weights(pm, 0, neighbors, [], 0.01)
        share = weights[1] / sum(weights)
        assert share >= 0.99
        rng = random.Random(6)
        picks = Counter(choose_move(pm, 0, neighbors, [], 0.01, rng)
                        for _ in range(2000))
        assert picks[2] / 2000 >= 0.99

    def test_single_neighbor_certain(self):
        pm = PheromoneMap()
        rng = random.Random(1)
        assert choose_move(pm, 5, [9], [], 0.01, rng) == 9

    def test_memory_discount(self):
        pm = PheromoneMap()
        weights = transition_weights(pm, 0, [1, 2], [1], 0.5)
        assert weights[0] == pytest.approx(0.05)
        assert weights[1] == pytest.approx(0.5)

    def test_star_center_empirical_uniform(self):
        pm = PheromoneMap()
        rng = random.Random(12)
        leaves = [1, 2, 3, 4, 5]
        picks = Counter(choose_move(pm, 0, leaves, [], 0.01, rng)
                        for _ in range(5000))
        for leaf in leaves:
            assert abs(picks[leaf] / 5000 - 0.2) < 0.03
