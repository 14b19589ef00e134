import math
import random
from collections import Counter

import pytest

from immunet.adversary import (AttackDef, InjectionGate, NodeHealth,
                               TrafficModel, attack_payload, benign_payload,
                               inject_background, on_attack_delivery, poisson,
                               spawn_worm, worm_emit)
from immunet.topology import UnknownNode, build_network, erdos_renyi
from immunet.transport import DATA, TransportState

from conftest import routing_table

SIG = bytes.fromhex("a3f1c08e55d2764b9900eeab1275c3d4")
ATTACK = AttackDef(attack_id=1, signature=SIG, infects=True, fanout=3)

# chi-square critical value, df=48, alpha=0.001 (standard table)
CHI2_48_999 = 84.037


def fresh_state(n=50, seed=5):
    net = erdos_renyi(n, 0.1, random.Random(seed))
    return TransportState(net, routing_table(net), 32)


def all_healthy(state, vulnerable=True):
    return {n: NodeHealth(vulnerable=vulnerable) for n in state.network.nodes}


class TestBackground:

    def test_rate_zero(self, rng):
        state = fresh_state()
        model = TrafficModel(background_rate=0.0, distribution="fixed")
        assert inject_background(state, model, rng) == []

    def test_fixed_rate_exact_count(self, rng):
        state = fresh_state()
        model = TrafficModel(background_rate=5.0, distribution="fixed")
        total = sum(len(inject_background(state, model, rng)) for _ in range(100))
        assert total == 500

    def test_poisson_mean_within_3_se(self):
        rng = random.Random(60)
        draws = [poisson(rng, 5.0) for _ in range(10_000)]
        mean = sum(draws) / len(draws)
        se = math.sqrt(5.0 / len(draws))
        assert abs(mean - 5.0) <= 3 * se

    def test_src_dst_distinct(self, rng):
        state = fresh_state()
        model = TrafficModel(background_rate=50.0, distribution="fixed")
        for pkt in inject_background(state, model, rng):
            assert pkt.src != pkt.dst
            assert pkt.klass == DATA

    def test_benign_payload_avoids_signatures(self, rng):
        for _ in range(1000):
            payload = benign_payload(rng, 64, [SIG, b"\x00\x00"])
            assert SIG not in payload and b"\x00\x00" not in payload

    def test_attack_mix_injects_marked_packets(self, rng):
        state = fresh_state()
        model = TrafficModel(background_rate=0.0, distribution="fixed",
                             attack_mix=[(ATTACK, 4.0)])
        packets = inject_background(state, model, rng)
        assert len(packets) == 4
        assert all(p.attack == 1 and SIG in p.payload for p in packets)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TrafficModel(background_rate=-1.0)


class TestWorm:

    def test_spawn_on_vulnerable(self):
        state = fresh_state()
        health = all_healthy(state)
        assert spawn_worm(state, health, ATTACK, 7)
        assert health[7].infected_by == 1
        assert health[7].infected_at == 0
        infects = [ev for ev in state.log.events if ev.kind == "Infect"]
        assert len(infects) == 1 and infects[0].get("ok") == 1

    def test_spawn_on_patched_fails(self):
        state = fresh_state()
        health = all_healthy(state, vulnerable=False)
        assert not spawn_worm(state, health, ATTACK, 7)
        assert not health[7].infected
        infects = [ev for ev in state.log.events if ev.kind == "Infect"]
        assert len(infects) == 1 and infects[0].get("ok") == 0

    def test_double_spawn_idempotent(self):
        state = fresh_state()
        health = all_healthy(state)
        spawn_worm(state, health, ATTACK, 7)
        assert spawn_worm(state, health, ATTACK, 7)
        assert sum(1 for ev in state.log.events if ev.kind == "Infect") == 1

    def test_spawn_unknown_node(self):
        state = fresh_state()
        with pytest.raises(UnknownNode):
            spawn_worm(state, all_healthy(state), ATTACK, 999)

    def test_emit_carries_signature(self, rng):
        state = fresh_state()
        health = all_healthy(state)
        spawn_worm(state, health, ATTACK, 7)
        packets = worm_emit(state, health, 7, ATTACK, rng, payload_len=64)
        assert len(packets) == 3
        for pkt in packets:
            assert SIG in pkt.payload
            assert pkt.attack == 1
            assert pkt.dst != 7

    def test_disinfected_emits_nothing(self, rng):
        state = fresh_state()
        health = all_healthy(state)
        spawn_worm(state, health, ATTACK, 7)
        health[7].infected_by = None
        assert worm_emit(state, health, 7, ATTACK, rng, 64) == []

    def test_emission_dst_uniform_chi_square(self):
        state = fresh_state()
        health = all_healthy(state)
        spawn_worm(state, health, ATTACK, 0)
        one_shot = AttackDef(attack_id=1, signature=SIG, infects=True, fanout=1)
        rng = random.Random(314)
        counts = Counter()
        trials = 2000
        for _ in range(trials):
            (pkt,) = worm_emit(state, health, 0, one_shot, rng, 32)
            counts[pkt.dst] += 1
        expected = trials / 49
        chi2 = sum((counts.get(n, 0) - expected) ** 2 / expected
                   for n in state.network.nodes if n != 0)
        assert chi2 < CHI2_48_999

    def test_delivery_infects_vulnerable(self):
        state = fresh_state()
        health = all_healthy(state)
        pkt = state.make_packet(0, 5, DATA, payload=SIG, attack=1)
        on_attack_delivery(state, health, 5, pkt, {1: ATTACK})
        assert health[5].infected_by == 1

    def test_delivery_absorbed_by_patched(self):
        state = fresh_state()
        health = all_healthy(state, vulnerable=False)
        pkt = state.make_packet(0, 5, DATA, payload=SIG, attack=1)
        on_attack_delivery(state, health, 5, pkt, {1: ATTACK})
        assert not health[5].infected
        assert not [ev for ev in state.log.events if ev.kind == "Infect"]

    def test_delivery_to_infected_no_duplicate_event(self):
        state = fresh_state()
        health = all_healthy(state)
        spawn_worm(state, health, ATTACK, 5)
        pkt = state.make_packet(0, 5, DATA, payload=SIG, attack=1)
        on_attack_delivery(state, health, 5, pkt, {1: ATTACK})
        assert sum(1 for ev in state.log.events if ev.kind == "Infect") == 1


class TestInjectionGate:

    def test_excess_deferred_not_lost(self):
        net = build_network([0, 1], [(0, 1, 4)])
        state = TransportState(net, routing_table(net), 32)
        gate = InjectionGate(net)
        gate.begin_step(state)
        packets = [state.make_packet(0, 1, DATA) for _ in range(10)]
        gate.offer(state, 0, packets)
        assert sum(1 for ev in state.log.events if ev.kind == "Inject") == 4
        assert len(gate._deferred[0]) == 6
        gate.begin_step(state)  # next step drains more
        assert sum(1 for ev in state.log.events if ev.kind == "Inject") == 8
        gate.begin_step(state)
        assert sum(1 for ev in state.log.events if ev.kind == "Inject") == 10
        assert len(gate._deferred[0]) == 0

    def test_clear_deferred(self):
        net = build_network([0, 1], [(0, 1, 2)])
        state = TransportState(net, routing_table(net), 32)
        gate = InjectionGate(net)
        gate.begin_step(state)
        gate.offer(state, 0, [state.make_packet(0, 1, DATA) for _ in range(5)])
        assert len(gate._deferred[0]) == 3
        gate.clear_deferred(0)
        assert len(gate._deferred[0]) == 0
