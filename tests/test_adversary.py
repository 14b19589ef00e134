import math
import random
from collections import Counter

import pytest

from immunet.adversary import (attack_payload, benign_payload, cure, inject_background,
                               on_attack_delivery, poisson, spawn_worm, worm_emit)
from immunet.events import field
from immunet.scenario import AttackConfig, AttackMixConfig, TrafficConfig
from immunet.topology import compute_routing, erdos_renyi
from immunet.transport import DATA, TransportState

SIG = bytes.fromhex("a3f1c08e55d2764b9900eeab1275c3d4")
ATTACK = AttackConfig(attack_id=1, signature=SIG.hex(), infects=True, fanout=3)

# chi-square critical value, df=48, alpha=0.001 (standard table)
CHI2_48_999 = 84.037


def fresh_state(n=50, seed=5):
    net = erdos_renyi(n, 0.1, random.Random(seed))
    return TransportState(net, compute_routing(net), 32)


def all_healthy(state, vulnerable=True):
    """Every node vulnerable (or none) and none infected."""
    return set(state.network.nodes) if vulnerable else set(), {}


class TestBackground:

    def test_rate_zero(self, rng):
        state = fresh_state()
        traffic = TrafficConfig(background_rate=0.0, distribution="fixed")
        assert inject_background(state, traffic, {}, rng) == []

    def test_fixed_rate_exact_count(self, rng):
        state = fresh_state()
        traffic = TrafficConfig(background_rate=5.0, distribution="fixed")
        total = sum(len(inject_background(state, traffic, {}, rng)) for _ in range(100))
        assert total == 500

    def test_poisson_mean_within_3_se(self):
        rng = random.Random(60)
        draws = [poisson(rng, 5.0) for _ in range(10_000)]
        mean = sum(draws) / len(draws)
        se = math.sqrt(5.0 / len(draws))
        assert abs(mean - 5.0) <= 3 * se

    def test_poisson_large_rate_splits_within_3_se(self):
        """Above 500 the rate is split in halves, so exp(-lam) never
        underflows; the sum keeps the mean."""
        rng = random.Random(61)
        draws = [poisson(rng, 2000.0) for _ in range(400)]
        mean = sum(draws) / len(draws)
        assert abs(mean - 2000.0) <= 3 * math.sqrt(2000.0 / len(draws))
        assert len(set(draws)) > 1

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_poisson_non_positive_rate_draws_nothing(self, lam):
        rng = random.Random(62)
        assert [poisson(rng, lam) for _ in range(10)] == [0] * 10

    @pytest.mark.parametrize("length", [len(SIG), 4])
    def test_attack_payload_no_longer_than_signature_is_the_signature(self, rng, length):
        assert attack_payload(rng, ATTACK, length) == SIG

    def test_src_dst_distinct(self, rng):
        state = fresh_state()
        traffic = TrafficConfig(background_rate=50.0, distribution="fixed")
        for pkt in inject_background(state, traffic, {}, rng):
            assert pkt.src != pkt.dst
            assert pkt.klass == DATA

    def test_benign_payload_avoids_signatures(self, rng):
        for _ in range(1000):
            payload = benign_payload(rng, 64, [SIG, b"\x00\x00"])
            assert SIG not in payload and b"\x00\x00" not in payload

    def test_attack_mix_injects_marked_packets(self, rng):
        state = fresh_state()
        traffic = TrafficConfig(background_rate=0.0, distribution="fixed",
                                attack_mix=[AttackMixConfig(attack_id=1, rate=4.0)])
        packets = inject_background(state, traffic, {1: ATTACK}, rng)
        assert len(packets) == 4
        assert all(p.attack == 1 and SIG in p.payload for p in packets)


class TestWorm:

    def test_spawn_on_vulnerable(self):
        state = fresh_state()
        vulnerable, infected = all_healthy(state)
        assert spawn_worm(state, vulnerable, infected, ATTACK, 7)
        assert infected == {7: 1}
        infects = [ev for ev in state.log.events if ev[1] == "Infect"]
        assert len(infects) == 1 and field(infects[0], "ok") == 1
        assert infects[0][0] == 0

    def test_spawn_on_patched_fails(self):
        state = fresh_state()
        vulnerable, infected = all_healthy(state, vulnerable=False)
        assert not spawn_worm(state, vulnerable, infected, ATTACK, 7)
        assert infected == {}
        infects = [ev for ev in state.log.events if ev[1] == "Infect"]
        assert len(infects) == 1 and field(infects[0], "ok") == 0

    def test_spawn_of_a_non_infecting_attack_is_refused(self):
        state = fresh_state()
        vulnerable, infected = all_healthy(state)
        harmless = AttackConfig(attack_id=2, signature=SIG.hex(), infects=False)
        with pytest.raises(ValueError, match="^spawn_worm needs an infecting attack$"):
            spawn_worm(state, vulnerable, infected, harmless, 7)
        assert infected == {} and not state.log.events

    def test_double_spawn_idempotent(self):
        state = fresh_state()
        vulnerable, infected = all_healthy(state)
        spawn_worm(state, vulnerable, infected, ATTACK, 7)
        assert spawn_worm(state, vulnerable, infected, ATTACK, 7)
        assert sum(1 for ev in state.log.events if ev[1] == "Infect") == 1

    def test_emit_carries_signature(self, rng):
        state = fresh_state()
        packets = worm_emit(state, 7, ATTACK, rng, payload_len=64)
        assert len(packets) == 3
        for pkt in packets:
            assert SIG in pkt.payload
            assert pkt.attack == 1
            assert pkt.dst != 7

    def test_cure_pops_the_infection_and_waiting_packets_but_not_vulnerability(self, rng):
        state = fresh_state()
        vulnerable, infected = all_healthy(state)
        spawn_worm(state, vulnerable, infected, ATTACK, 7)
        state.queues[7].budget = 0  # the node injects nothing more this step
        state.offer(worm_emit(state, 7, ATTACK, rng, 64))
        assert len(state.queues[7].waiting) == 3
        assert cure(state, infected, 7) == 1
        assert infected == {} and 7 in vulnerable
        assert not state.queues[7].waiting
        assert cure(state, infected, 8) is None

    def test_emission_dst_uniform_chi_square(self):
        state = fresh_state()
        one_shot = AttackConfig(attack_id=1, signature=SIG.hex(), infects=True, fanout=1)
        rng = random.Random(314)
        counts = Counter()
        trials = 2000
        for _ in range(trials):
            (pkt,) = worm_emit(state, 0, one_shot, rng, 32)
            counts[pkt.dst] += 1
        expected = trials / 49
        chi2 = sum((counts.get(n, 0) - expected) ** 2 / expected
                   for n in state.network.nodes if n != 0)
        assert chi2 < CHI2_48_999

    def test_delivery_infects_vulnerable(self):
        state = fresh_state()
        vulnerable, infected = all_healthy(state)
        pkt = state.make_packet(0, 5, DATA, payload=SIG, attack=1)
        on_attack_delivery(state, vulnerable, infected, pkt, ATTACK)
        assert infected == {5: 1}

    def test_delivery_absorbed_by_patched(self):
        state = fresh_state()
        vulnerable, infected = all_healthy(state, vulnerable=False)
        pkt = state.make_packet(0, 5, DATA, payload=SIG, attack=1)
        on_attack_delivery(state, vulnerable, infected, pkt, ATTACK)
        assert infected == {}
        assert not [ev for ev in state.log.events if ev[1] == "Infect"]

    def test_delivery_to_infected_no_duplicate_event(self):
        state = fresh_state()
        vulnerable, infected = all_healthy(state)
        spawn_worm(state, vulnerable, infected, ATTACK, 5)
        pkt = state.make_packet(0, 5, DATA, payload=SIG, attack=1)
        on_attack_delivery(state, vulnerable, infected, pkt, ATTACK)
        assert sum(1 for ev in state.log.events if ev[1] == "Infect") == 1

