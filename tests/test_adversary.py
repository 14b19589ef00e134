import math
import random
from collections import Counter

import pytest

from immunet.adversary import (attack_payload, cure, draw_count, inject_background,
                               on_attack_delivery, poisson, spawn_worm, uniform_index, worm_emit)
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
        # a one-byte signature turns about a fifth of the 64-byte draws away
        attacks = {1: ATTACK, 2: AttackConfig(attack_id=2, signature="00")}
        traffic = TrafficConfig(background_rate=1000.0, distribution="fixed")
        packets = inject_background(fresh_state(), traffic, attacks, rng)
        assert len(packets) == 1000
        for pkt in packets:
            assert SIG not in pkt.payload and b"\x00" not in pkt.payload

    def test_attack_mix_injects_marked_packets(self, rng):
        state = fresh_state()
        traffic = TrafficConfig(background_rate=0.0, distribution="fixed",
                                attack_mix=[AttackMixConfig(attack_id=1, rate=4.0)])
        packets = inject_background(state, traffic, {1: ATTACK}, rng)
        assert len(packets) == 4
        assert all(p.attack == 1 and SIG in p.payload for p in packets)


# Reference copies of the draws as they were made through `Random.randrange`
# and `Random.randbytes`: the packets they build are the ones the logs pin.
def reference_attack_payload(rng, attack, length):
    sig = attack.signature_bytes()
    if length <= len(sig):
        return sig
    offset = rng.randrange(length - len(sig) + 1)
    filler = rng.randbytes(length - len(sig))
    return filler[:offset] + sig + filler[offset:]


def reference_endpoints(rng, nodes):
    src = nodes[rng.randrange(len(nodes))]
    dst = src
    while dst == src:
        dst = nodes[rng.randrange(len(nodes))]
    return src, dst


def reference_background(nodes, traffic, attacks, rng):
    forbidden = [attack.signature_bytes() for attack in attacks.values()]
    packets = []
    for _ in range(draw_count(rng, traffic.background_rate, traffic.distribution)):
        src, dst = reference_endpoints(rng, nodes)
        payload = rng.randbytes(traffic.payload_len)
        while any(sig in payload for sig in forbidden):
            payload = rng.randbytes(traffic.payload_len)
        packets.append((src, dst, payload, None))
    for entry in traffic.attack_mix:
        attack = attacks[entry.attack_id]
        for _ in range(draw_count(rng, entry.rate, traffic.distribution)):
            src, dst = reference_endpoints(rng, nodes)
            packets.append((src, dst, reference_attack_payload(rng, attack, traffic.payload_len),
                            attack.attack_id))
    return packets


def reference_worm_emit(nodes, node, attack, rng, payload_len):
    packets = []
    for _ in range(attack.fanout):
        dst = node
        while dst == node:
            dst = nodes[rng.randrange(len(nodes))]
        packets.append((node, dst, reference_attack_payload(rng, attack, payload_len),
                        attack.attack_id))
    return packets


def drawn(packets):
    return [(p.src, p.dst, p.payload, p.attack) for p in packets]


class TestDraws:
    """The draws on `getrandbits` give what `randrange` and `randbytes` gave
    from the same state, so the pinned logs do not move."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 100, 255, 256, 257, 500, 10000])
    def test_uniform_index_is_randrange(self, n):
        ours, stdlib = random.Random(n), random.Random(n)
        assert ([uniform_index(ours, n) for _ in range(1000)]
                == [stdlib.randrange(n) for _ in range(1000)])
        assert ours.getstate() == stdlib.getstate()

    @pytest.mark.parametrize("length", [0, 1, 15, 16, 64, 65])
    def test_byte_draw_is_randbytes(self, length):
        ours, stdlib = random.Random(length), random.Random(length)
        assert ([ours.getrandbits(8 * length).to_bytes(length, "little") for _ in range(1000)]
                == [stdlib.randbytes(length) for _ in range(1000)])
        assert ours.getstate() == stdlib.getstate()

    @pytest.mark.parametrize("payload_len", [4, 16, 64])
    def test_background_and_worm_draw_what_the_stdlib_drew(self, payload_len):
        state = fresh_state()
        nodes = state.network.nodes
        # attack 3's one-byte signature turns benign draws away, and is in no packet's mix
        attacks = {1: ATTACK, 2: AttackConfig(attack_id=2, signature="a3f1c08e", fanout=4),
                   3: AttackConfig(attack_id=3, signature="00", fanout=1)}
        traffic = TrafficConfig(background_rate=40.0, payload_len=payload_len,
                                attack_mix=[AttackMixConfig(attack_id=2, rate=3.0),
                                            AttackMixConfig(attack_id=1, rate=2.0)])
        ours, stdlib = random.Random(payload_len), random.Random(payload_len)
        for _ in range(20):
            assert (drawn(inject_background(state, traffic, attacks, ours))
                    == reference_background(nodes, traffic, attacks, stdlib))
            for attack in attacks.values():
                assert (drawn(worm_emit(state, 7, attack, ours, payload_len))
                        == reference_worm_emit(nodes, 7, attack, stdlib, payload_len))
        assert ours.getstate() == stdlib.getstate()


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

