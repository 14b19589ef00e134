"""Traffic generation and attacks: background load, worm entry, and propagation.

The adversary stresses the network with benign data packets and injects
attacks; infected nodes keep emitting attack packets until disinfected.
Disinfection clears the infection and drops the node's deferred worm
packets but leaves it vulnerable, so attack packets already in flight can
reinfect it (SIS rather than SIR; the paper's abstract does not settle this).
Packets are built here and admitted by `TransportState.offer`. An attack
is the scenario's `AttackConfig` record, as validated, and an attack-mix
entry its `AttackMixConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp
from random import Random

from .scenario import AttackConfig, TrafficConfig
from .topology import UnknownNode
from .transport import DATA, Packet, TransportState


@dataclass
class NodeHealth:
    vulnerable: bool
    infected_by: int | None = None

    @property
    def infected(self) -> bool:
        return self.infected_by is not None


def poisson(rng: Random, lam: float) -> int:
    """Knuth's product-of-uniforms sampler, split to stay in float range."""
    if lam <= 0:
        return 0
    if lam > 500:
        half = lam / 2.0
        return poisson(rng, half) + poisson(rng, lam - half)
    limit = exp(-lam)
    count = 0
    prod = rng.random()
    while prod > limit:
        count += 1
        prod *= rng.random()
    return count


def draw_count(rng: Random, rate: float, distribution: str) -> int:
    if distribution == "fixed":
        return int(round(rate))
    return poisson(rng, rate)


def benign_payload(rng: Random, length: int, forbidden) -> bytes:
    """Random bytes rejection-sampled to contain no configured signature."""
    while True:
        payload = rng.randbytes(length)
        if not any(sig in payload for sig in forbidden):
            return payload


def attack_payload(rng: Random, attack: AttackConfig, length: int) -> bytes:
    sig = attack.signature_bytes()
    if length <= len(sig):
        return sig
    offset = rng.randrange(length - len(sig) + 1)
    filler = rng.randbytes(length - len(sig))
    return filler[:offset] + sig + filler[offset:]


def _endpoints(rng: Random, nodes) -> tuple[int, int]:
    """A uniform source and a uniform destination other than it."""
    src = nodes[rng.randrange(len(nodes))]
    dst = src
    while dst == src:
        dst = nodes[rng.randrange(len(nodes))]
    return src, dst


def inject_background(state: TransportState, traffic: TrafficConfig,
                      attacks: dict[int, AttackConfig], rng: Random, forbidden=()) -> list[Packet]:
    """Build this step's benign data packets (uniform distinct src != dst),
    then each `attack_mix` entry's attack packets."""
    nodes = state.network.nodes
    length = traffic.payload_len
    packets = []
    for _ in range(draw_count(rng, traffic.background_rate, traffic.distribution)):
        src, dst = _endpoints(rng, nodes)
        packets.append(state.make_packet(src, dst, DATA,
                                         payload=benign_payload(rng, length, forbidden)))
    for entry in traffic.attack_mix:
        attack = attacks[entry.attack_id]
        for _ in range(draw_count(rng, entry.rate, traffic.distribution)):
            src, dst = _endpoints(rng, nodes)
            packets.append(state.make_packet(src, dst, DATA,
                                             payload=attack_payload(rng, attack, length),
                                             attack=attack.attack_id))
    return packets


def spawn_worm(state: TransportState, health: dict[int, NodeHealth],
               attack: AttackConfig, entry: int) -> bool:
    """Worm entry through a security hole; returns True when the node falls."""
    if not attack.infects:
        raise ValueError("spawn_worm needs an infecting attack")
    if entry not in health:
        raise UnknownNode(entry)
    h = health[entry]
    if h.infected_by == attack.attack_id:
        return True  # repeat entry is a no-op
    if not h.vulnerable:
        state.log.append(state.clock, "Infect", node=entry, attack=attack.attack_id,
                         ok=0, via="entry")
        return False
    h.infected_by = attack.attack_id
    state.log.append(state.clock, "Infect", node=entry, attack=attack.attack_id,
                     ok=1, via="entry")
    return True


def worm_emit(state: TransportState, health: dict[int, NodeHealth], node: int,
              attack: AttackConfig, rng: Random, payload_len: int = 64) -> list[Packet]:
    """One step of propagation from an infected node: fanout copies to
    uniformly random other nodes, each payload carrying the signature."""
    h = health.get(node)
    if h is None or h.infected_by != attack.attack_id:
        return []
    nodes = state.network.nodes
    packets = []
    for _ in range(attack.fanout):
        dst = node
        while dst == node:
            dst = nodes[rng.randrange(len(nodes))]
        packets.append(state.make_packet(node, dst, DATA,
                                         payload=attack_payload(rng, attack, payload_len),
                                         attack=attack.attack_id))
    return packets


def on_attack_delivery(state: TransportState, health: dict[int, NodeHealth],
                       node: int, pkt: Packet, attacks: dict[int, AttackConfig]) -> None:
    """An attack packet survived every check and reached its destination."""
    attack = attacks.get(pkt.attack)
    if attack is None or not attack.infects:
        return
    h = health[node]
    if not h.vulnerable or h.infected:
        return  # absorbed harmlessly / already owned
    h.infected_by = attack.attack_id
    state.log.append(state.clock, "Infect", node=node, attack=attack.attack_id,
                     ok=1, via="delivery", pid=pkt.pid)

