"""Traffic generation and the infection model: background load, attacks,
and the worm's entry, delivery, propagation and cure.

The world holds the infection model as a set of vulnerable nodes, only
ever tested for membership, and a map from each infected node to its
attack's id. The cure follows an SIS epidemic (Kephart & White, IEEE S&P
1991): it clears the infection and drops the node's deferred worm packets
but leaves the node vulnerable, so attack packets injected before the
cure can reinfect it on delivery. The paper's abstract does not settle
whether a cured host stays susceptible; this is the rule the simulator
follows. Packets are built here and admitted by `TransportState.offer`.
An attack is the scenario's `AttackConfig` record, as validated, and an
attack-mix entry its `AttackMixConfig`.
"""

from __future__ import annotations

from math import exp
from random import Random

from .scenario import AttackConfig, TrafficConfig
from .transport import DATA, Packet, TransportState


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
                      attacks: dict[int, AttackConfig], rng: Random) -> list[Packet]:
    """Build this step's benign data packets (uniform distinct src != dst),
    free of every signature in `attacks`, then each `attack_mix` entry's
    attack packets."""
    nodes = state.network.nodes
    length = traffic.payload_len
    forbidden = [attack.signature_bytes() for attack in attacks.values()]
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


def spawn_worm(state: TransportState, vulnerable: set[int], infected: dict[int, int],
               attack: AttackConfig, entry: int) -> bool:
    """Worm entry through a security hole; returns True when the node falls."""
    if not attack.infects:
        raise ValueError("spawn_worm needs an infecting attack")
    if infected.get(entry) == attack.attack_id:
        return True  # repeat entry is a no-op
    falls = entry in vulnerable
    if falls:
        infected[entry] = attack.attack_id
    state.log.append(state.clock, "Infect", node=entry, attack=attack.attack_id,
                     ok=int(falls), via="entry")
    return falls


def worm_emit(state: TransportState, node: int, attack: AttackConfig, rng: Random,
              payload_len: int) -> list[Packet]:
    """One step of propagation from an infected node: fanout copies to
    uniformly random other nodes, each payload carrying the signature."""
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


def on_attack_delivery(state: TransportState, vulnerable: set[int], infected: dict[int, int],
                       pkt: Packet, attack: AttackConfig) -> None:
    """An attack packet survived every check and reached its destination."""
    node = pkt.dst
    if not attack.infects or node not in vulnerable or node in infected:
        return  # absorbed harmlessly / already owned
    infected[node] = attack.attack_id
    state.log.append(state.clock, "Infect", node=node, attack=attack.attack_id,
                     ok=1, via="delivery", pid=pkt.pid)


def cure(state: TransportState, infected: dict[int, int], node: int) -> int | None:
    """Cure `node` by the SIS rule of the module docstring; returns the id
    of the attack that held it, or None for a clean node."""
    attack = infected.pop(node, None)
    if attack is not None:
        state.clear_deferred(node)
    return attack
