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


def uniform_index(rng: Random, n: int) -> int:
    """A uniform int in [0, n), n >= 1: the value `Random.randrange(n)`
    draws from the same state, by the same rejection loop over
    `getrandbits` (CPython 3.10-3.13), without its three stdlib frames."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def attack_payload(rng: Random, attack: AttackConfig, length: int) -> bytes:
    sig = attack.signature_bytes()
    if length <= len(sig):
        return sig
    size = length - len(sig)
    offset = uniform_index(rng, size + 1)
    filler = rng.getrandbits(8 * size).to_bytes(size, "little")  # `Random.randbytes(size)`
    return filler[:offset] + sig + filler[offset:]


def inject_background(state: TransportState, traffic: TrafficConfig,
                      attacks: dict[int, AttackConfig], rng: Random) -> list[Packet]:
    """Build this step's benign data packets, then each `attack_mix` entry's
    attack packets. Each packet has a uniform source and a uniform
    destination other than it. A benign payload is uniform random bytes,
    drawn again while it holds any signature in `attacks`.

    The benign loop runs once per background packet, so it draws in place
    what `uniform_index` and `Random.randbytes` would draw."""
    nodes = state.network.nodes
    n = len(nodes)
    k = n.bit_length()
    length = traffic.payload_len
    bits = 8 * length
    forbidden = [attack.signature_bytes() for attack in attacks.values()]
    getrandbits, make_packet = rng.getrandbits, state.make_packet
    packets = []
    for _ in range(draw_count(rng, traffic.background_rate, traffic.distribution)):
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        j = i
        while j == i:
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
        while True:
            payload = getrandbits(bits).to_bytes(length, "little")
            for sig in forbidden:
                if sig in payload:
                    break
            else:
                break
        packets.append(make_packet(nodes[i], nodes[j], DATA, payload))
    for entry in traffic.attack_mix:
        attack = attacks[entry.attack_id]
        for _ in range(draw_count(rng, entry.rate, traffic.distribution)):
            i = uniform_index(rng, n)
            j = i
            while j == i:
                j = uniform_index(rng, n)
            packets.append(make_packet(nodes[i], nodes[j], DATA,
                                       attack_payload(rng, attack, length), attack.attack_id))
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
            dst = nodes[uniform_index(rng, len(nodes))]
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
