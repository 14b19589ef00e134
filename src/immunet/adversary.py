"""Traffic generation and attacks: background load, worm entry, and propagation.

The adversary stresses the network with benign data packets and injects
attacks; infected nodes keep emitting attack packets until disinfected.
Disinfection clears the infection and drops the node's deferred worm
packets but leaves it vulnerable, so attack packets already in flight can
reinfect it (SIS rather than SIR; the paper's abstract does not settle this).
Injection respects the source node's total link bandwidth per step, with
the excess deferred, so the only packet loss is queue loss.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import exp
from random import Random

from .topology import Network, UnknownNode
from .transport import DATA, Packet, TransportState


@dataclass(frozen=True)
class AttackDef:
    attack_id: int
    signature: bytes
    infects: bool = True
    fanout: int = 0

    def __post_init__(self):
        if not self.signature:
            raise ValueError("attack signature must be non-empty")
        if self.fanout < 0:
            raise ValueError("fanout must be >= 0")


@dataclass
class NodeHealth:
    vulnerable: bool
    infected_by: int | None = None
    infected_at: int | None = None

    @property
    def infected(self) -> bool:
        return self.infected_by is not None


@dataclass
class TrafficModel:
    background_rate: float
    distribution: str = "poisson"  # or "fixed"
    payload_len: int = 64
    attack_mix: list[tuple[AttackDef, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.background_rate < 0:
            raise ValueError("background_rate must be >= 0")
        if self.distribution not in ("poisson", "fixed"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if any(rate < 0 for _a, rate in self.attack_mix):
            raise ValueError("attack rates must be >= 0")


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


def attack_payload(rng: Random, attack: AttackDef, length: int) -> bytes:
    sig = attack.signature
    if length <= len(sig):
        return sig
    offset = rng.randrange(length - len(sig) + 1)
    filler = rng.randbytes(length - len(sig))
    return filler[:offset] + sig + filler[offset:]


def inject_background(state: TransportState, model: TrafficModel, rng: Random,
                      forbidden=()) -> list[Packet]:
    """Build this step's benign data packets (uniform distinct src != dst)."""
    nodes = state.network.nodes
    packets = []
    for _ in range(draw_count(rng, model.background_rate, model.distribution)):
        src = nodes[rng.randrange(len(nodes))]
        dst = src
        while dst == src:
            dst = nodes[rng.randrange(len(nodes))]
        packets.append(state.make_packet(src, dst, DATA,
                                         payload=benign_payload(rng, model.payload_len, forbidden)))
    for attack, rate in model.attack_mix:
        for _ in range(draw_count(rng, rate, model.distribution)):
            src = nodes[rng.randrange(len(nodes))]
            dst = src
            while dst == src:
                dst = nodes[rng.randrange(len(nodes))]
            packets.append(state.make_packet(src, dst, DATA,
                                             payload=attack_payload(rng, attack, model.payload_len),
                                             attack=attack.attack_id))
    return packets


def spawn_worm(state: TransportState, health: dict[int, NodeHealth],
               attack: AttackDef, entry: int) -> bool:
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
    h.infected_at = state.clock
    state.log.append(state.clock, "Infect", node=entry, attack=attack.attack_id,
                     ok=1, via="entry")
    return True


def worm_emit(state: TransportState, health: dict[int, NodeHealth], node: int,
              attack: AttackDef, rng: Random, payload_len: int = 64) -> list[Packet]:
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
                       node: int, pkt: Packet, attacks: dict[int, AttackDef]) -> None:
    """An attack packet survived every check and reached its destination."""
    attack = attacks.get(pkt.attack)
    if attack is None or not attack.infects:
        return
    h = health[node]
    if not h.vulnerable or h.infected:
        return  # absorbed harmlessly / already owned
    h.infected_by = attack.attack_id
    h.infected_at = state.clock
    state.log.append(state.clock, "Infect", node=node, attack=attack.attack_id,
                     ok=1, via="delivery", pid=pkt.pid)


class InjectionGate:
    """Per-node, per-step injection budget equal to the node's total link
    bandwidth; excess packets wait in a FIFO and are never silently lost."""

    def __init__(self, network: Network):
        self._budget_cap = {n: sum(network.bandwidth[n].values()) for n in network.nodes}
        self._deferred: dict[int, deque[Packet]] = {n: deque() for n in network.nodes}
        self._budget: dict[int, int] = {}

    def begin_step(self, state: TransportState) -> None:
        self._budget = dict(self._budget_cap)
        for node in sorted(self._deferred):
            queue = self._deferred[node]
            while queue and self._budget[node] > 0:
                state.stage_injection(node, queue.popleft())
                self._budget[node] -= 1

    def offer(self, state: TransportState, node: int, packets) -> None:
        for pkt in packets:
            if self._budget.get(node, 0) > 0:
                state.stage_injection(node, pkt)
                self._budget[node] -= 1
            else:
                self._deferred[node].append(pkt)

    def clear_deferred(self, node: int) -> int:
        count = len(self._deferred[node])
        self._deferred[node].clear()
        return count

    def pending(self, node: int) -> int:
        return len(self._deferred[node])
