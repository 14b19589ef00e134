"""Time-stepped packet transport: bounded two-lane priority queues and the step loop.

One step runs a fixed phase order: (1) traffic injection, (2) per-node
dequeue and forwarding within per-link bandwidth budgets, (3) arrival
checking and admission, (4) infected-node emission, (5) cell actions,
(6) pheromone evaporation, (7) station actions. Packets injected
during a step become forwardable the next step, so a packet needs
exactly one step per hop. One dequeue loop serves both lanes in
priority order: the immune lane, then the data lane only once the
immune lane is empty. The sweep walks the nodes by position (ascending
id) and reads each packet's next hop from its destination's routing row
at that position. A lane stops at the first packet whose next link has
no budget left, even when packets behind it could use other links
(head-of-line blocking).

Every packet gets onto the wire through `TransportState`, which writes
its `Inject` line. A data packet is staged at its own source, and a
node stages at most as many per step as the sum of its link bandwidths.
The excess waits in the node's FIFO and is logged only when staged. At
the start of each step, before the inject hook, every budget is renewed
and each node's waiting packets take it first, in ascending node id.
Staged packets join their queue after the step's arrivals (phase 3), so
a data packet offered in phase 4 joins its queue after the next step's
arrivals. A cure drops the node's waiting packets, which were never
logged. Immune cargo, a cell or a sealed substance, is sent outside the
budget and enqueued at once.

The per-packet hooks run only where they can act. The sweep calls the
forward hook only for a packet with cargo; a plain data packet needs no
per-hop work beyond its `Forward` line. An arrival is checked only at a
node in `StepHooks.checked`, and the deliver hook runs at the packet's
`dst` only for a packet with cargo or an attack id. Under
`strict_checks`, fixed when the state is built, each enqueue stamps the
packet's `seq` from one counter, and the sweep checks queue bounds,
lane priority and per-lane FIFO order; a failed check raises
`QueueViolation`, which `python -O` does not strip.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Collection

from .events import EventLog
from .topology import Network, Routes, UnknownNode

IMMUNE = "Immune"
DATA = "Data"

ACCEPTED = "Accepted"
DROPPED = "Dropped"


class ConservationViolation(AssertionError):
    def __init__(self, pid: int, reason: str):
        super().__init__(f"packet {pid}: {reason}")
        self.pid = pid


class QueueViolation(AssertionError):
    """A strict-mode queue check failed: capacity, lane priority or FIFO order."""

    def __init__(self, node: int, reason: str):
        super().__init__(f"node {node}: {reason}")
        self.node = node


@dataclass(slots=True)
class Packet:
    pid: int
    src: int
    dst: int
    klass: str
    payload: bytes = b""
    attack: int | None = None
    hop_count: int = 0
    cargo: object = None  # in-simulation freight: a cell or a sealed substance
    # (store, verdict) of the last store to scan the payload, kept across hops and
    # cells: a verdict, false positives included, depends only on those two
    scan: tuple | None = field(default=None, compare=False, repr=False)
    seq: int = field(default=-1, compare=False, repr=False)  # enqueue order, under strict_checks

    def __post_init__(self):
        if self.klass not in (IMMUNE, DATA):
            raise ValueError(f"bad packet class {self.klass!r}")


class NodeQueue:
    """One node's transport record: a bounded queue with a strict-priority
    immune lane over the data lane, and the node's injection admission:
    `cap` data packets staged per step, `budget` of them left this step,
    and the offered packets `waiting` for budget.

    `waiting` has no bound: a node offered more than its budget each step
    holds ever more packets, none of them in the log until it is staged.
    A cure (`clear_deferred`) discards them with no log line."""

    def __init__(self, cap: int):
        self.immune: deque[Packet] = deque()
        self.data: deque[Packet] = deque()
        self.cap = self.budget = cap
        self.waiting: deque[Packet] = deque()

    def occupancy(self) -> int:
        return len(self.immune) + len(self.data)


@dataclass
class StepHooks:
    """Per-phase callbacks supplied by the orchestration layer.

    All callbacks run synchronously inside step() in phase order; the
    transport layer itself never consumes randomness. `on_forward` runs
    only for a packet whose `cargo` is not None, `on_arrival` only for an
    arrival at a node in `checked`, read at the arrival, and `on_deliver`,
    at `pkt.dst`, only for a packet with cargo or an attack id.
    """

    inject: Callable = lambda state: None
    on_forward: Callable = lambda state, pkt, u, v: None
    on_arrival: Callable = lambda state, node, pkt, from_node: False  # True = destroyed
    on_deliver: Callable = lambda state, pkt: None
    emit: Callable = lambda state: None
    cells: Callable = lambda state: None
    evaporate: Callable = lambda state: None
    stations: Callable = lambda state: None
    # nodes whose arrivals go to on_arrival; World passes the defence map's keys
    checked: Collection[int] = frozenset()


class TransportState:
    """Clock, queues, routing and event log for one run.

    `routing.rows[dst][i]` is the next hop towards `dst` from the node at
    position `i` of `network.nodes`. `queues` holds one `NodeQueue` per
    node id, in ascending id, each bounded by `capacity` packets.
    `strict_checks` is fixed here: the FIFO check needs the enqueue order
    of every packet from the first enqueue on.
    """

    def __init__(self, network: Network, routing: Routes, capacity: int, *,
                 strict_checks: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.network = network
        self.routing = routing
        self.capacity = capacity
        self.clock = 0
        self.log = log = EventLog()
        # the keys of each fixed-key event this module appends in place; Evict
        # stays on `append`, whose calls perfbench/tracer.py counts as evictions
        self._inject_keys = log.keys("Inject", "pid", "node", "src", "dst", "klass", "attack")
        self._forward_keys = log.keys("Forward", "pid", "src", "dst", "klass", "attack")
        self._deliver_keys = log.keys("Deliver", "pid", "node", "klass", "attack", "hops")
        self._overflow_keys = log.keys("Drop", "pid", "node", "klass", "attack", "reason")
        self._step_keys = log.keys("Step")
        self.queues: dict[int, NodeQueue] = {n: NodeQueue(sum(network.bandwidth[n].values()))
                                             for n in network.nodes}
        self._pids = itertools.count()
        self._staged: list[Packet] = []  # enqueued at their source after this step's arrivals
        self._strict = strict_checks
        self._enqueues = itertools.count()  # stamps `Packet.seq` under strict_checks

    @property
    def strict_checks(self) -> bool:
        return self._strict

    def make_packet(self, src: int, dst: int, klass: str, payload: bytes = b"",
                    attack: int | None = None, cargo: object = None) -> Packet:
        return Packet(next(self._pids), src, dst, klass, payload, attack, cargo=cargo)

    def offer(self, packets) -> None:
        """Stage each data packet at its source within the source's budget;
        the rest wait there."""
        queues, staged = self.queues, self._staged
        put, keys, now = self.log.events.append, self._inject_keys, self.clock
        for pkt in packets:
            src = pkt.src
            q = queues.get(src)
            if q is None:
                raise UnknownNode(src)
            if q.budget > 0:
                q.budget -= 1
                put((now, "Inject", keys, pkt.pid, src, src, pkt.dst, pkt.klass, pkt.attack))
                staged.append(pkt)
            else:
                q.waiting.append(pkt)

    def _release_deferred(self) -> None:
        """Renew every budget and offer each node's waiting packets again first."""
        for q in self.queues.values():  # built in ascending node id
            q.budget = q.cap
            if q.waiting:
                waiting, q.waiting = q.waiting, deque()
                self.offer(waiting)

    def clear_deferred(self, node: int) -> None:
        self.queues[node].waiting.clear()

    def send(self, src: int, dst: int, cargo: object) -> str:
        """Inject an immune packet carrying `cargo` into `src`'s queue now;
        returns Accepted or Dropped."""
        pkt = self.make_packet(src, dst, IMMUNE, cargo=cargo)
        self.log.events.append((self.clock, "Inject", self._inject_keys, pkt.pid, src, src, dst,
                                IMMUNE, None))
        return self.enqueue(src, pkt)

    def enqueue(self, node: int, pkt: Packet) -> str:
        """Admit a packet to a node queue; returns Accepted or Dropped.

        A full queue drops the newcomer, except that an immune packet
        evicts the newest queued data packet when one exists.
        """
        q = self.queues.get(node)
        if q is None:
            raise UnknownNode(node)
        immune, data = q.immune, q.data
        if len(immune) + len(data) < self.capacity:
            (immune if pkt.klass == IMMUNE else data).append(pkt)
        elif pkt.klass == IMMUNE and data:
            victim = data.pop()
            self.log.append(self.clock, "Evict", pid=victim.pid, node=node,
                            klass=victim.klass, attack=victim.attack, by=pkt.pid)
            immune.append(pkt)
        else:
            self.log.events.append((self.clock, "Drop", self._overflow_keys, pkt.pid, node,
                                    pkt.klass, pkt.attack, "overflow"))
            return DROPPED
        if self._strict:
            pkt.seq = next(self._enqueues)
            if len(immune) + len(data) > self.capacity:
                raise QueueViolation(node, "queue over capacity")
        return ACCEPTED

    def held(self) -> dict[int, int]:
        """pid -> node of each packet the state holds: queued, or staged to
        join the queue of its source."""
        held = {pkt.pid: pkt.src for pkt in self._staged}
        for node, q in self.queues.items():
            for lane in (q.immune, q.data):
                held.update((pkt.pid, node) for pkt in lane)
        return held

    def in_flight(self) -> int:
        return len(self.held())


def step(state: TransportState, hooks: StepHooks | None = None) -> None:
    """Advance the simulation by exactly one time step."""
    hooks = hooks or StepHooks()
    now = state.clock

    # phase 1: injection (staged; admitted after the dequeue sweep)
    state._release_deferred()
    hooks.inject(state)

    # bound once per step: the sweep below runs once per forwarded packet,
    # and each forward and delivery appends its fixed-key record in place
    put = state.log.events.append
    forward_keys, deliver_keys = state._forward_keys, state._deliver_keys
    on_forward = hooks.on_forward
    next_hops = state.routing.rows
    queues = state.queues
    strict = state.strict_checks

    # phase 2: per-node dequeue by position (ascending node id), immune lane strictly first
    arrivals: list[tuple[int, int, Packet]] = []
    bandwidth = state.network.bandwidth
    for i, node in enumerate(state.network.nodes):
        q = queues[node]
        immune, data = q.immune, q.data
        if not immune and not data:
            continue
        budgets = bandwidth[node].copy()  # forward within this step's link budgets
        for lane in (immune, data):
            last_seq = -1
            while lane:
                pkt = lane[0]
                nh = next_hops[pkt.dst][i]
                if budgets[nh] <= 0:
                    break
                budgets[nh] -= 1
                lane.popleft()
                if strict:
                    if lane is data and immune:
                        raise QueueViolation(node, "data forwarded while immune queued")
                    if pkt.seq <= last_seq:
                        raise QueueViolation(node, f"{pkt.klass} lane FIFO violated")
                    last_seq = pkt.seq
                pkt.hop_count += 1
                put((now, "Forward", forward_keys, pkt.pid, node, nh, pkt.klass, pkt.attack))
                if pkt.cargo is not None:
                    on_forward(state, pkt, node, nh)
                arrivals.append((node, nh, pkt))
            if lane:
                break  # strict priority: data waits while immune packets remain

    # phase 3: arrivals are checked, then delivered or admitted
    checked, on_arrival, on_deliver = hooks.checked, hooks.on_arrival, hooks.on_deliver
    enqueue = state.enqueue
    for from_node, node, pkt in arrivals:
        if node in checked and on_arrival(state, node, pkt, from_node):
            continue  # destroyed
        if node == pkt.dst:
            put((now, "Deliver", deliver_keys, pkt.pid, node, pkt.klass, pkt.attack,
                 pkt.hop_count))
            if pkt.cargo is not None or pkt.attack is not None:
                on_deliver(state, pkt)
        else:
            enqueue(node, pkt)
    for pkt in state._staged:
        enqueue(pkt.src, pkt)
    state._staged.clear()

    # phases 4-7
    hooks.emit(state)
    hooks.cells(state)
    hooks.evaporate(state)
    hooks.stations(state)

    put((now, "Step", state._step_keys))
    state.clock += 1


_TERMINAL = frozenset(("Deliver", "Drop", "Evict", "Detect"))


def conservation_audit(events) -> dict[int, int]:
    """Check each packet's lifecycle and path in a log and return the
    packets it leaves in flight, as pid -> the node the log last put it at.

    A packet is injected once, then forwarded while live, and ends at most
    once (Deliver, Drop, Evict or Detect). A Forward leaves the node where
    the log last put the packet, and its terminal line names that node.
    Raises ConservationViolation naming the first packet that breaks this,
    and TypeError for a record that is not an event tuple
    `(step, kind, keys, *values)`. The offsets of `pid`, `node`, `src` and
    `dst` are found once per key sequence, and fetched again only when a
    record's `keys` object is not the one of the record before it.
    """
    at: dict[int, int] = {}  # pid -> node, until its terminal line
    ended: set[int] = set()
    offsets: dict[tuple, tuple] = {}  # keys -> offsets of pid, node, src, dst
    keys, pid_at = (), None  # a record with no fields holds no packet
    try:
        for rec in events:
            if type(rec) is not tuple:
                raise TypeError
            if rec[2] is not keys:
                keys = rec[2]
                found = offsets.get(keys)
                if found is None:
                    if type(keys) is not tuple:
                        raise TypeError
                    found = offsets[keys] = tuple(3 + keys.index(k) if k in keys else None
                                                  for k in ("pid", "node", "src", "dst"))
                pid_at, node_at, src_at, dst_at = found
            if pid_at is None:
                continue
            pid = rec[pid_at]
            if pid is None:
                continue
            kind = rec[1]
            if kind == "Forward":
                node = at.get(pid)
                if node is None:
                    raise ConservationViolation(pid, "Forward outside live lifecycle")
                if rec[src_at] != node:
                    raise ConservationViolation(pid, f"Forward from {rec[src_at]}, logged at {node}")
                at[pid] = rec[dst_at]
            elif kind == "Inject":
                if pid in at or pid in ended:
                    raise ConservationViolation(pid, "injected twice")
                at[pid] = rec[node_at]
            elif kind in _TERMINAL:
                node = at.pop(pid, None)
                if node is None:
                    raise ConservationViolation(pid, f"{kind} after terminal event" if pid in ended
                                                else f"{kind} without Inject")
                if rec[node_at] != node:
                    raise ConservationViolation(pid, f"{kind} at {rec[node_at]}, logged at {node}")
                ended.add(pid)
    except (TypeError, IndexError):
        raise TypeError("audit wants event records: (step, kind, keys, *values) tuples") from None
    return at
