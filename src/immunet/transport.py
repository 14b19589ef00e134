"""Time-stepped packet transport: bounded two-lane priority queues and the step loop.

One step runs a fixed phase order: (1) traffic injection, (2) per-node
dequeue and forwarding within per-link bandwidth budgets, (3) arrival
checking and admission, (4) infected-node emission, (5) cell actions,
(6) pheromone evaporation, (7) station actions. Packets injected
during a step become forwardable the next step, so a packet needs
exactly one step per hop. One dequeue loop serves both lanes in
priority order: the immune lane, then the data lane only once the
immune lane is empty.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable

from .events import Event, EventLog
from .topology import Network, Routes, UnknownNode

IMMUNE = "Immune"
DATA = "Data"

ACCEPTED = "Accepted"
DROPPED = "Dropped"


class ConservationViolation(AssertionError):
    def __init__(self, pid: int, reason: str):
        super().__init__(f"packet {pid}: {reason}")
        self.pid = pid
        self.reason = reason


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
    # store fingerprint -> scan verdict, shared across hops and cells
    scan_cache: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.klass not in (IMMUNE, DATA):
            raise ValueError(f"bad packet class {self.klass!r}")


class NodeQueue:
    """Bounded queue with a strict-priority immune lane over the data lane."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.immune: deque[Packet] = deque()
        self.data: deque[Packet] = deque()
        self._seq = 0
        self._enq_seq: dict[int, int] = {}  # pid -> enqueue order, for queued packets only

    def occupancy(self) -> int:
        return len(self.immune) + len(self.data)


@dataclass
class StepHooks:
    """Per-phase callbacks supplied by the orchestration layer.

    All callbacks run synchronously inside step() in phase order; the
    transport layer itself never consumes randomness.
    """

    inject: Callable = lambda state: None
    on_forward: Callable = lambda state, pkt, u, v: None
    on_arrival: Callable = lambda state, node, pkt, from_node: False  # True = destroyed
    on_deliver: Callable = lambda state, pkt, node: None
    emit: Callable = lambda state: None
    cells: Callable = lambda state: None
    evaporate: Callable = lambda state: None
    stations: Callable = lambda state: None


class TransportState:
    """Clock, queues, routing, and event log for one run.

    `routing.rows[dst][node]` is the next hop from `node` towards `dst`.
    """

    def __init__(self, network: Network, routing: Routes,
                 capacity: int, log: EventLog | None = None):
        self.network = network
        self.routing = routing
        self.clock = 0
        self.log = log if log is not None else EventLog()
        self.queues: dict[int, NodeQueue] = {n: NodeQueue(capacity) for n in network.nodes}
        self._next_pid = 0
        self._staged_injections: list[tuple[int, Packet]] = []
        self.strict_checks = False

    def new_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def make_packet(self, src: int, dst: int, klass: str, payload: bytes = b"",
                    attack: int | None = None, cargo: object = None) -> Packet:
        return Packet(self.new_pid(), src, dst, klass, payload, attack, cargo=cargo)

    def stage_injection(self, node: int, pkt: Packet) -> None:
        """Log an injection; the packet enters the node's queue at the end of
        the current dequeue phase and becomes forwardable next step."""
        if node not in self.queues:
            raise UnknownNode(node)
        self.log.append(self.clock, "Inject", pid=pkt.pid, node=node, src=pkt.src,
                        dst=pkt.dst, klass=pkt.klass, attack=pkt.attack)
        self._staged_injections.append((node, pkt))

    def enqueue(self, node: int, pkt: Packet) -> str:
        """Admit a packet to a node queue; returns Accepted or Dropped.

        A full queue drops the newcomer, except that an immune packet
        evicts the newest queued data packet when one exists.
        """
        q = self.queues.get(node)
        if q is None:
            raise UnknownNode(node)
        immune, data = q.immune, q.data
        if len(immune) + len(data) < q.capacity:
            (immune if pkt.klass == IMMUNE else data).append(pkt)
        elif pkt.klass == IMMUNE and data:
            victim = data.pop()
            q._enq_seq.pop(victim.pid, None)
            self.log.append(self.clock, "Evict", pid=victim.pid, node=node,
                            klass=victim.klass, attack=victim.attack, by=pkt.pid)
            immune.append(pkt)
        else:
            self.log.append(self.clock, "Drop", pid=pkt.pid, node=node,
                            klass=pkt.klass, attack=pkt.attack, reason="overflow")
            return DROPPED
        q._enq_seq[pkt.pid] = q._seq
        q._seq += 1
        if self.strict_checks:
            assert len(immune) + len(data) <= q.capacity, "queue over capacity"
        return ACCEPTED

    def in_flight(self) -> int:
        return sum(q.occupancy() for q in self.queues.values()) + len(self._staged_injections)


def step(state: TransportState, hooks: StepHooks | None = None) -> None:
    """Advance the simulation by exactly one time step."""
    hooks = hooks or StepHooks()
    now = state.clock

    # phase 1: injection (staged; admitted after the dequeue sweep)
    hooks.inject(state)

    # bound once per step: the sweep below runs once per forwarded packet
    append = state.log.append
    on_forward = hooks.on_forward
    next_hops = state.routing.rows
    queues = state.queues
    strict = state.strict_checks

    # phase 2: per-node dequeue, ascending node id, immune lane strictly first
    arrivals: list[tuple[int, int, Packet]] = []
    bandwidth = state.network.bandwidth
    for node in state.network.nodes:
        q = queues[node]
        immune, data = q.immune, q.data
        if not immune and not data:
            continue
        budgets = bandwidth[node].copy()  # forward within this step's link budgets
        release = q._enq_seq.pop  # forget a leaving packet; returns its enqueue order
        for lane in (immune, data):
            last_seq = -1
            while lane:
                pkt = lane[0]
                nh = next_hops[pkt.dst][node]
                if budgets[nh] <= 0:
                    break
                budgets[nh] -= 1
                lane.popleft()
                seq = release(pkt.pid, -1)
                if strict:
                    assert lane is immune or not immune, "data forwarded while immune queued"
                    assert seq > last_seq, f"{pkt.klass} lane FIFO violated"
                    last_seq = seq
                pkt.hop_count += 1
                append(now, "Forward", pid=pkt.pid, src=node, dst=nh,
                       klass=pkt.klass, attack=pkt.attack)
                on_forward(state, pkt, node, nh)
                arrivals.append((node, nh, pkt))
            if lane:
                break  # strict priority: data waits while immune packets remain

    # phase 3: arrivals are checked, then delivered or admitted
    on_arrival, on_deliver, enqueue = hooks.on_arrival, hooks.on_deliver, state.enqueue
    for from_node, node, pkt in arrivals:
        if on_arrival(state, node, pkt, from_node):
            continue  # destroyed
        if node == pkt.dst:
            append(now, "Deliver", pid=pkt.pid, node=node,
                   klass=pkt.klass, attack=pkt.attack, hops=pkt.hop_count)
            on_deliver(state, pkt, node)
        else:
            enqueue(node, pkt)
    for node, pkt in state._staged_injections:
        enqueue(node, pkt)
    state._staged_injections.clear()

    # phases 4-7
    hooks.emit(state)
    hooks.cells(state)
    hooks.evaporate(state)
    hooks.stations(state)

    append(now, "Step")
    state.clock += 1


@dataclass
class AuditReport:
    injected: Counter = field(default_factory=Counter)
    delivered: Counter = field(default_factory=Counter)
    dropped: Counter = field(default_factory=Counter)  # includes evictions
    evicted: Counter = field(default_factory=Counter)
    destroyed: Counter = field(default_factory=Counter)
    in_flight: Counter = field(default_factory=Counter)


_TERMINAL = {"Deliver": "delivered", "Drop": "dropped", "Evict": "dropped", "Detect": "destroyed"}


def conservation_audit(events) -> AuditReport:
    """Check injected = delivered + dropped + destroyed + in-flight, per class.

    Raises ConservationViolation naming the first offending packet.
    """
    report = AuditReport()
    state: dict[int, tuple[str, str]] = {}  # pid -> (lifecycle, class)
    for ev in events:
        if not isinstance(ev, Event):
            raise TypeError("audit wants Event records")
        pid = ev.get("pid")
        if pid is None:
            continue
        if ev.kind == "Inject":
            if pid in state:
                raise ConservationViolation(pid, "injected twice")
            state[pid] = ("live", ev.get("klass"))
            report.injected[ev.get("klass")] += 1
        elif ev.kind in _TERMINAL:
            if pid not in state:
                raise ConservationViolation(pid, f"{ev.kind} without Inject")
            phase, klass = state[pid]
            if phase != "live":
                raise ConservationViolation(pid, f"{ev.kind} after terminal event")
            state[pid] = ("done", klass)
            getattr(report, _TERMINAL[ev.kind])[klass] += 1
            if ev.kind == "Evict":
                report.evicted[klass] += 1
        elif ev.kind == "Forward":
            if pid not in state or state[pid][0] != "live":
                raise ConservationViolation(pid, "Forward outside live lifecycle")
    for pid, (phase, klass) in state.items():
        if phase == "live":
            report.in_flight[klass] += 1
    for klass in report.injected:
        lhs = report.injected[klass]
        rhs = (report.delivered[klass] + report.dropped[klass]
               + report.destroyed[klass] + report.in_flight[klass])
        if lhs != rhs:
            raise ConservationViolation(-1, f"class {klass}: {lhs} injected vs {rhs} accounted")
    return report
