import os
import random
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

import immunet

from immunet.engine import World
from immunet.events import EventLog, field, load_log
from immunet.topology import UnknownNode, build_network, compute_routing, line_network
from immunet.transport import (ACCEPTED, DATA, DROPPED, IMMUNE,
                               ConservationViolation, Packet, QueueViolation, StepHooks,
                               TransportState, conservation_audit, step)

from conftest import quiet_config, to_line


def make_state(net=None, capacity=4, strict=False):
    net = net or line_network(3, bandwidth=2)
    return TransportState(net, compute_routing(net), capacity, strict_checks=strict)


class TestQueue:

    def test_data_dropped_when_full(self):
        state = make_state(capacity=2)
        for _ in range(2):
            assert state.enqueue(0, state.make_packet(0, 2, DATA)) == ACCEPTED
        assert state.enqueue(0, state.make_packet(0, 2, DATA)) == DROPPED
        kinds = [ev[1] for ev in state.log.events]
        assert kinds.count("Drop") == 1

    def test_immune_evicts_newest_data(self):
        state = make_state(capacity=2)
        first = state.make_packet(0, 2, DATA)
        second = state.make_packet(0, 2, DATA)
        state.enqueue(0, first)
        state.enqueue(0, second)
        assert state.enqueue(0, state.make_packet(0, 2, IMMUNE)) == ACCEPTED
        evicts = [ev for ev in state.log.events if ev[1] == "Evict"]
        assert len(evicts) == 1
        assert field(evicts[0], "pid") == second.pid  # newest data went
        q = state.queues[0]
        assert len(q.immune) == 1 and len(q.data) == 1

    def test_immune_dropped_when_full_of_immune(self):
        state = make_state(capacity=2)
        state.enqueue(0, state.make_packet(0, 2, IMMUNE))
        state.enqueue(0, state.make_packet(0, 2, IMMUNE))
        assert state.enqueue(0, state.make_packet(0, 2, IMMUNE)) == DROPPED

    def test_unknown_node(self):
        state = make_state()
        with pytest.raises(UnknownNode):
            state.enqueue(17, state.make_packet(0, 2, DATA))

    def test_bad_packet_class_is_refused(self):
        with pytest.raises(ValueError, match="^bad packet class 'Bulk'$"):
            Packet(0, 0, 2, "Bulk")

    def test_capacity_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^capacity must be >= 1$"):
            make_state(capacity=0)

    def test_capacity_never_exceeded_fuzz(self):
        """10^4 random enqueue/dequeue operations keep occupancy <= capacity."""
        rng = random.Random(5150)
        state = make_state(capacity=5, strict=True)
        q = state.queues[1]
        for _ in range(10_000):
            if rng.random() < 0.6:
                klass = IMMUNE if rng.random() < 0.3 else DATA
                state.enqueue(1, state.make_packet(1, rng.choice((0, 2)), klass))
            else:
                lane = q.immune if q.immune and rng.random() < 0.5 else q.data
                if lane:
                    lane.popleft()
            assert q.occupancy() <= state.capacity


class TestStep:

    def test_empty_network_only_step_markers(self):
        state = make_state()
        for _ in range(10):
            step(state)
        assert state.clock == 10
        assert len(state.log) == 10
        assert all(ev[1] == "Step" for ev in state.log.events)

    def test_one_hop_per_step_delivery(self):
        """A data packet injected at clock t for a 2-hop target arrives at t+2."""
        state = make_state()
        injected_at = {}

        def inject(st):
            if st.clock == 0:
                pkt = st.make_packet(0, 2, DATA)
                injected_at[pkt.pid] = st.clock
                st.offer([pkt])

        hooks = StepHooks(inject=inject)
        for _ in range(5):
            step(state, hooks)
        delivers = [ev for ev in state.log.events if ev[1] == "Deliver"]
        assert len(delivers) == 1
        assert delivers[0][0] == 2
        assert field(delivers[0], "hops") == 2

    def test_fifo_within_lane(self):
        state = make_state()
        first = state.make_packet(0, 2, DATA)
        second = state.make_packet(0, 2, DATA)
        state.enqueue(0, first)
        state.enqueue(0, second)
        step(state)
        fwd = [field(ev, "pid") for ev in state.log.events if ev[1] == "Forward"]
        assert fwd == [first.pid, second.pid]

    def test_immune_forwarded_before_data(self):
        net = line_network(3, bandwidth=1)
        state = TransportState(net, compute_routing(net), 8)
        data = state.make_packet(0, 2, DATA)
        imm = state.make_packet(0, 2, IMMUNE)
        state.enqueue(0, data)
        state.enqueue(0, imm)  # enqueued after, still goes first
        step(state)
        fwd = [ev for ev in state.log.events if ev[1] == "Forward"]
        assert [field(ev, "pid") for ev in fwd] == [imm.pid]
        step(state)
        from_zero = [field(ev, "pid") for ev in state.log.events
                     if ev[1] == "Forward" and field(ev, "src") == 0]
        assert from_zero == [imm.pid, data.pid]

    def test_strict_priority_blocks_data_when_immune_blocked(self):
        # bandwidth 1 and two immune packets: the second immune blocks the lane,
        # so no data moves at all that step
        net = line_network(3, bandwidth=1)
        state = TransportState(net, compute_routing(net), 8, strict_checks=True)
        for _ in range(2):
            state.enqueue(0, state.make_packet(0, 2, IMMUNE))
        state.enqueue(0, state.make_packet(0, 2, DATA))
        step(state)
        fwd = [ev for ev in state.log.events if ev[1] == "Forward"]
        assert len(fwd) == 1 and field(fwd[0], "klass") == IMMUNE

    def test_forward_hook_skips_packets_without_cargo(self):
        calls = []

        def inject(st):
            st.offer([st.make_packet(0, 2, DATA)])

        state = make_state()
        hooks = StepHooks(inject=inject, on_forward=lambda st, pkt, u, v: calls.append(pkt))
        for _ in range(5):
            step(state, hooks)
        assert sum(1 for ev in state.log.events if ev[1] == "Forward") > 0
        assert calls == []

    def test_arrival_and_deliver_hooks_run_only_where_they_act(self):
        """`on_arrival` sees only arrivals at a node in `checked`, and
        `on_deliver` only packets with cargo or an attack id."""
        state = make_state(line_network(5, bandwidth=2), capacity=16)
        packets = [state.make_packet(0, 4, DATA), state.make_packet(0, 4, DATA, attack=1),
                   state.make_packet(0, 2, DATA, cargo="freight"), state.make_packet(4, 2, DATA),
                   state.make_packet(4, 1, DATA, attack=2), state.make_packet(0, 1, DATA)]
        for pkt in packets:
            state.enqueue(pkt.src, pkt)
        arrived, delivered = [], []
        hooks = StepHooks(checked={2},
                          on_arrival=lambda st, node, pkt, frm: arrived.append((node, pkt.pid)),
                          on_deliver=lambda st, pkt: delivered.append((pkt.dst, pkt.pid)))
        for _ in range(8):
            step(state, hooks)
        assert state.in_flight() == 0
        events = state.log.events
        hops = [(field(ev, "dst"), field(ev, "pid")) for ev in events if ev[1] == "Forward"]
        assert {node for node, _pid in hops} == {1, 2, 3, 4}
        assert arrived == [(node, pid) for node, pid in hops if node == 2]
        ends = [(field(ev, "node"), field(ev, "pid")) for ev in events if ev[1] == "Deliver"]
        assert len(ends) == len(packets)
        assert delivered == [(node, pid) for node, pid in ends
                             if packets[pid].cargo is not None or packets[pid].attack is not None]
        assert len(delivered) == 3

    def test_per_link_budget(self):
        net = line_network(3, bandwidth=2)
        state = TransportState(net, compute_routing(net), 16)
        for _ in range(5):
            state.enqueue(0, state.make_packet(0, 2, DATA))
        step(state)
        assert sum(1 for ev in state.log.events if ev[1] == "Forward") == 2


# two data packets at node 0, their lane reordered behind the queue's back
LANE_REORDER = """
from immunet.topology import compute_routing, line_network
from immunet.transport import DATA, TransportState, step

net = line_network(3, bandwidth=2)
routing = compute_routing(net)
state = TransportState(net, routing, 4, strict_checks=True)
for _ in range(2):
    state.enqueue(0, state.make_packet(0, 2, DATA))
state.queues[0].data.reverse()
step(state)
"""


class TestStrictChecks:

    def test_lane_reorder_raises(self):
        state = make_state(strict=True)
        for _ in range(2):
            state.enqueue(0, state.make_packet(0, 2, DATA))
        state.queues[0].data.reverse()
        with pytest.raises(QueueViolation, match="Data lane FIFO violated") as err:
            step(state)
        assert err.value.node == 0

    def test_lane_reorder_raises_under_python_O(self):
        """The checks are explicit raises, so `python -O` keeps them."""
        src = os.path.dirname(os.path.dirname(immunet.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", LANE_REORDER], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "QueueViolation: node 0: Data lane FIFO violated" in proc.stderr

    def test_queue_over_capacity_raises(self):
        """A data lane filled past capacity behind the queue's back: evicting
        one data packet for an immune one leaves the queue over capacity."""
        state = make_state(capacity=2, strict=True)
        for _ in range(2):
            state.enqueue(0, state.make_packet(0, 2, DATA))
        state.queues[0].data.append(state.make_packet(0, 2, DATA))
        with pytest.raises(QueueViolation, match="queue over capacity") as err:
            state.enqueue(0, state.make_packet(0, 2, IMMUNE))
        assert err.value.node == 0

    def test_data_forwarded_while_immune_queued_raises(self):
        """The first data packet's forward hook queues an immune packet at
        its node, so forwarding the second data packet breaks lane priority."""
        state = make_state(strict=True)
        state.enqueue(0, state.make_packet(0, 2, DATA, cargo="freight"))
        state.enqueue(0, state.make_packet(0, 2, DATA))
        hooks = StepHooks(on_forward=lambda state, pkt, u, v: state.send(u, 2, "cell"))
        with pytest.raises(QueueViolation, match="data forwarded while immune queued") as err:
            step(state, hooks)
        assert err.value.node == 0

    def test_strict_checks_fixed_at_construction(self):
        state = make_state()
        with pytest.raises(AttributeError):
            state.strict_checks = True
        assert not state.strict_checks and make_state(strict=True).strict_checks


class TestAdmission:

    def test_excess_deferred_not_lost(self):
        net = build_network([0, 1], [(0, 1, 4)])
        state = TransportState(net, compute_routing(net), 32)
        state.offer([state.make_packet(0, 1, DATA) for _ in range(10)])
        assert sum(1 for ev in state.log.events if ev[1] == "Inject") == 4
        assert len(state.queues[0].waiting) == 6
        assert state.in_flight() == 4  # staged packets count, deferred ones do not
        step(state)  # the next step releases more
        assert sum(1 for ev in state.log.events if ev[1] == "Inject") == 8
        step(state)
        assert sum(1 for ev in state.log.events if ev[1] == "Inject") == 10
        assert len(state.queues[0].waiting) == 0

    def test_clear_deferred(self):
        net = build_network([0, 1], [(0, 1, 2)])
        state = TransportState(net, compute_routing(net), 32)
        state.offer([state.make_packet(0, 1, DATA) for _ in range(5)])
        assert len(state.queues[0].waiting) == 3
        state.clear_deferred(0)
        assert len(state.queues[0].waiting) == 0

    def test_offer_from_an_unknown_source_is_refused(self):
        """A packet is staged at its own source, which must be a node; the
        packets before it in the batch are staged."""
        state = make_state()
        packets = [state.make_packet(0, 2, DATA), state.make_packet(17, 2, DATA)]
        with pytest.raises(UnknownNode) as err:
            state.offer(packets)
        assert err.value.args == (17,)
        assert state.held() == {packets[0].pid: 0}

    def test_injects_follow_the_admission_reference(self):
        """Random offers in the inject and emit hooks and random clears in the
        cells hook, at nodes staging 1 to 3 packets a step: the Inject lines
        are the ones a reference of the admission rules predicts, in order."""
        net = build_network(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
        caps = {n: len(net.neighbors(n)) for n in net.nodes}
        assert sorted(set(caps.values())) == [1, 2, 3]
        state = TransportState(net, compute_routing(net), 8, strict_checks=True)
        rng = random.Random(2029)
        calls = []  # (step, node, pids offered) or (step, node, None) for a clear

        def offer(st, batches, size):
            for _ in range(rng.randrange(batches + 1)):
                node = rng.choice(net.nodes)
                packets = [st.make_packet(node, rng.choice([n for n in net.nodes if n != node]),
                                          DATA) for _ in range(rng.randrange(1, size + 1))]
                calls.append((st.clock, node, [pkt.pid for pkt in packets]))
                st.offer(packets)

        def clear(st):
            for node in rng.sample(net.nodes, rng.randrange(3)):
                calls.append((st.clock, node, None))
                st.clear_deferred(node)

        hooks = StepHooks(inject=lambda st: offer(st, 3, 4), emit=lambda st: offer(st, 2, 3),
                          cells=clear)
        for _ in range(200):
            step(state, hooks)

        # the reference: each node stages at most its cap a step; at the start
        # of a step its waiting packets are offered again first, in ascending
        # node id; a clear drops them unlogged
        waiting = {n: [] for n in net.nodes}
        budget, injects, reoffered, cleared = {}, [], 0, 0

        def admit(now, node, pids):
            for pid in pids:
                if budget[node] > 0:
                    budget[node] -= 1
                    injects.append((now, node, pid))
                else:
                    waiting[node].append(pid)
        calls.reverse()
        for now in range(200):
            budget = dict(caps)
            for node in sorted(waiting):
                again, waiting[node] = waiting[node], []
                reoffered += len(again)
                admit(now, node, again)
            while calls and calls[-1][0] == now:
                _, node, pids = calls.pop()
                if pids is None:
                    cleared += len(waiting[node])
                    waiting[node] = []
                else:
                    admit(now, node, pids)
        assert not calls
        assert [(ev[0], field(ev, "node"), field(ev, "pid")) for ev in state.log.events
                if ev[1] == "Inject"] == injects
        assert len(injects) > 500 and reoffered > 500 and cleared > 50


class TestConservation:

    def test_zero_injections(self):
        assert conservation_audit([]) == Counter()

    def test_benign_run_accounts_for_everything(self):
        """~1000 packets, no detectors: the packets the log leaves in flight
        are the ones the transport holds, class by class."""
        cfg = quiet_config(nodes=6, capacity=4, bandwidth=4, horizon=100)
        cfg.traffic.background_rate = 10.0
        cfg.traffic.distribution = "fixed"
        world = World(cfg, seed=3)
        result = world.run()
        kinds = Counter(ev[1] for ev in result.log.events)
        assert kinds["Inject"] >= 980  # 10/step for 100 steps, minus gate deferrals at the end
        assert kinds["Detect"] == 0
        audit = conservation_audit(result.log.events)
        assert audit == world.state.held()
        klass = {field(ev, "pid"): field(ev, "klass") for ev in result.log.events if ev[1] == "Inject"}
        assert audit and {klass[pid] for pid in audit} == {DATA}

    def test_deleted_deliver_is_caught(self):
        """A planted fault: the first Deliver line removed from the log
        leaves one packet in flight that the transport does not hold."""
        cfg = quiet_config(nodes=6, capacity=4, bandwidth=4, horizon=20)
        cfg.traffic.background_rate = 10.0
        world = World(cfg, seed=3)
        world.run()
        events = world.log.events
        deleted = events.pop(next(i for i, ev in enumerate(events) if ev[1] == "Deliver"))
        pid = field(deleted, "pid")
        with pytest.raises(ConservationViolation,
                           match=f"^packet {pid}: the log leaves it in flight at ") as err:
            world.run(0)
        assert err.value.pid == pid

    @pytest.mark.parametrize("which", ["first", "last-of-held"])
    def test_deleted_forward_is_caught(self, which):
        """A planted fault: a Forward line removed from the log breaks its
        packet's path, whether the packet moves on, ends or is still held."""
        cfg = quiet_config(nodes=6, capacity=4, bandwidth=4, horizon=20)
        cfg.traffic.background_rate = 10.0
        world = World(cfg, seed=3)
        world.run()
        events = world.log.events
        forwards = [i for i, ev in enumerate(events) if ev[1] == "Forward"]
        if which == "first":
            del events[forwards[0]]
        else:  # the latest Forward of any held packet is that packet's last
            held = world.state.held()
            del events[max(i for i in forwards if field(events[i], "pid") in held)]
        with pytest.raises(ConservationViolation):
            world.run(0)

    def test_double_terminal_is_violation(self):
        log = EventLog()
        log.append(0, "Inject", pid=1, node=0, src=0, dst=2, klass=DATA, attack=None)
        log.append(0, "Forward", pid=1, src=0, dst=1, klass=DATA, attack=None)
        log.append(1, "Forward", pid=1, src=1, dst=2, klass=DATA, attack=None)
        log.append(1, "Deliver", pid=1, node=2, klass=DATA, attack=None, hops=2)
        log.append(2, "Drop", pid=1, node=2, klass=DATA, attack=None, reason="overflow")
        with pytest.raises(ConservationViolation) as err:
            conservation_audit(log.events)
        assert err.value.pid == 1

    def test_terminal_without_inject_is_violation(self):
        log = EventLog()
        log.append(0, "Deliver", pid=9, node=2, klass=DATA, attack=None, hops=1)
        with pytest.raises(ConservationViolation):
            conservation_audit(log.events)

    def test_injected_twice_is_violation(self):
        log = EventLog()
        for step_no in (0, 1):
            log.append(step_no, "Inject", pid=3, node=0, src=0, dst=2, klass=DATA, attack=None)
        with pytest.raises(ConservationViolation, match="injected twice") as err:
            conservation_audit(log.events)
        assert err.value.pid == 3

    @pytest.mark.parametrize("lifecycle", [[], ["Inject", "Forward", "Deliver"]],
                             ids=["before-inject", "after-deliver"])
    def test_forward_outside_live_lifecycle_is_violation(self, lifecycle):
        fields = {"Inject": dict(node=0, src=0, dst=1, klass=DATA, attack=None),
                  "Forward": dict(src=0, dst=1, klass=DATA, attack=None),
                  "Deliver": dict(node=1, klass=DATA, attack=None, hops=1)}
        log = EventLog()
        for step_no, kind in enumerate(lifecycle):
            log.append(step_no, kind, pid=4, **fields[kind])
        log.append(len(lifecycle), "Forward", pid=4, src=0, dst=1, klass=DATA, attack=None)
        with pytest.raises(ConservationViolation, match="Forward outside live lifecycle") as err:
            conservation_audit(log.events)
        assert err.value.pid == 4

    def test_non_event_record_is_rejected(self):
        with pytest.raises(TypeError, match="audit wants event records"):
            conservation_audit([{"kind": "Inject", "pid": 0}])

    @pytest.mark.parametrize("keys", [["pid", "node"], "pid node"], ids=["list", "str"])
    def test_record_whose_keys_are_not_a_tuple_is_rejected(self, keys):
        with pytest.raises(TypeError, match="audit wants event records"):
            conservation_audit([(0, "Inject", keys, 4, 0)])

    def test_record_without_a_packet_is_skipped(self):
        """A line whose `pid` is `-` names no packet, so it neither ends
        nor starts a lifecycle."""
        log = EventLog()
        log.append(0, "Inject", pid=4, node=0, src=0, dst=2, klass=DATA, attack=None)
        log.append(0, "Drop", pid=None, node=1, reason="ttl")
        assert conservation_audit(log.events) == {4: 0}

    @pytest.mark.parametrize("kind", ["Deliver", "Drop", "Evict", "Detect"])
    def test_terminal_line_away_from_the_packet_is_violation(self, kind):
        """A packet ends where the log last put it: after its Forward to
        node 1, a terminal line at node 2 breaks its path."""
        log = EventLog()
        log.append(0, "Inject", pid=4, node=0, src=0, dst=2, klass=DATA, attack=None)
        log.append(0, "Forward", pid=4, src=0, dst=1, klass=DATA, attack=None)
        log.append(1, kind, pid=4, node=2)
        with pytest.raises(ConservationViolation, match=f"^packet 4: {kind} at 2, logged at 1$") as err:
            conservation_audit(log.events)
        assert err.value.pid == 4


class TestDeterminism:

    def test_same_seed_same_log(self):
        cfg = quiet_config(nodes=5, horizon=40)
        cfg.traffic.background_rate = 6.0
        a = World(cfg, seed=11).run()
        b = World(cfg, seed=11).run()
        assert a.log.to_text() == b.log.to_text()

    def test_different_seed_different_log(self):
        cfg = quiet_config(nodes=5, horizon=40)
        cfg.traffic.background_rate = 6.0
        a = World(cfg, seed=11).run()
        b = World(cfg, seed=12).run()
        assert a.log.to_text() != b.log.to_text()

    def test_log_lines_round_trip(self, tmp_path):
        cfg = quiet_config(nodes=5, horizon=30)
        cfg.traffic.background_rate = 4.0
        result = World(cfg, seed=2).run()
        path = tmp_path / "run.log"
        result.log.save(path)
        lines = result.log.to_text().splitlines()
        loaded = list(load_log(path))
        assert len(loaded) == len(lines)
        for line, ev in zip(lines, loaded):
            assert to_line(ev) == line
