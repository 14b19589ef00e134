import random

import pytest

from immunet.engine import World
from immunet.events import EventLog, parse_line
from immunet.topology import UnknownNode, build_network, line_network
from immunet.transport import (ACCEPTED, DATA, DROPPED, IMMUNE,
                               ConservationViolation, StepHooks, TransportState,
                               conservation_audit, step)

from conftest import quiet_config, routing_table


def make_state(net=None, capacity=4):
    net = net or line_network(3, bandwidth=2)
    return TransportState(net, routing_table(net), capacity)


class TestQueue:

    def test_data_dropped_when_full(self):
        state = make_state(capacity=2)
        for _ in range(2):
            assert state.enqueue(0, state.make_packet(0, 2, DATA)) == ACCEPTED
        assert state.enqueue(0, state.make_packet(0, 2, DATA)) == DROPPED
        kinds = [ev.kind for ev in state.log.events]
        assert kinds.count("Drop") == 1

    def test_immune_evicts_newest_data(self):
        state = make_state(capacity=2)
        first = state.make_packet(0, 2, DATA)
        second = state.make_packet(0, 2, DATA)
        state.enqueue(0, first)
        state.enqueue(0, second)
        assert state.enqueue(0, state.make_packet(0, 2, IMMUNE)) == ACCEPTED
        evicts = [ev for ev in state.log.events if ev.kind == "Evict"]
        assert len(evicts) == 1
        assert evicts[0].get("pid") == second.pid  # newest data went
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

    def test_capacity_never_exceeded_fuzz(self):
        """10^4 random enqueue/dequeue operations keep occupancy <= capacity."""
        rng = random.Random(5150)
        state = make_state(capacity=5)
        state.strict_checks = True
        q = state.queues[1]
        for _ in range(10_000):
            if rng.random() < 0.6:
                klass = IMMUNE if rng.random() < 0.3 else DATA
                state.enqueue(1, state.make_packet(1, rng.choice((0, 2)), klass))
            else:
                lane = q.immune if q.immune and rng.random() < 0.5 else q.data
                if lane:
                    lane.popleft()
            assert q.occupancy() <= q.capacity


class TestStep:

    def test_empty_network_only_step_markers(self):
        state = make_state()
        for _ in range(10):
            step(state)
        assert state.clock == 10
        assert len(state.log) == 10
        assert all(ev.kind == "Step" for ev in state.log.events)

    def test_one_hop_per_step_delivery(self):
        """A data packet injected at clock t for a 2-hop target arrives at t+2."""
        state = make_state()
        injected_at = {}

        def inject(st):
            if st.clock == 0:
                pkt = st.make_packet(0, 2, DATA)
                injected_at[pkt.pid] = st.clock
                st.stage_injection(0, pkt)

        hooks = StepHooks(inject=inject)
        for _ in range(5):
            step(state, hooks)
        delivers = [ev for ev in state.log.events if ev.kind == "Deliver"]
        assert len(delivers) == 1
        assert delivers[0].step == 2
        assert delivers[0].get("hops") == 2

    def test_fifo_within_lane(self):
        state = make_state()
        first = state.make_packet(0, 2, DATA)
        second = state.make_packet(0, 2, DATA)
        state.enqueue(0, first)
        state.enqueue(0, second)
        step(state)
        fwd = [ev.get("pid") for ev in state.log.events if ev.kind == "Forward"]
        assert fwd == [first.pid, second.pid]

    def test_immune_forwarded_before_data(self):
        net = line_network(3, bandwidth=1)
        state = TransportState(net, routing_table(net), 8)
        data = state.make_packet(0, 2, DATA)
        imm = state.make_packet(0, 2, IMMUNE)
        state.enqueue(0, data)
        state.enqueue(0, imm)  # enqueued after, still goes first
        step(state)
        fwd = [ev for ev in state.log.events if ev.kind == "Forward"]
        assert [ev.get("pid") for ev in fwd] == [imm.pid]
        step(state)
        from_zero = [ev.get("pid") for ev in state.log.events
                     if ev.kind == "Forward" and ev.get("src") == 0]
        assert from_zero == [imm.pid, data.pid]

    def test_strict_priority_blocks_data_when_immune_blocked(self):
        # bandwidth 1 and two immune packets: the second immune blocks the lane,
        # so no data moves at all that step
        net = line_network(3, bandwidth=1)
        state = TransportState(net, routing_table(net), 8)
        state.strict_checks = True
        for _ in range(2):
            state.enqueue(0, state.make_packet(0, 2, IMMUNE))
        state.enqueue(0, state.make_packet(0, 2, DATA))
        step(state)
        fwd = [ev for ev in state.log.events if ev.kind == "Forward"]
        assert len(fwd) == 1 and fwd[0].get("klass") == IMMUNE

    def test_per_link_budget(self):
        net = line_network(3, bandwidth=2)
        state = TransportState(net, routing_table(net), 16)
        for _ in range(5):
            state.enqueue(0, state.make_packet(0, 2, DATA))
        step(state)
        assert sum(1 for ev in state.log.events if ev.kind == "Forward") == 2


class TestConservation:

    def test_zero_injections(self):
        report = conservation_audit([])
        assert sum(report.injected.values()) == 0

    def test_benign_run_accounts_for_everything(self):
        """~1000 packets, no detectors: delivered + dropped + in-flight = injected."""
        cfg = quiet_config(nodes=6, capacity=4, bandwidth=4, horizon=100)
        cfg.traffic.background_rate = 10.0
        cfg.traffic.distribution = "fixed"
        world = World(cfg, seed=3)
        result = world.run()
        rep = result.audit
        injected = sum(rep.injected.values())
        assert injected >= 980  # 10/step for 100 steps, minus gate deferrals at the end
        assert injected == (sum(rep.delivered.values()) + sum(rep.dropped.values())
                            + sum(rep.destroyed.values()) + sum(rep.in_flight.values()))
        assert sum(rep.destroyed.values()) == 0

    def test_double_terminal_is_violation(self):
        log = EventLog()
        log.append(0, "Inject", pid=1, node=0, src=0, dst=2, klass=DATA, attack=None)
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

    def test_log_lines_round_trip(self):
        cfg = quiet_config(nodes=5, horizon=30)
        cfg.traffic.background_rate = 4.0
        result = World(cfg, seed=2).run()
        for line in result.log.to_text().splitlines():
            ev = parse_line(line)
            assert ev.to_line() == line
