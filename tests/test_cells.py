import json
import random
from collections import Counter

import pytest

from immunet.cells import DISINFECTOR, CellPopulation, DetectorCell
from immunet.engine import World
from immunet.scenario import (AntConfig, AttackConfig, DetectorConfig,
                              MonitorConfig, StationConfig)

from conftest import SIG_HEX, quiet_config, worm_config


def spawn_events(log, kind):
    return [ev for ev in log.events if ev.kind == "Spawn" and ev.get("cellkind") == kind]


class TestPopulation:

    def test_insert_and_retire_during_iteration(self):
        pop = CellPopulation()
        for i in range(5):
            pop.add(DetectorCell(cell_id=pop.new_id(), kind="Detector", location=0,
                                 receptor=None, rng=None, born_at=i))
        seen = []
        for cell in pop.alive_sorted():  # snapshot survives mutation
            seen.append(cell.cell_id)
            if cell.cell_id == 1:
                pop.retire(3)
                pop.add(DetectorCell(cell_id=pop.new_id(), kind="Detector",
                                     location=0, receptor=None, rng=None, born_at=9))
        assert seen == [0, 1, 2, 3, 4]
        assert [c.cell_id for c in pop.alive_sorted()] == [0, 1, 2, 4, 5]

    def test_alive_sorted_is_id_order_after_spawns_and_retirements(self):
        rng = random.Random(17)
        pop = CellPopulation()
        alive = set()
        for born in range(400):
            if alive and rng.random() < 0.45:
                victim = rng.choice(sorted(alive))
                pop.retire(victim)
                alive.discard(victim)
            else:
                cid = pop.new_id()
                pop.add(DetectorCell(cell_id=cid, kind="Detector", location=0,
                                     receptor=None, rng=None, born_at=born))
                alive.add(cid)
            assert [c.cell_id for c in pop.alive_sorted()] == sorted(alive)

    @pytest.mark.parametrize("cid", [0, 1, 2])
    def test_add_rejects_an_id_not_above_the_last(self, cid):
        pop = CellPopulation()
        for i in range(3):
            pop.add(DetectorCell(cell_id=pop.new_id(), kind="Detector", location=0,
                                 receptor=None, rng=None, born_at=i))
        pop.retire(2)
        with pytest.raises(ValueError):
            pop.add(DetectorCell(cell_id=cid, kind="Detector", location=0,
                                 receptor=None, rng=None, born_at=9))

    def test_oldest_by_birth_then_id(self):
        pop = CellPopulation()
        for born in (3, 1, 1):
            pop.add(DetectorCell(cell_id=pop.new_id(), kind="Detector", location=0,
                                 receptor=None, rng=None, born_at=born))
        assert [c.cell_id for c in pop.oldest("Detector", 2)] == [1, 2]


class TestDetectors:

    def test_p_move_zero_is_stationary(self):
        cfg = worm_config(horizon=60)
        cfg.detectors = DetectorConfig(count=2, p_move=0.0)
        cfg.ants = AntConfig(count=0)
        cfg.monitors = MonitorConfig(count=0)
        world = World(cfg, seed=4)
        result = world.run()
        det_ids = {ev.get("cell") for ev in spawn_events(result.log, "Detector")
                   if ev.get("by") == "init"}
        moves = [ev for ev in result.log.events
                 if ev.kind == "CellMove" and ev.get("cell") in det_ids]
        assert moves == []

    def test_moving_cell_rides_immune_packet(self):
        cfg = quiet_config(nodes=4, horizon=30)
        cfg.detectors = DetectorConfig(count=1, p_move=1.0)
        world = World(cfg, seed=8)
        result = world.run()
        immune_injects = [ev for ev in result.log.events
                          if ev.kind == "Inject" and ev.get("klass") == "Immune"]
        moves = [ev for ev in result.log.events if ev.kind == "CellMove"]
        assert immune_injects and moves
        # each completed move cost one immune packet delivery
        delivers = [ev for ev in result.log.events
                    if ev.kind == "Deliver" and ev.get("klass") == "Immune"]
        assert len(delivers) == len(moves)


class TestAnts:

    def test_single_neighbor_always_taken(self):
        cfg = quiet_config(nodes=2, links=[[0, 1]], horizon=12)
        cfg.ants = AntConfig(count=1, memory=2, epsilon=0.5)
        world = World(cfg, seed=3)
        result = world.run()
        moves = [ev.get("node") for ev in result.log.events if ev.kind == "CellMove"]
        assert len(moves) >= 5
        for a, b in zip(moves, moves[1:]):
            assert a != b  # strict alternation on a 2-node line


class TestDisinfector:

    def test_three_hop_travel_on_idle_network(self):
        cfg = quiet_config(nodes=4, horizon=10)
        world = World(cfg, seed=2)
        world.health[3].vulnerable = True
        world.health[3].infected_by = 9  # attack id with no emitter registered
        world.health[3].infected_at = 0
        world._spawn(DISINFECTOR, 0, by="test", target=3)
        result = world.run()
        disinfects = [ev for ev in result.log.events if ev.kind == "Disinfect"]
        assert len(disinfects) == 1
        assert disinfects[0].step == 3  # one hop per step, immune priority
        assert disinfects[0].get("ok") == 1
        assert not world.health[3].infected

    def test_clean_target_logs_false_disinfection(self):
        cfg = quiet_config(nodes=3, horizon=8)
        world = World(cfg, seed=2)
        world._spawn(DISINFECTOR, 0, by="test", target=2)
        result = world.run()
        disinfects = [ev for ev in result.log.events if ev.kind == "Disinfect"]
        assert len(disinfects) == 1 and disinfects[0].get("ok") == 0
        assert result.metrics.false_disinfections == 1

    def test_emission_stops_step_after_disinfection(self):
        # A cured node stays vulnerable, and attack packets already in flight
        # can reinfect it, so a cure window runs from the cure to the node's
        # next infection; only attack injections inside it are faults.
        cfg = worm_config(horizon=120)
        result = World(cfg, seed=6).run()
        stopped_at = {}
        windows = []  # (cure step, next infection step or None at run end)
        for ev in result.log.events:
            node = ev.get("node")
            if ev.kind == "Disinfect" and ev.get("ok") == 1:
                stopped_at[node] = ev.step
            elif ev.kind == "Infect" and ev.get("ok") == 1 and node in stopped_at:
                windows.append((stopped_at.pop(node), ev.step))
            elif ev.kind == "Inject" and ev.get("attack") is not None:
                if node in stopped_at:
                    assert ev.step <= stopped_at[node]  # nothing after the cure
        windows += [(cured, None) for cured in stopped_at.values()]
        assert windows, "no cure in the run, so the check above saw nothing"
        assert any(infected is None or infected > cured for cured, infected in windows)

    def test_no_emission_after_cure_without_reinfection(self):
        cfg = quiet_config(nodes=4, horizon=12)
        cfg.attacks = [AttackConfig(attack_id=1, signature=SIG_HEX, infects=True, fanout=4)]
        world = World(cfg, seed=2)
        # every other node stays invulnerable, so node 3 cannot be reinfected;
        # its injection budget is 2, so the gate holds deferred packets
        world.health[3].vulnerable = True
        world.health[3].infected_by = 1
        world.health[3].infected_at = 0
        world._spawn(DISINFECTOR, 0, by="test", target=3)
        result = world.run()
        disinfects = [ev for ev in result.log.events if ev.kind == "Disinfect"]
        assert len(disinfects) == 1 and disinfects[0].get("ok") == 1
        cured = disinfects[0].step
        emitted = [ev.step for ev in result.log.events
                   if ev.kind == "Inject" and ev.get("attack") is not None
                   and ev.get("node") == 3]
        assert emitted and min(emitted) <= cured
        assert [step for step in emitted if step > cured] == []


def replay_occupancy_at_sample(events):
    """Queue occupancy per (step, node) at the cell-action sample point,
    reconstructed from the event log alone.

    Staged (data) injections join their queue at the end of their step;
    immune injections are direct enqueues by cells/stations and happen
    after the sample point of the step. Arrivals surviving phase 3 are
    committed before the sample.
    """
    occ = Counter()
    pending = {}        # staged: pid -> node
    arrival = {}        # forwarded this step: pid -> dst
    inqueue = {}        # pid -> node
    snapshots = {}
    sampled_step = None

    def commit_phase3():
        # arrivals then staged injections enter their queues before cells act
        for pid, dst in arrival.items():
            occ[dst] += 1
            inqueue[pid] = dst
        arrival.clear()
        for pid, node in pending.items():
            occ[node] += 1
            inqueue[pid] = node
        pending.clear()

    def snapshot(step):
        nonlocal sampled_step
        if sampled_step != step:
            commit_phase3()
            snapshots[step] = dict(occ)
            sampled_step = step

    for ev in events:
        pid = ev.get("pid")
        if ev.kind == "Inject":
            if ev.get("klass") == "Immune":
                snapshot(ev.step)  # cells act (and sample) before enqueueing moves
                occ[ev.get("node")] += 1
                inqueue[pid] = ev.get("node")
            else:
                pending[pid] = ev.get("node")
        elif ev.kind == "Forward":
            if pid in inqueue:
                occ[inqueue.pop(pid)] -= 1
            arrival[pid] = ev.get("dst")
        elif ev.kind in ("Deliver", "Detect"):
            arrival.pop(pid, None)
        elif ev.kind == "Drop":
            if pid in pending:
                del pending[pid]
            elif pid in arrival:
                del arrival[pid]
            elif pid in inqueue:
                occ[inqueue.pop(pid)] -= 1
        elif ev.kind == "Evict":
            if pid in inqueue:
                occ[inqueue.pop(pid)] -= 1
        elif ev.kind == "Step":
            snapshot(ev.step)
            commit_phase3()
    return snapshots


class TestMonitor:

    def test_flush_count_35_steps(self):
        cfg = quiet_config(nodes=4, horizon=35)
        cfg.monitors = MonitorConfig(count=1, flush_period=10)
        world = World(cfg, seed=5)
        result = world.run()
        flushes = [ev for ev in result.log.events
                   if ev.kind == "SubstanceSend" and ev.get("what") == "monitor"]
        assert len(flushes) == 3

    def test_empty_network_reports_zero_occupancy(self):
        cfg = quiet_config(nodes=3, horizon=25)
        cfg.monitors = MonitorConfig(count=1, flush_period=5)
        world = World(cfg, seed=5)
        world.run()
        admin = [st for st in world.stations if st.kind == "Admin"][0]
        rows = [row for payload in admin.received
                for row in json.loads(payload.decode())["rows"]]
        assert rows
        # before the first flush there is no traffic at all, not even the
        # monitor's own report packets
        early = [row for row in rows if row["step"] < 4]
        assert early and all(row["occupancy"] == 0 for row in early)
        assert all("infected" not in row for row in rows)  # no ground-truth leak

    def test_reports_match_log_reconstruction(self):
        cfg = quiet_config(nodes=5, horizon=60, capacity=6, bandwidth=2)
        cfg.traffic.background_rate = 4.0
        cfg.monitors = MonitorConfig(count=1, flush_period=6)
        world = World(cfg, seed=9)
        result = world.run()
        admin = [st for st in world.stations if st.kind == "Admin"][0]
        rows = [row for payload in admin.received
                for row in json.loads(payload.decode())["rows"]]
        assert len(rows) >= 30
        snapshots = replay_occupancy_at_sample(result.log.events)
        for row in rows:
            assert snapshots[row["step"]].get(row["node"], 0) == row["occupancy"]


class TestRetirement:

    def test_no_events_after_retirement(self):
        cfg = worm_config(horizon=250)
        cfg.stations.release_period = 40
        result = World(cfg, seed=11).run()
        retired_at = {}
        for ev in result.log.events:
            victim = ev.get("replaces") if ev.kind == "Spawn" else None
            if victim is not None:
                retired_at[victim] = ev.step
            if ev.kind == "Disinfect":
                retired_at[ev.get("cell")] = ev.step
        assert retired_at  # the run actually exercised retirement
        for ev in result.log.events:
            cid = ev.get("cell")
            if cid is None or ev.kind == "Spawn":
                continue
            if cid in retired_at:
                assert ev.step <= retired_at[cid], f"{ev.to_line()} after retirement"


class TestCoverage:

    def test_population_visits_every_node(self):
        cfg = worm_config(nodes=12, horizon=400)
        cfg.worm.enabled = False
        cfg.detectors = DetectorConfig(count=6, p_move=0.5)
        cfg.ants = AntConfig(count=6, memory=4, epsilon=0.5)
        cfg.stations = StationConfig(lymph=2, nurseries=2, placement=[0, 1, 2, 3, 4])
        world = World(cfg, seed=13)
        result = world.run()
        visited = set()
        for ev in result.log.events:
            if ev.kind in ("Spawn", "CellMove"):
                visited.add(ev.get("node"))
        assert visited == set(world.network.nodes)
