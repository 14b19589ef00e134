import dataclasses
import itertools
import random
from collections import Counter

import pytest

from immunet.cells import DISINFECTOR, ArtificialCell, CellPopulation
from immunet.engine import World
from immunet.events import field
from immunet.scenario import (AntConfig, AttackConfig, DetectorConfig,
                              MonitorConfig, StationConfig, baseline_scenario)

from conftest import SIG_HEX, quiet_config, to_line, worm_config


def spawn_events(log, kind):
    return [ev for ev in log.events if ev[1] == "Spawn" and field(ev, "cellkind") == kind]


class TestPopulation:

    def test_insert_and_retire_during_iteration(self):
        pop, ids = CellPopulation(), itertools.count()
        for i in range(5):
            pop.add(ArtificialCell(cell_id=next(ids), kind="Detector", location=0,
                                   rng=None, born_at=i))
        seen = []
        for cell in pop.alive_sorted():  # snapshot survives mutation
            seen.append(cell.cell_id)
            if cell.cell_id == 1:
                pop.retire(3)
                pop.add(ArtificialCell(cell_id=next(ids), kind="Detector",
                                       location=0, rng=None, born_at=9))
        assert seen == [0, 1, 2, 3, 4]
        assert [c.cell_id for c in pop.alive_sorted()] == [0, 1, 2, 4, 5]

    def test_alive_sorted_is_id_order_after_spawns_and_retirements(self):
        rng = random.Random(17)
        pop, ids = CellPopulation(), itertools.count()
        alive = set()
        for born in range(400):
            if alive and rng.random() < 0.45:
                victim = rng.choice(sorted(alive))
                pop.retire(victim)
                alive.discard(victim)
            else:
                cid = next(ids)
                pop.add(ArtificialCell(cell_id=cid, kind="Detector", location=0,
                                       rng=None, born_at=born))
                alive.add(cid)
            assert [c.cell_id for c in pop.alive_sorted()] == sorted(alive)

    @pytest.mark.parametrize("cid", [0, 1, 2])
    def test_add_rejects_an_id_not_above_the_last(self, cid):
        pop, ids = CellPopulation(), itertools.count()
        for i in range(3):
            pop.add(ArtificialCell(cell_id=next(ids), kind="Detector", location=0,
                                   rng=None, born_at=i))
        pop.retire(2)
        with pytest.raises(ValueError):
            pop.add(ArtificialCell(cell_id=cid, kind="Detector", location=0,
                                   rng=None, born_at=9))

    def test_oldest_is_the_first_live_cell_of_the_kind(self):
        pop, ids = CellPopulation(), itertools.count()
        for born, kind in enumerate(("Ant", "Detector", "Detector", "Detector")):
            pop.add(ArtificialCell(cell_id=next(ids), kind=kind, location=0,
                                   rng=None, born_at=born))
        assert pop.oldest("Detector").cell_id == 1
        pop.retire(1)
        assert pop.oldest("Detector").cell_id == 2
        assert pop.oldest("Monitor") is None


class TestDetectors:

    def test_p_move_zero_is_stationary(self):
        cfg = worm_config(horizon=60)
        cfg.detectors = DetectorConfig(count=2, p_move=0.0)
        cfg.ants = AntConfig(count=0)
        cfg.monitors = MonitorConfig(count=0)
        world = World(cfg, seed=4)
        result = world.run()
        det_ids = {field(ev, "cell") for ev in spawn_events(result.log, "Detector")
                   if field(ev, "by") == "init"}
        moves = [ev for ev in result.log.events
                 if ev[1] == "CellMove" and field(ev, "cell") in det_ids]
        assert moves == []

    def test_moving_cell_rides_immune_packet(self):
        cfg = quiet_config(nodes=4, horizon=30)
        cfg.detectors = DetectorConfig(count=1, p_move=1.0)
        world = World(cfg, seed=8)
        result = world.run()
        immune_injects = [ev for ev in result.log.events
                          if ev[1] == "Inject" and field(ev, "klass") == "Immune"]
        moves = [ev for ev in result.log.events if ev[1] == "CellMove"]
        assert immune_injects and moves
        # each completed move cost one immune packet delivery
        delivers = [ev for ev in result.log.events
                    if ev[1] == "Deliver" and field(ev, "klass") == "Immune"]
        assert len(delivers) == len(moves)


class TestAnts:

    def test_single_neighbor_always_taken(self):
        cfg = quiet_config(nodes=2, links=[[0, 1]], horizon=12)
        cfg.ants = AntConfig(count=1, memory=2, epsilon=0.5)
        world = World(cfg, seed=3)
        result = world.run()
        moves = [field(ev, "node") for ev in result.log.events if ev[1] == "CellMove"]
        assert len(moves) >= 5
        for a, b in zip(moves, moves[1:]):
            assert a != b  # strict alternation on a 2-node line

    def test_memory_of_zero_keeps_no_node(self):
        # memory counts the node an ant arrives at, so 0 keeps none
        cfg = worm_config(horizon=200)
        cfg.ants.memory = 0
        world = World(cfg, seed=6)
        result = world.run()
        assert any(ev[1] == "CellMove" and field(ev, "cellkind") == "Ant"
                   for ev in result.log.events)
        ants = world.population.of_kind("Ant")
        assert ants and all(not ant.memory for ant in ants)


class TestDisinfector:

    def test_three_hop_travel_on_idle_network(self):
        cfg = quiet_config(nodes=4, horizon=10)
        # an infecting attack that emits nothing, so the network stays idle
        cfg.attacks = [AttackConfig(attack_id=9, signature=SIG_HEX, infects=True, fanout=0)]
        world = World(cfg, seed=2)
        world.vulnerable.add(3)
        world.infected[3] = 9
        world._spawn(DISINFECTOR, 0, by="test", target=3)
        result = world.run()
        disinfects = [ev for ev in result.log.events if ev[1] == "Disinfect"]
        assert len(disinfects) == 1
        assert disinfects[0][0] == 3  # one hop per step, immune priority
        assert field(disinfects[0], "ok") == 1
        assert 3 not in world.infected

    def test_clean_target_logs_false_disinfection(self):
        cfg = quiet_config(nodes=3, horizon=8)
        world = World(cfg, seed=2)
        world._spawn(DISINFECTOR, 0, by="test", target=2)
        result = world.run()
        disinfects = [ev for ev in result.log.events if ev[1] == "Disinfect"]
        assert len(disinfects) == 1 and field(disinfects[0], "ok") == 0
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
            node = field(ev, "node")
            if ev[1] == "Disinfect" and field(ev, "ok") == 1:
                stopped_at[node] = ev[0]
            elif ev[1] == "Infect" and field(ev, "ok") == 1 and node in stopped_at:
                windows.append((stopped_at.pop(node), ev[0]))
            elif ev[1] == "Inject" and field(ev, "attack") is not None:
                if node in stopped_at:
                    assert ev[0] <= stopped_at[node]  # nothing after the cure
        windows += [(cured, None) for cured in stopped_at.values()]
        assert windows, "no cure in the run, so the check above saw nothing"
        assert any(infected is None or infected > cured for cured, infected in windows)

    def test_no_emission_after_cure_without_reinfection(self):
        cfg = quiet_config(nodes=4, horizon=12)
        cfg.attacks = [AttackConfig(attack_id=1, signature=SIG_HEX, infects=True, fanout=4)]
        world = World(cfg, seed=2)
        # every other node stays invulnerable, so node 3 cannot be reinfected;
        # its injection budget is 2, so the node holds deferred packets
        world.vulnerable.add(3)
        world.infected[3] = 1
        world._spawn(DISINFECTOR, 0, by="test", target=3)
        result = world.run()
        disinfects = [ev for ev in result.log.events if ev[1] == "Disinfect"]
        assert len(disinfects) == 1 and field(disinfects[0], "ok") == 1
        cured = disinfects[0][0]
        emitted = [ev[0] for ev in result.log.events
                   if ev[1] == "Inject" and field(ev, "attack") is not None
                   and field(ev, "node") == 3]
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
        pid = field(ev, "pid")
        if ev[1] == "Inject":
            if field(ev, "klass") == "Immune":
                snapshot(ev[0])  # cells act (and sample) before enqueueing moves
                occ[field(ev, "node")] += 1
                inqueue[pid] = field(ev, "node")
            else:
                pending[pid] = field(ev, "node")
        elif ev[1] == "Forward":
            if pid in inqueue:
                occ[inqueue.pop(pid)] -= 1
            arrival[pid] = field(ev, "dst")
        elif ev[1] in ("Deliver", "Detect"):
            arrival.pop(pid, None)
        elif ev[1] == "Drop":
            if pid in pending:
                del pending[pid]
            elif pid in arrival:
                del arrival[pid]
            elif pid in inqueue:
                occ[inqueue.pop(pid)] -= 1
        elif ev[1] == "Evict":
            if pid in inqueue:
                occ[inqueue.pop(pid)] -= 1
        elif ev[1] == "Step":
            snapshot(ev[0])
            commit_phase3()
    return snapshots


class TestMonitor:

    def test_flush_count_35_steps(self):
        cfg = quiet_config(nodes=4, horizon=35)
        cfg.monitors = MonitorConfig(count=1, flush_period=10)
        world = World(cfg, seed=5)
        result = world.run()
        flushes = [ev for ev in result.log.events
                   if ev[1] == "SubstanceSend" and field(ev, "what") == "monitor"]
        assert len(flushes) == 3

    def test_empty_network_reports_zero_occupancy(self):
        cfg = quiet_config(nodes=3, horizon=25)
        cfg.monitors = MonitorConfig(count=1, flush_period=5)
        world = World(cfg, seed=5)
        world.run()
        admin = [st for st in world.stations if st.kind == "Admin"][0]
        rows = [row for payload in admin.received for row in payload["rows"]]
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
        rows = [row for payload in admin.received for row in payload["rows"]]
        assert len(rows) >= 30
        snapshots = replay_occupancy_at_sample(result.log.events)
        for row in rows:
            assert snapshots[row["step"]].get(row["node"], 0) == row["occupancy"]

    def test_pheromone_matches_log_fold(self):
        """Each admin row's pheromone is its node's out-mass at the sample
        point, folded from the log alone: signature-layer detections deposit
        on (src, node), and each step's mass is summed before evaporation."""
        cfg = worm_config(horizon=200)
        world = World(cfg, seed=6)
        result = world.run()
        quantum, keep = cfg.pheromone.deposit, 1.0 - cfg.pheromone.evaporation
        level: dict[tuple[int, int], float] = {}
        snapshots = {}
        for ev in result.log.events:
            if ev[1] == "Detect" and field(ev, "bykind") in ("StaticIDS", "Cell"):
                edge = (field(ev, "src"), field(ev, "node"))
                level[edge] = level.get(edge, 0.0) + quantum
            elif ev[1] == "Step":
                mass = {}
                for (u, _v), lvl in level.items():
                    mass[u] = mass.get(u, 0.0) + lvl
                snapshots[ev[0]] = mass
                level = {e: v * keep for e, v in level.items()}
                level = {e: v for e, v in level.items() if v >= 1e-6}
        admin = [st for st in world.stations if st.kind == "Admin"][0]
        rows = [row for payload in admin.received for row in payload["rows"]]
        assert sum(1 for row in rows if row["pheromone"]) > 150
        for row in rows:
            assert row["pheromone"] == round(snapshots[row["step"]].get(row["node"], 0.0), 9)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_identify_matches_log_fold(self, seed):
        """Every `Identify` line is predicted by `identify_fold`, which reads
        the log and the config only; a fold with a changed rule disagrees."""
        cfg = worm_config(horizon=200)
        events = World(cfg, seed=seed).run().log.events
        logged = [(ev[0], field(ev, "node"), field(ev, "attack"))
                  for ev in events if ev[1] == "Identify"]
        assert len(logged) > 40
        assert identify_fold(events, cfg.pheromone, cfg.stations.dedup_window) == logged
        if seed == 6:  # planted controls: the fold tells a changed rule apart
            fewer = dataclasses.replace(cfg.pheromone, quorum=cfg.pheromone.quorum - 1)
            assert identify_fold(events, fewer, cfg.stations.dedup_window) != logged
            assert identify_fold(events, cfg.pheromone, 1) != logged


def identify_fold(events, pheromone, dedup_window):
    """Every `Identify` line of a run as (step, node, attack), folded from
    its other lines and the config alone. A signature-layer `Detect`
    deposits on (src, node) and tallies its attack at src; at each `Step`
    the out-masses are summed and a node is declared, in ascending order,
    when its mass reaches the threshold with a quorum of ants on it and it
    was not identified within the dedup window; then the step's spawns
    (phase 7, after the declaration; the initial ones at once) place ants
    and remove the cells they replace, and the levels evaporate.

    The gap: a cell killed in transit by an immune-class filter cannot be
    named from the log, so the fold would keep counting it; no run here
    has such a filter."""
    keep = 1.0 - pheromone.evaporation
    level: dict[tuple[int, int], float] = {}
    tally: dict[int, Counter] = {}
    ants: dict[int, int] = {}  # ant cell -> its node
    spawns, last, lines = [], {}, []

    def place(spawn):
        ants.pop(field(spawn, "replaces"), None)
        if field(spawn, "cellkind") == "Ant":
            ants[field(spawn, "cell")] = field(spawn, "node")

    for ev in events:
        if ev[1] == "Detect" and field(ev, "bykind") in ("StaticIDS", "Cell"):
            src, attack = field(ev, "src"), field(ev, "attack")
            edge = (src, field(ev, "node"))
            level[edge] = level.get(edge, 0.0) + pheromone.deposit
            if attack is not None:
                tally.setdefault(src, Counter())[attack] += 1
        elif ev[1] == "CellMove" and field(ev, "cell") in ants:
            ants[field(ev, "cell")] = field(ev, "node")
        elif ev[1] == "Spawn" and field(ev, "by") == "init":  # logged before step 0 runs
            place(ev)
        elif ev[1] == "Spawn":
            spawns.append(ev)
        elif ev[1] == "Step":
            mass: dict[int, float] = {}
            for (u, _v), lvl in level.items():
                mass[u] = mass.get(u, 0.0) + lvl
            present = Counter(ants.values())
            for node in sorted(mass):
                if mass[node] < pheromone.threshold or present[node] < pheromone.quorum:
                    continue
                if node in last and ev[0] - last[node] < dedup_window:
                    continue
                last[node] = ev[0]
                counts = tally.get(node)
                lines.append((ev[0], node, min(counts, key=lambda a: (-counts[a], a))
                              if counts else None))
            for spawn in spawns:
                place(spawn)
            spawns = []
            level = {e: v * keep for e, v in level.items() if v * keep >= 1e-6}
    return lines


def replacement_fold(events, pick=lambda live: live[0]):
    """Each `Spawn replaces=` line as (the victim it names, the victim the
    fold picks), from the log alone. Each kind keeps its live cell ids in
    spawn order; a `Disinfect` line retires its `cell`, and a replacement
    retires the victim its line names. `pick` takes the kind's live ids:
    the first is the oldest live cell.

    The gap (ROADMAP item 9): a cell killed in transit by an immune-class
    filter cannot be named from the log, so the fold would keep it live;
    no run here has such a filter."""
    live: dict[str, list[int]] = {}
    pairs = []
    for ev in events:
        if ev[1] == "Spawn":
            ids = live.setdefault(field(ev, "cellkind"), [])
            victim = field(ev, "replaces")
            if victim is not None:
                pairs.append((victim, pick(ids)))
                ids.remove(victim)
            ids.append(field(ev, "cell"))
        elif ev[1] == "Disinfect":
            live[DISINFECTOR].remove(field(ev, "cell"))
    return pairs


class TestRetirement:

    @pytest.mark.parametrize("seed", [6, 7])
    def test_each_replacement_names_the_oldest_live_cell(self, seed):
        """Every `Spawn replaces=` names the oldest live cell of its kind by
        `replacement_fold`; a fold that picks the newest disagrees."""
        events = World(worm_config(horizon=200), seed=seed).run().log.events
        pairs = replacement_fold(events)
        assert len(pairs) == 24  # 4 releases by 2 nurseries of 2 detectors and 1 ant
        assert all(logged == folded for logged, folded in pairs)
        if seed == 6:  # planted control: the fold tells a changed rule apart
            newest = replacement_fold(events, pick=lambda live: live[-1])
            assert any(logged != folded for logged, folded in newest)

    def test_no_events_after_retirement(self):
        cfg = worm_config(horizon=250)
        cfg.stations.release_period = 40
        result = World(cfg, seed=11).run()
        retired_at = {}
        for ev in result.log.events:
            victim = field(ev, "replaces") if ev[1] == "Spawn" else None
            if victim is not None:
                retired_at[victim] = ev[0]
            if ev[1] == "Disinfect":
                retired_at[field(ev, "cell")] = ev[0]
        assert retired_at  # the run actually exercised retirement
        for ev in result.log.events:
            cid = field(ev, "cell")
            if cid is None or ev[1] == "Spawn":
                continue
            if cid in retired_at:
                assert ev[0] <= retired_at[cid], f"{to_line(ev)} after retirement"


class TestNurseryCaps:
    """Nurseries release a kind only up to its cap, and a cap of 0 releases
    none of it: the bundled scenario with one Ant released every 5 steps."""

    def ant_run(self, count, caps):
        cfg = baseline_scenario()
        cfg.ants.count = count
        cfg.stations.release_period = 5
        cfg.stations.release_mix = {"Ant": 1}
        cfg.stations.caps = caps
        world = World(cfg, seed=42)
        world.run(200)
        return world, spawn_events(world.log, "Ant")

    @pytest.mark.parametrize("count, caps", [(0, {}), (0, {"Ant": 0}), (20, {"Ant": 0})])
    def test_cap_of_zero_releases_none(self, count, caps):
        world, spawns = self.ant_run(count, caps)
        assert [field(ev, "by") for ev in spawns] == ["init"] * count
        assert world.population.count("Ant") <= count

    def test_positive_cap_replaces_the_oldest(self):
        world, spawns = self.ant_run(0, {"Ant": 3})
        assert len(spawns) == 2 * 200 // 5  # both nurseries release every period
        assert world.population.count("Ant") == 3
        assert sum(field(ev, "replaces") is not None for ev in spawns) == len(spawns) - 3
        pairs = replacement_fold(world.log.events)
        assert len(pairs) == len(spawns) - 3
        assert all(logged == folded for logged, folded in pairs)

    @pytest.mark.parametrize("kind, count", [("Detector", 30), ("Ant", 20), ("Monitor", 2)])
    def test_default_cap_is_the_sections_count(self, kind, count):
        cfg = baseline_scenario()
        cfg.stations.release_period = 5
        cfg.stations.release_mix = {kind: 1}
        cfg.stations.caps = {}
        world = World(cfg, seed=42)
        world.run(200)
        released = [ev for ev in spawn_events(world.log, kind) if field(ev, "by") != "init"]
        assert len(released) == 2 * 200 // 5
        assert all(field(ev, "replaces") is not None for ev in released)
        assert world.population.count(kind) == count


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
            if ev[1] in ("Spawn", "CellMove"):
                visited.add(field(ev, "node"))
        assert visited == set(world.network.nodes)
