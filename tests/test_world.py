import hashlib
import json
import random

import pytest

from immunet import receptors, transport
from immunet.cells import DETECTOR, ArtificialCell
from immunet.engine import World
from immunet.scenario import (AttackConfig, DetectorConfig, FilterRuleConfig, IdsConfig,
                              TopologySpec, baseline_scenario)
from immunet.stations import ADMIN, LYMPH, NURSERY

from conftest import worm_config


class TestStationAddressing:

    def test_admin_sharing_a_node_with_a_lymph_station_gets_monitor_reports(self):
        """Substances are addressed to a station, not to a node: the admin on
        node 0 receives monitor payloads although lymph station 0 sits there too."""
        cfg = worm_config(horizon=200)
        cfg.stations.admin_node = 0
        world = World(cfg, 6)
        result = world.run()
        admin = next(st for st in world.stations if st.kind == ADMIN)
        lymph = next(st for st in world.stations if st.kind == LYMPH)
        assert admin.node == lymph.node == 0
        assert len(admin.received) > 0
        assert not [ev for ev in result.log.events
                    if ev.kind == "Drop" and ev.get("reason") == "ttl"]


class TestSubstanceRelayDrops:
    """A substance no station can open is relayed from station to station
    until its TTL runs out or every station has tried it."""

    def test_ttl_drops_are_not_packet_drops(self):
        cfg = worm_config(horizon=300)
        cfg.stations.substance_ttl = 1
        result = World(cfg, 6).run()
        events = result.log.events
        ttl_drops = [ev for ev in events if ev.kind == "Drop" and ev.get("reason") == "ttl"]
        assert ttl_drops and all(ev.get("pid") is None for ev in ttl_drops)
        transport.conservation_audit(events)  # a Drop without a pid is no packet's end
        assert result.metrics.dropped_total == sum(
            1 for ev in events if ev.kind == "Drop" and ev.get("pid") is not None)

    def test_no_opener_drop_after_every_station_tried(self):
        world = World(worm_config(horizon=200), 6)
        stranger = receptors.gen_receptor(random.Random(0))
        sub = world._make_substance(b'{"kind": "report"}', {stranger.public})
        world.stations[0].inbox.append(sub)
        hooks = world.hooks()
        for _ in range(world.config.horizon):
            transport.step(world.state, hooks)
            mine = [ev for ev in world.log.events if ev.get("sid") == sub.sid]
            if any(ev.kind == "Drop" for ev in mine):
                break
        assert [ev.get("reason") for ev in mine if ev.kind == "Drop"] == ["no-opener"]
        assert sub.visited == {st.station_id for st in world.stations}
        relays = [ev for ev in mine if ev.kind == "SubstanceSend"]
        assert len(relays) == len(world.stations) - 1
        assert all(ev.get("what") == "relay" for ev in relays)
        assert not [ev for ev in mine if ev.kind == "SubstanceOpen"]


class TestReceptorRule:
    """Who opens a substance follows from the receptors it is sealed to:
    reports only at lymph stations, monitor payloads only at the admin,
    and immunizations only at nurseries and cells."""

    OPENERS = {"report": {LYMPH}, "monitor": {ADMIN}, "immunize": {NURSERY, "cell"}}

    @pytest.mark.parametrize("seed", [6, 7])
    def test_each_kind_opens_only_for_its_holders(self, seed):
        world = World(worm_config(horizon=200), seed)
        events = world.run().log.events
        what = {}  # sid -> what its first send carried
        for ev in events:
            if ev.kind == "SubstanceSend":
                what.setdefault(ev.get("sid"), ev.get("what"))
        opened = set()
        for ev in (ev for ev in events if ev.kind == "SubstanceOpen"):
            sid, station = ev.get("sid"), ev.get("station")
            assert sid not in opened
            opened.add(sid)
            if station is None:
                assert ev.get("cell") is not None
                opener = "cell"
            else:
                opener = world.stations[station].kind
            assert opener in self.OPENERS[what[sid]], (sid, what[sid], opener)
        assert {what[sid] for sid in opened} == set(self.OPENERS)


class TestQueueBookkeeping:

    @pytest.mark.parametrize("strict", [False, True])
    def test_enqueue_order_map_holds_only_queued_packets(self, strict):
        """Only the strict FIFO check reads the map, so it is kept only then."""
        world = World(worm_config(horizon=200), 6, strict_checks=strict)
        world.run()
        queued = 0
        for q in world.state.queues.values():
            pids = {pkt.pid for pkt in q.immune} | {pkt.pid for pkt in q.data}
            assert set(q._enq_seq) == (pids if strict else set())
            queued += len(pids)
        assert queued > 0


class TestForwardHook:

    def test_hook_runs_for_every_cargo_forward_and_no_other(self):
        """Every immune packet World sends carries cargo; data packets carry none."""
        world = World(worm_config(horizon=200), 6)
        hooks = world.hooks()
        forward = hooks.on_forward
        calls = []

        def on_forward(state, pkt, u, v):
            calls.append(pkt.pid)
            forward(state, pkt, u, v)
        hooks.on_forward = on_forward
        for _ in range(world.config.horizon):
            transport.step(world.state, hooks)
        forwards = [ev for ev in world.log.events if ev.kind == "Forward"]
        immune = [ev.get("pid") for ev in forwards if ev.get("klass") == transport.IMMUNE]
        assert calls == immune and len(immune) > 0
        assert len(forwards) > len(immune)


def registered_cells(world) -> set[tuple[int, int]]:
    """(node, cell id) of every detector component in the defence registry."""
    return {(node, comp.cell_id) for node in world.network.nodes
            for comp in world.defense.at[node] if comp.kind == "Cell"}


class TestCellWhereabouts:
    """A cell's `location` is always a node. A forward takes a live detector
    out of its node's defence stack but leaves `location` on that node until
    the delivery, which falls in the same step since a move is one hop."""

    def test_cells_queues_and_registry_agree_after_every_step(self):
        world = World(worm_config(horizon=200), 6)
        hooks = world.hooks()
        forward = hooks.on_forward
        forwarded = []

        def on_forward(state, pkt, u, v):
            forward(state, pkt, u, v)
            cell = pkt.cargo
            if isinstance(cell, ArtificialCell) and cell.alive:
                assert cell.location == u
                if cell.kind == DETECTOR:
                    assert all(comp is not cell.component for comp in world.defense.at[u])
                forwarded.append(cell.cell_id)
        hooks.on_forward = on_forward
        queued_moves = 0
        for _ in range(world.config.horizon):
            transport.step(world.state, hooks)
            live = world.population.alive_sorted()
            assert all(cell.location is not None for cell in live)
            riding: dict[int, list[int]] = {}  # cell id -> nodes whose queue holds it
            for node, q in world.state.queues.items():
                for pkt in (*q.immune, *q.data):
                    if isinstance(pkt.cargo, ArtificialCell):
                        riding.setdefault(pkt.cargo.cell_id, []).append(node)
            for cell in live:
                assert cell.pending_move == (cell.cell_id in riding)
                if cell.pending_move:
                    assert riding[cell.cell_id] == [cell.location]
                    queued_moves += 1
            assert registered_cells(world) == {(cell.location, cell.cell_id) for cell in live
                                               if cell.kind == DETECTOR}
        assert queued_moves > 0 and forwarded


def shaped(kind):
    def setup(cfg):
        cfg.topology = TopologySpec(kind=kind, nodes=8)
    return setup


def check_degrees(degrees):
    def check(world, events, destroyed):
        assert sorted(len(world.network.neighbors(n)) for n in world.network.nodes) == degrees
    return check


def entry_5(cfg):
    cfg.worm.entry = 5


def check_entry_5(world, events, destroyed):
    first = next(ev for ev in events if ev.kind == "Infect")
    assert (first.get("node"), first.get("via")) == (5, "entry")


def listed(cfg):
    cfg.detectors.placement = [7, 6, 5, 4]
    cfg.static_ids = IdsConfig(count=2, placement=[6, 7])


def check_listed(world, events, destroyed):
    spawned = [ev.get("node") for ev in events
               if ev.kind == "Spawn" and ev.get("by") == "init" and ev.get("cellkind") == DETECTOR]
    assert spawned == [7, 6, 5, 4]
    assert [n for n in world.network.nodes for comp in world.defense.at[n]
            if comp.kind == "StaticIDS"] == [6, 7]


def filtered(cfg):
    cfg.filters = [FilterRuleConfig(node=n, action="Drop", klass="Immune") for n in (5, 6)]


def check_filtered(world, events, destroyed):
    assert any(ev.kind == "Detect" and ev.get("bykind") == "PacketFilter" for ev in events)
    assert destroyed
    live = {cell.cell_id for cell in world.population.alive_sorted()}
    assert not live & {cell.cell_id for cell in destroyed}


class TestEnginePaths:
    """Scenario shapes the other tests do not build, each run with strict
    checks to its horizon: the audit holds, and the registry holds exactly
    the live detectors, each where it is."""

    @pytest.mark.parametrize("setup, check", [
        (shaped("line"), check_degrees([1, 1, 2, 2, 2, 2, 2, 2])),
        (shaped("ring"), check_degrees([2] * 8)),
        (shaped("star"), check_degrees([1] * 7 + [7])),
        (entry_5, check_entry_5),
        (listed, check_listed),
        (filtered, check_filtered),
    ], ids=["line", "ring", "star", "worm-entry", "list-placements", "filters"])
    def test_strict_run(self, setup, check):
        cfg = worm_config(horizon=200)
        setup(cfg)
        world = World(cfg, 6, strict_checks=True)
        hooks = world.hooks()
        arrival = hooks.on_arrival
        destroyed = []  # cells whose packet a check destroyed

        def on_arrival(state, node, pkt, from_node):
            hit = arrival(state, node, pkt, from_node)
            if hit and isinstance(pkt.cargo, ArtificialCell):
                destroyed.append(pkt.cargo)
            return hit
        hooks.on_arrival = on_arrival
        for _ in range(cfg.horizon):
            transport.step(world.state, hooks)
        events = world.log.events
        audit = transport.conservation_audit(events)
        assert sum(audit.injected.values()) == sum(
            sum(counter.values()) for counter in
            (audit.delivered, audit.dropped, audit.destroyed, audit.in_flight))
        assert registered_cells(world) == {(cell.location, cell.cell_id) for cell
                                           in world.population.of_kind(DETECTOR)}
        check(world, events, destroyed)


class TestSharedStores:
    """A run keeps one immutable store per signature set: detectors holding
    one set hold one store, immunization swaps a detector's store for the
    wider set's, and nurseries release detectors carrying their own store."""

    def test_one_store_per_signature_set(self):
        # the untrained worm run of TestDeterminismGuard, plus a second attack
        # in the background mix, so stores widen from one signature to two
        cfg = worm_config(horizon=300,
                          detectors=DetectorConfig(count=4, p_move=0.5, initial_signatures="none"),
                          static_ids=IdsConfig(count=2))
        cfg.attacks.append(AttackConfig(attack_id=2, signature="00112233445566778899aabbccddeeff",
                                        infects=False, fanout=0))
        cfg.traffic.attack_mix = [{"attack_id": 2, "rate": 1.0}]
        world = World(cfg, 2, strict_checks=True)
        radius = cfg.stations.immunization_radius
        nursery_ids = {st.station_id for st in world.stations if st.kind == NURSERY}
        immunize, spawn = world._immunize, world._spawn
        seen = {"shared": 0, "widened": 0, "kept": 0, "released": 0}

        def detectors():
            return world.population.of_kind(DETECTOR)

        def checked_immunize(st, around, attack):
            sig = world.attacks[attack].signature
            before = {cell.cell_id: cell.db for cell in detectors()}
            held = {id(db): (db, db.members, db._bits) for db in before.values() if db}
            immunize(st, around, attack)
            for cell in detectors():
                old = before[cell.cell_id]
                if cell.location is not None and world.dist[cell.location][around] <= radius:
                    old_members = old.members if old else frozenset()
                    assert cell.db.members == old_members | {sig}
                    seen["widened"] += bool(old) and sig not in old_members
                else:
                    assert cell.db is old
                    seen["kept"] += old is not None
            for db, members, bits in held.values():
                assert (db.members, db._bits) == (members, bits)
            for other in world.stations:
                if other.kind == NURSERY:
                    assert sig in other.store.members
        world._immunize = checked_immunize

        def checked_spawn(kind, node, by, replaces=None, store=None, target=-1):
            cell = spawn(kind, node, by, replaces=replaces, store=store, target=target)
            if kind == DETECTOR and by in nursery_ids:
                assert cell.db is world.stations[by].store
                seen["released"] += cell.db is not None
            return cell
        world._spawn = checked_spawn

        hooks = world.hooks()
        for _ in range(cfg.horizon):
            transport.step(world.state, hooks)
            by_set: dict[frozenset, list] = {}
            for cell in detectors():
                if cell.db is not None:
                    by_set.setdefault(cell.db.members, []).append(cell.db)
            for stores in by_set.values():
                assert all(db is stores[0] for db in stores)
                seen["shared"] += len(stores) > 1
        assert all(seen.values()), seen
        assert max(len(members) for members in world._stores) == 2


def digest(result) -> str:
    return hashlib.sha256(result.log.to_text().encode("utf-8")).hexdigest()


# Event-log sha256 and metrics of fixed runs. A refactor must keep them; a
# change that means to alter behaviour pins the new values on purpose.
PINNED = {
    "worm seed 6": (
        "a95f2f6759e58990fdadc61e436849403188eace4cbd2b19ae1b902b8ae630b6",
        {"delivered_attack": 787, "destroyed_attack": 1122,
         "disinfection_latency_median": 5.0, "dropped_total": 413,
         "false_disinfections": 0, "false_positive_detections": 0,
         "identification_latency_median": 24.0, "identified_episodes": 49,
         "infections_per_event": 7.0, "infections_total": 7, "injected_attack": 2711,
         "injected_total": 4695, "overhead": 0.32871125611745516,
         "prevention_rate": 0.41386942087790485, "steps": 200,
         "unidentified_episodes": 6, "worm_entries": 1},
    ),
    "baseline seed 42": (
        "f3078ca449a19fc77a56516ca009859c7a3e4c9bf4423f003125fae53f50eb38",
        {"delivered_attack": 0, "destroyed_attack": 0,
         "disinfection_latency_median": None, "dropped_total": 0,
         "false_disinfections": 0, "false_positive_detections": 0,
         "identification_latency_median": None, "identified_episodes": 0,
         "infections_per_event": None, "infections_total": 0, "injected_attack": 0,
         "injected_total": 5720, "overhead": 0.3932335581787521,
         "prevention_rate": None, "steps": 100, "unidentified_episodes": 0,
         "worm_entries": 0},
    ),
    # no detector starts trained, so lymph stations push signatures to both
    # detector cells and nurseries, and nursery releases replace capped cells
    "untrained worm seed 2": (
        "a8bc53669d1359bce6851e64bbffb7d426fea5f4d45a7a832effdc743f48cde2",
        {"delivered_attack": 488, "destroyed_attack": 1692,
         "disinfection_latency_median": 3.0, "dropped_total": 135,
         "false_disinfections": 0, "false_positive_detections": 0,
         "identification_latency_median": 22.0, "identified_episodes": 42,
         "infections_per_event": 4.0, "infections_total": 4, "injected_attack": 2552,
         "injected_total": 5443, "overhead": 0.3863751906456533,
         "prevention_rate": 0.6630094043887147, "steps": 300,
         "unidentified_episodes": 4, "worm_entries": 1},
    ),
}


class TestDeterminismGuard:

    def test_worm_config_seed_6(self):
        result = World(worm_config(horizon=200), 6).run()
        assert (digest(result), result.metrics.as_dict()) == PINNED["worm seed 6"]

    def test_baseline_scenario_seed_42_100_steps(self):
        result = World(baseline_scenario(), 42).run(100)
        assert (digest(result), result.metrics.as_dict()) == PINNED["baseline seed 42"]

    def test_untrained_worm_config_seed_2(self):
        cfg = worm_config(horizon=300,
                          detectors=DetectorConfig(count=4, p_move=0.5, initial_signatures="none"),
                          static_ids=IdsConfig(count=2))
        result = World(cfg, 2).run()
        sends = [ev for ev in result.log.events
                 if ev.kind == "SubstanceSend" and ev.get("what") == "immunize"]
        assert sum(ev.get("station") is not None for ev in sends) == 2
        assert sum(ev.get("cell") is not None for ev in sends) == 145
        assert sum(ev.kind == "Spawn" and ev.get("replaces") is not None
                   for ev in result.log.events) == 36
        assert (digest(result), result.metrics.as_dict()) == PINNED["untrained worm seed 2"]
