import hashlib
import json

import pytest

from immunet import transport
from immunet.cells import DETECTOR, ArtificialCell
from immunet.engine import World
from immunet.scenario import DetectorConfig, IdsConfig, baseline_scenario
from immunet.stations import ADMIN, LYMPH

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


class TestQueueBookkeeping:

    @pytest.mark.parametrize("strict", [False, True])
    def test_enqueue_order_map_holds_only_queued_packets(self, strict):
        world = World(worm_config(horizon=200), 6, strict_checks=strict)
        world.run()
        queued = 0
        for q in world.state.queues.values():
            pids = {pkt.pid for pkt in q.immune} | {pkt.pid for pkt in q.data}
            assert set(q._enq_seq) == pids
            queued += len(pids)
        assert queued > 0


class TestCellWhereabouts:
    """A cell is at a node between steps: `location is None` only from its
    forward to its delivery, which fall in one step since a move is one hop."""

    def test_cells_queues_and_registry_agree_after_every_step(self):
        world = World(worm_config(horizon=200), 6)
        hooks = world.hooks()
        forward = hooks.on_forward
        forwarded = []

        def on_forward(state, pkt, u, v):
            forward(state, pkt, u, v)
            if isinstance(pkt.cargo, ArtificialCell) and pkt.cargo.alive:
                assert pkt.cargo.location is None
                forwarded.append(pkt.cargo.cell_id)
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
            registered = {(node, comp.cell_id) for node in world.network.nodes
                          for comp in world.defense.at[node] if comp.kind == "Cell"}
            assert registered == {(cell.location, cell.cell_id) for cell in live
                                  if cell.kind == DETECTOR}
        assert queued_moves > 0 and forwarded


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
