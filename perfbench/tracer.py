"""Per-layer tracing from outside the package.

`Tracer.install()` wraps the public functions of each module under the
name its caller looks it up by, and `Tracer.wrap_hooks()` wraps the
`StepHooks` callbacks of one world. Wrappers add time and call counts to
plain counters; nothing is written into the event log, so a traced run
logs exactly what an untraced run logs.

The dequeue sweep is inline in `transport.step`, so its self time is the
step time minus the time spent in the hooks.
"""

from __future__ import annotations

import time
from collections import Counter

from immunet import adversary, engine, receptors
from immunet.cells import CellPopulation
from immunet.defense import DefenseStack, DetectorComponent
from immunet.events import KINDS, EventLog
from immunet.pheromone import PheromoneMap
from immunet.signatures import CompressedSignatureDb
from immunet.transport import DATA, DROPPED, TransportState

clock = time.perf_counter

HOOK_PHASES = {
    "inject": "engine.inject_s",
    "on_forward": "engine.forward_s",
    "on_arrival": "engine.arrival_s",
    "on_deliver": "engine.deliver_s",
    "emit": "engine.emit_s",
    "cells": "engine.cells_s",
    "evaporate": "engine.evaporate_s",
    "stations": "engine.stations_s",
}


class Tracer:
    def __init__(self):
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.count: Counter = Counter()  # outcomes and samples, by metric name
        self.scan_misses: list[str] = []  # scans the substring oracle says should hit

    def timed(self, fn, key: str, on_result=None):
        seconds, calls = self.seconds, self.calls

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - t0
                calls[key] += 1
            if on_result is not None:
                on_result(result, *args)
            return result
        return traced

    def patch(self, owner, name: str, key: str, on_result=None) -> None:
        setattr(owner, name, self.timed(getattr(owner, name), key, on_result))

    def install(self) -> None:
        count = self.count
        self.patch(engine, "build_topology", "topology.generate_s")
        self.patch(engine, "compute_routing", "topology.routing_s")
        self.patch(engine, "bfs_distances", "topology.distances_s")
        self.patch(engine, "diameter", "topology.distances_s")
        engine.CompressedSignatureDb = _traced_db(self)
        self.patch(DefenseStack, "check_all", "defense.check_all_s")
        detector_check = DetectorComponent.check

        def check(component, pkt):
            count["defense.detector_checks"] += 1
            if component.cell.db is not None and pkt.klass == DATA and pkt.payload:
                count["defense.scan_eligible"] += 1
            return detector_check(component, pkt)
        DetectorComponent.check = check
        self.patch(adversary, "inject_background", "adversary.background_s",
                   lambda packets, *_: count.update({"adversary.background_packets": len(packets)}))
        self.patch(adversary, "worm_emit", "adversary.worm_emit_s",
                   lambda packets, *_: count.update({"adversary.worm_packets": len(packets)}))
        enqueue = TransportState.enqueue

        def enqueue_counted(state, node, pkt):
            result = enqueue(state, node, pkt)
            count["transport.enqueues"] += 1
            if result == DROPPED:
                count["transport.overflow_drops"] += 1
            return result
        TransportState.enqueue = enqueue_counted
        self.patch(PheromoneMap, "out_mass", "pheromone.out_mass_s")
        self.patch(PheromoneMap, "declare", "pheromone.declare_s")
        self.patch(engine, "choose_move", "pheromone.choose_move_s")
        self.patch(CellPopulation, "alive_sorted", "cells.alive_sorted_s")
        self.patch(receptors, "seal", "receptors.seal_s")
        self.patch(receptors, "try_open", "receptors.open_s",
                   lambda payload, *_: count.update({"receptors.opened": payload is not None}))
        self.patch(engine, "next_station", "stations.next_s",
                   lambda target, *_: count.update({"stations.relays": target is not None}))
        self.patch(engine, "nearest_station", "stations.nearest_s")
        self.patch(EventLog, "to_text", "events.to_text_s")
        append = EventLog.append
        seconds = self.seconds

        def append_timed(log, step, kind, **fields):  # the hottest call: kept lean
            t0 = clock()
            event = append(log, step, kind, **fields)
            seconds["events.append_s"] += clock() - t0
            count[kind] += 1
            return event
        EventLog.append = append_timed

    def wrap_hooks(self, hooks) -> None:
        for name, key in HOOK_PHASES.items():
            setattr(hooks, name, self.timed(getattr(hooks, name), key))

    def sample(self, world) -> None:
        """Once per step: population and pheromone size."""
        self.count["cells.alive"] += len(world.population)
        self.count["pheromone.live_edges"] += len(world.pheromone.level)

    def layer_metrics(self, steps: int, step_s: float, routing_entries: int, audit_s: float,
                      compute_s: float, save_s: float, parse_s: float,
                      log_bytes: int) -> dict[str, float]:
        s, c, n = self.seconds, self.calls, self.count
        scans = c["signatures.scan_s"]
        eligible = n["defense.scan_eligible"]
        opens = c["receptors.open_s"]
        hooks_s = sum(s[key] for key in HOOK_PHASES.values())
        return {
            "scenario.load_s": s["scenario.load_s"],
            "topology.generate_s": s["topology.generate_s"],
            "topology.routing_s": s["topology.routing_s"],
            "topology.distances_s": s["topology.distances_s"],
            "topology.routing_entries": routing_entries,
            "signatures.scans": scans,
            "signatures.scan_s": s["signatures.scan_s"],
            "signatures.scan_us": 1e6 * s["signatures.scan_s"] / scans if scans else 0.0,
            "signatures.windows": n["signatures.windows"],
            "signatures.db_builds": c["signatures.db_build_s"],
            "signatures.db_build_s": s["signatures.db_build_s"],
            "defense.checks": c["defense.check_all_s"],
            "defense.check_self_s": s["defense.check_all_s"] - s["signatures.scan_s"],
            "defense.detector_checks": n["defense.detector_checks"],
            "defense.scan_cache_hit_ratio": (eligible - scans) / eligible if eligible else 0.0,
            "adversary.background_s": s["adversary.background_s"],
            "adversary.background_packets": n["adversary.background_packets"],
            "adversary.worm_emit_s": s["adversary.worm_emit_s"],
            "adversary.worm_packets": n["adversary.worm_packets"],
            **{key: s[key] for key in HOOK_PHASES.values()},
            "transport.step_s": step_s,
            "transport.dequeue_self_s": step_s - hooks_s,
            "transport.forwards": c["engine.forward_s"],
            "transport.enqueues": n["transport.enqueues"],
            "transport.overflow_drops": n["transport.overflow_drops"],
            "transport.evictions": n["Evict"],
            "transport.audit_s": audit_s,
            "pheromone.out_mass_calls": c["pheromone.out_mass_s"],
            "pheromone.out_mass_s": s["pheromone.out_mass_s"],
            "pheromone.choose_move_s": s["pheromone.choose_move_s"],
            "pheromone.declare_s": s["pheromone.declare_s"],
            "pheromone.live_edges_mean": n["pheromone.live_edges"] / steps,
            "cells.alive_mean": n["cells.alive"] / steps,
            "cells.sorted_snapshots": c["cells.alive_sorted_s"],
            "receptors.seals": c["receptors.seal_s"],
            "receptors.seal_s": s["receptors.seal_s"],
            "receptors.opens": opens,
            "receptors.open_s": s["receptors.open_s"],
            "receptors.open_success_ratio": n["receptors.opened"] / opens if opens else 0.0,
            "stations.route_s": s["stations.next_s"] + s["stations.nearest_s"],
            "stations.relays": n["stations.relays"],
            "events.appended": sum(n[kind] for kind in KINDS),
            "events.append_s": s["events.append_s"],
            "events.to_text_s": s["events.to_text_s"],
            "events.write_s": save_s - s["events.to_text_s"],
            "events.log_mb": log_bytes / 2**20,
            "events.parse_s": parse_s,
            "metrics.compute_s": compute_s,
        }


def _traced_db(tracer: Tracer):
    """A store class that times builds and scans, counts windows, and checks
    every scan against the substring oracle over the signatures it was given."""
    seconds, calls, count = tracer.seconds, tracer.calls, tracer.count

    class TracedDb(CompressedSignatureDb):
        def __init__(self, signatures, target_fpr):
            t0 = clock()
            super().__init__(signatures, target_fpr)
            seconds["signatures.db_build_s"] += clock() - t0
            calls["signatures.db_build_s"] += 1
            self.held = {bytes(s) for s in signatures}

        def add(self, sig):
            t0 = clock()
            super().add(sig)
            seconds["signatures.db_build_s"] += clock() - t0
            calls["signatures.db_build_s"] += 1
            self.held.add(bytes(sig))

        def contains(self, key):
            count["signatures.windows"] += 1
            return super().contains(key)

        def scan(self, payload):
            t0 = clock()
            verdict = super().scan(payload)
            seconds["signatures.scan_s"] += clock() - t0
            calls["signatures.scan_s"] += 1
            if any(sig in payload for sig in self.held):
                count["signatures.oracle_hits"] += 1
                if not verdict:
                    tracer.scan_misses.append(payload.hex())
            return verdict

    return TracedDb
