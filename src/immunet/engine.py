"""Run orchestration: builds a world from a scenario config and steps it.

Everything random is drawn from named child streams of the run seed
(topology, vulnerability, placement, background, per-cell walks, and
per-(node, step) worm emissions), so a run is a pure function of
(config, seed) and paired runs stay comparable when one subsystem is
toggled.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter, deque
from dataclasses import dataclass
from random import Random

from . import adversary, defense, receptors, stations, transport
from .adversary import AttackDef, InjectionGate, NodeHealth, TrafficModel
from .cells import (ANT, DETECTOR, DISINFECTOR, MONITOR, AntCell, ArtificialCell,
                    CellPopulation, DetectorCell, DisinfectorCell, MonitorCell)
from .events import EventLog
from .metrics import Metrics, compute_metrics
from .pheromone import PheromoneMap, choose_move
from .scenario import ScenarioConfig, TopologySpec
from .signatures import CompressedSignatureDb
from .stations import (ADMIN, LYMPH, NURSERY, AdminStation, LymphStation,
                       NurseryStation, Station, nearest_station, next_station)
from .topology import (Network, UnknownNode, bfs_distances, build_network,
                       compute_routing, diameter, erdos_renyi, line_network,
                       ring_network, star_network, top_betweenness)
from .transport import IMMUNE, StepHooks, TransportState


class SeedTree:
    """Named deterministic child streams of one master seed."""

    def __init__(self, master: int):
        self.master = int(master)

    def derive_seed(self, *labels) -> int:
        text = f"{self.master}|" + "|".join(map(str, labels))
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")

    def stream(self, *labels) -> Random:
        return Random(self.derive_seed(*labels))


def build_topology(spec: TopologySpec, rng: Random, bandwidth: int) -> Network:
    if spec.kind == "erdos_renyi":
        return erdos_renyi(spec.nodes, spec.edge_prob, rng, bandwidth)
    if spec.kind == "line":
        return line_network(spec.nodes, bandwidth)
    if spec.kind == "ring":
        return ring_network(spec.nodes, bandwidth)
    if spec.kind == "star":
        return star_network(spec.nodes, bandwidth)
    if spec.kind == "explicit":
        links = [tuple(link) if len(link) == 3 else (link[0], link[1], bandwidth)
                 for link in spec.links]
        return build_network(spec.node_ids(), links)
    raise ValueError(f"unknown topology kind {spec.kind!r}")


@dataclass
class RunResult:
    config: ScenarioConfig
    seed: int
    log: EventLog
    metrics: Metrics
    audit: transport.AuditReport


class World:
    """All mutable state for one simulation run."""

    def __init__(self, config: ScenarioConfig, seed: int, strict_checks: bool = False):
        self.config = config
        self.seed = seed
        self.seeds = SeedTree(seed)
        cfg_tr = config.transport

        self.network = build_topology(config.topology, self.seeds.stream("topology"),
                                      cfg_tr.link_bandwidth)
        # hop counts dist[src][dst]: the one all-pairs pass that routing, the
        # diameter and station distances all read
        self.dist = {node: bfs_distances(self.network, node) for node in self.network.nodes}
        self.routing = compute_routing(self.network, self.dist)
        self.state = TransportState(self.network, self.routing, cfg_tr.queue_capacity)
        self.state.strict_checks = strict_checks
        self.log = self.state.log

        self.attacks: dict[int, AttackDef] = {}
        for a in config.attacks:
            self.attacks[a.attack_id] = AttackDef(a.attack_id, a.signature_bytes(),
                                                  a.infects, a.fanout)
        self.signature_set = [a.signature for a in self.attacks.values()]

        vuln_rng = self.seeds.stream("vulnerability")
        prob = config.vulnerability.probability
        self.health = {n: NodeHealth(vulnerable=vuln_rng.random() < prob)
                       for n in self.network.nodes}

        self.worm_entry: tuple[int, int, int] | None = None  # (step, attack_id, node)
        if config.worm.enabled and config.worm.attack_id in self.attacks:
            if config.worm.entry == "random":
                entry = self.network.nodes[
                    self.seeds.stream("worm-entry").randrange(len(self.network.nodes))]
                self.health[entry].vulnerable = True  # the hole the worm gets in through
            else:
                entry = config.worm.entry
                if not self.network.has_node(entry):
                    raise UnknownNode(entry)
            self.worm_entry = (config.worm.entry_step, config.worm.attack_id, entry)

        self.traffic = TrafficModel(
            background_rate=config.traffic.background_rate,
            distribution=config.traffic.distribution,
            payload_len=config.traffic.payload_len,
            attack_mix=[(self.attacks[e["attack_id"]], e["rate"])
                        for e in config.traffic.attack_mix],
        )
        self.background_rng = self.seeds.stream("background")
        # reseeded per (node, step) in `emit`: the stream of `seeds.stream("worm", ...)`
        self.worm_rng = Random()
        self.gate = InjectionGate(self.network)

        self.defense = defense.DefenseStack(self.network)
        self.pheromone = PheromoneMap(config.pheromone.evaporation,
                                      config.pheromone.deposit,
                                      config.pheromone.threshold)
        self.quorum = config.pheromone.quorum

        self.receptor_rng = self.seeds.stream("receptors")
        self.population = CellPopulation()
        self._component_ids = itertools.count()
        self._substance_ids = itertools.count()
        self._last_identify: dict[int, int] = {}

        self._setup_filters()
        self._setup_static_ids()
        self._setup_stations()
        self._setup_cells()

    # ------------------------------------------------------------- setup

    def _setup_filters(self) -> None:
        by_node: dict[int, list[defense.FilterRule]] = {}
        for rule in self.config.filters:
            fr = defense.FilterRule(
                action=rule.action,
                src=frozenset(rule.src) if rule.src is not None else None,
                dst=frozenset(rule.dst) if rule.dst is not None else None,
                klass=rule.klass,
            )
            by_node.setdefault(rule.node, []).append(fr)
        for node in sorted(by_node):
            self.defense.register(node, defense.PacketFilter(next(self._component_ids),
                                                             by_node[node]))

    def _setup_static_ids(self) -> None:
        cfg = self.config.static_ids
        if cfg.count <= 0:
            return
        if isinstance(cfg.placement, str):
            nodes = top_betweenness(self.network, cfg.count)
        else:
            nodes = list(cfg.placement)[:cfg.count]
        for node in nodes:
            self.defense.register(node, defense.StaticIDS(next(self._component_ids),
                                                          self.signature_set))

    def _setup_stations(self) -> None:
        cfg = self.config.stations
        want = cfg.lymph + cfg.nurseries + 1  # + admin
        if isinstance(cfg.placement, str):
            rng = self.seeds.stream("placement", "stations")
            pool = list(self.network.nodes)
            nodes = rng.sample(pool, want) if want <= len(pool) else \
                [pool[rng.randrange(len(pool))] for _ in range(want)]
        else:
            nodes = list(cfg.placement)
        if cfg.admin_node is not None:
            nodes[-1] = cfg.admin_node

        self.lymph_receptor = receptors.gen_receptor(self.receptor_rng)
        self.nursery_receptor = receptors.gen_receptor(self.receptor_rng)
        self.admin_receptor = receptors.gen_receptor(self.receptor_rng)

        # station ids ascend in list order: lymph nodes, nurseries, then admin
        self.stations: list[Station] = []
        sid = 0
        trained = list(self.signature_set) if self.config.detectors.initial_signatures == "all" else []
        for i in range(cfg.lymph):
            self.stations.append(LymphStation(sid, LYMPH, nodes[i], self.lymph_receptor))
            sid += 1
        for i in range(cfg.nurseries):
            self.stations.append(NurseryStation(sid, NURSERY, nodes[cfg.lymph + i],
                                                self.nursery_receptor,
                                                period=cfg.release_period,
                                                mix=dict(cfg.release_mix),
                                                trained_signatures=list(trained)))
            sid += 1
        self.stations.append(AdminStation(sid, ADMIN, nodes[-1], self.admin_receptor))
        self.station_by_id = {st.station_id: st for st in self.stations}

        self.substance_ttl = cfg.substance_ttl
        if self.substance_ttl is None:
            self.substance_ttl = 4 * diameter(self.dist)

        self.caps = {
            DETECTOR: cfg.caps.get("Detector", self.config.detectors.count),
            ANT: cfg.caps.get("Ant", self.config.ants.count),
            MONITOR: cfg.caps.get("Monitor", self.config.monitors.count),
        }

    def _place_cells(self, count: int, placement, label: str) -> list[int]:
        if isinstance(placement, list):
            return list(placement)[:count]
        rng = self.seeds.stream("placement", label)
        pool = self.network.nodes
        return [pool[rng.randrange(len(pool))] for _ in range(count)]

    def _setup_cells(self) -> None:
        signatures = self.signature_set \
            if self.config.detectors.initial_signatures == "all" else ()
        for kind in (DETECTOR, ANT, MONITOR):
            label = kind.lower() + "s"  # the scenario section and the placement stream
            section = getattr(self.config, label)
            for node in self._place_cells(section.count,
                                          getattr(section, "placement", "random"), label):
                self._spawn(kind, node, by="init", signatures=signatures)

    def _spawn(self, kind: str, node: int, by, replaces: int | None = None,
               signatures=(), target: int = -1) -> ArtificialCell:
        """Release a cell of `kind` at `node` with its kind's scenario
        parameters. A detector carries a store of `signatures` and joins the
        node's defence stack; a disinfector heads for `target`."""
        if kind == DETECTOR:
            # the store draws no randomness, so building it first keeps the draws in order
            db = CompressedSignatureDb(signatures, self.config.detectors.target_fpr) \
                if signatures else None
            cls, extra = DetectorCell, {"db": db, "p_move": self.config.detectors.p_move}
        elif kind == ANT:
            cls, extra = AntCell, {"memory": deque(maxlen=max(1, self.config.ants.memory)),
                                   "epsilon": self.config.ants.epsilon}
        elif kind == MONITOR:
            cls, extra = MonitorCell, {"flush_period": self.config.monitors.flush_period}
        else:
            cls, extra = DisinfectorCell, {"target": target}
        cid = self.population.new_id()
        cell = cls(cell_id=cid, kind=kind, location=node,
                   receptor=receptors.gen_receptor(self.receptor_rng),
                   rng=self.seeds.stream("cell", cid), born_at=self.state.clock, **extra)
        self.population.add(cell)
        self.log.append(self.state.clock, "Spawn", cell=cid, cellkind=kind, node=node,
                        by=by, replaces=replaces)
        if kind == DETECTOR:
            cell.component = defense.DetectorComponent(10_000 + cid, cell)
            self.defense.register(node, cell.component)
        return cell

    # ------------------------------------------------------------- phases

    def inject(self, state: TransportState) -> None:
        self.gate.begin_step(state)
        if self.worm_entry and state.clock == self.worm_entry[0]:
            _step, attack_id, entry = self.worm_entry
            adversary.spawn_worm(state, self.health, self.attacks[attack_id], entry)
        packets = adversary.inject_background(state, self.traffic, self.background_rng,
                                              forbidden=self.signature_set)
        for pkt in packets:
            self.gate.offer(state, pkt.src, [pkt])

    def on_forward(self, state: TransportState, pkt, u: int, v: int) -> None:
        cargo = pkt.cargo
        if isinstance(cargo, ArtificialCell):
            cargo.location = None
            if cargo.kind == DETECTOR and cargo.alive:
                self.defense.deregister(u, cargo.component.component_id)

    def on_arrival(self, state: TransportState, node: int, pkt, from_node: int) -> bool:
        if not self.defense.at[node]:
            return False
        by = self.defense.check_all(node, pkt)
        if by is None:
            return False
        state.log.append(state.clock, "Detect", pid=pkt.pid, node=node,
                         src=from_node, psrc=pkt.src, klass=pkt.klass,
                         attack=pkt.attack, by=by.component_id, bykind=by.kind,
                         cell=by.cell_id)
        if by.kind in ("StaticIDS", "Cell"):
            # signature-layer detection feeds the ant colony
            self.pheromone.deposit((from_node, node), pkt.attack)
        cargo = pkt.cargo
        if isinstance(cargo, ArtificialCell):
            self.population.retire(cargo.cell_id)
        return True

    def on_deliver(self, state: TransportState, pkt, node: int) -> None:
        cargo = pkt.cargo
        if isinstance(cargo, ArtificialCell):
            if cargo.alive:
                self._arrive_cell(cargo, node)
            return
        if isinstance(cargo, receptors.Substance):
            self.station_by_id[cargo.dest].inbox.append(cargo)
            return
        if pkt.attack is not None:
            adversary.on_attack_delivery(state, self.health, node, pkt, self.attacks)

    def _arrive_cell(self, cell: ArtificialCell, node: int) -> None:
        cell.location = node
        cell.pending_move = False
        if cell.kind == ANT:
            cell.memory.append(node)
        if cell.kind == DETECTOR:
            self.defense.register(node, cell.component)
        self.log.append(self.state.clock, "CellMove", cell=cell.cell_id,
                        cellkind=cell.kind, node=node)

    def emit(self, state: TransportState) -> None:
        rng = self.worm_rng
        for node in self.network.nodes:
            h = self.health[node]
            if not h.infected:
                continue
            attack = self.attacks.get(h.infected_by)
            if attack is None or attack.fanout <= 0:
                continue
            rng.seed(self.seeds.derive_seed("worm", node, state.clock))
            packets = adversary.worm_emit(state, self.health, node, attack, rng,
                                          self.traffic.payload_len)
            self.gate.offer(state, node, packets)

    def cells(self, state: TransportState) -> None:
        for cell in self.population.alive_sorted():
            if not cell.alive or cell.location is None or cell.pending_move:
                continue
            if cell.kind == DETECTOR:
                if cell.rng.random() < cell.p_move:
                    self._move_cell(cell, self._random_neighbor(cell))
            elif cell.kind == ANT:
                nxt = choose_move(self.pheromone, cell.location,
                                  self.network.neighbors(cell.location),
                                  cell.memory, cell.epsilon, cell.rng)
                self._move_cell(cell, nxt)
            elif cell.kind == MONITOR:
                self._monitor_collect(cell)
                self._move_cell(cell, self._random_neighbor(cell))
            elif cell.kind == DISINFECTOR:
                if cell.location == cell.target:
                    self._disinfect(cell)
                else:
                    self._move_cell(cell, self.routing.rows[cell.target][cell.location])
        self._declaration_pass(state)

    def _random_neighbor(self, cell: ArtificialCell) -> int:
        nbrs = self.network.neighbors(cell.location)
        return nbrs[cell.rng.randrange(len(nbrs))]

    def _move_cell(self, cell: ArtificialCell, to: int) -> None:
        pkt = self.state.make_packet(cell.location, to, IMMUNE, cargo=cell)
        self.state.log.append(self.state.clock, "Inject", pid=pkt.pid, node=cell.location,
                              src=pkt.src, dst=pkt.dst, klass=pkt.klass, attack=None)
        if self.state.enqueue(cell.location, pkt) == transport.ACCEPTED:
            cell.pending_move = True
        # on Drop the cell simply stays put and retries next step

    def _monitor_collect(self, cell: MonitorCell) -> None:
        node = cell.location
        cell.buffer.append({
            "step": self.state.clock,
            "node": node,
            "occupancy": self.state.queues[node].occupancy(),
            "pheromone": round(self.pheromone.node_mass(node), 9),
        })
        if (self.state.clock - cell.born_at + 1) % cell.flush_period == 0 and cell.buffer:
            payload = json.dumps({"kind": "monitor", "cell": cell.cell_id,
                                  "rows": cell.buffer}, sort_keys=True).encode()
            cell.buffer = []
            self._send_substance(node, payload, {self.admin_receptor.public}, what="monitor")

    def _disinfect(self, cell: DisinfectorCell) -> None:
        """Cure the target if it is infected, as in an SIS epidemic.

        The cure clears the infection and drops the node's deferred worm
        packets, so the node injects no attack packet until it is infected
        again. It does not clear `vulnerable`: attack packets injected before
        the cure still travel and can reinfect the node on delivery. The
        paper's abstract does not settle whether a cured host stays
        susceptible; this is the rule the simulator follows.
        """
        h = self.health[cell.target]
        if h.infected:
            attack = h.infected_by
            h.infected_by = None
            h.infected_at = None
            self.gate.clear_deferred(cell.target)
            self.log.append(self.state.clock, "Disinfect", node=cell.target, ok=1,
                            attack=attack, cell=cell.cell_id)
        else:
            self.log.append(self.state.clock, "Disinfect", node=cell.target, ok=0,
                            attack=None, cell=cell.cell_id)
        self.population.retire(cell.cell_id)

    def _declaration_pass(self, state: TransportState) -> None:
        ants_present: Counter = Counter()
        for cell in self.population.of_kind(ANT):
            if cell.location is not None:
                ants_present[cell.location] += 1
        declared = self.pheromone.declare(ants_present, self.quorum)
        # rate-limit per node so persistent evidence re-reports once per window
        redeclare = self.config.stations.dedup_window
        for node in declared:
            last = self._last_identify.get(node)
            if last is not None and state.clock - last < redeclare:
                continue
            attack = self.pheromone.dominant_attack(node)
            state.log.append(state.clock, "Identify", node=node, attack=attack)
            self._last_identify[node] = state.clock
            payload = json.dumps({"kind": "report", "node": node, "attack": attack},
                                 sort_keys=True).encode()
            self._send_substance(node, payload, {self.lymph_receptor.public}, what="report")

    def evaporate(self, state: TransportState) -> None:
        self.pheromone.evaporate()

    def station_actions(self, state: TransportState) -> None:
        for st in self.stations:
            inbox, st.inbox = st.inbox, []
            for sub in inbox:
                self._station_handle(st, sub)
            if st.kind == NURSERY and (state.clock + 1) % st.period == 0:
                self._nursery_release(st)

    def _station_handle(self, st: Station, sub: receptors.Substance) -> None:
        payload = receptors.try_open(sub, {st.receptor.private})
        if payload is None:
            self._lymph_forward(st, sub)
            return
        self.log.append(self.state.clock, "SubstanceOpen", sid=sub.sid,
                        station=st.station_id, node=st.node)
        message = json.loads(payload.decode())
        if message.get("kind") == "report" and st.kind == LYMPH:
            self._lymph_on_report(st, message)
        elif message.get("kind") == "monitor" and st.kind == ADMIN:
            st.received.append(payload)

    def _lymph_forward(self, st: Station, sub: receptors.Substance) -> None:
        sub.visited.add(st.station_id)
        if sub.hop_ttl <= 0:
            self.log.append(self.state.clock, "Drop", sid=sub.sid, node=st.node,
                            reason="ttl")
            return
        target = next_station(self.stations, st, sub, self.dist)
        if target is None:
            self.log.append(self.state.clock, "Drop", sid=sub.sid, node=st.node,
                            reason="no-opener")
            return
        sub.hop_ttl -= 1
        self._transmit_substance(st.node, target, sub, "relay")

    def _lymph_on_report(self, st: LymphStation, message: dict) -> None:
        node = message["node"]
        attack = message.get("attack")
        key = (node, attack)
        last = st.last_spawn.get(key)
        if last is not None and self.state.clock - last < self.config.stations.dedup_window:
            return
        st.last_spawn[key] = self.state.clock
        self._spawn(DISINFECTOR, st.node, by=st.station_id, target=node)
        self._immunize(st, node, attack)

    def _immunize(self, st: LymphStation, around: int, attack: int | None) -> None:
        """Local immunization: push the attack signature to every detector
        within the configured radius of the reported node, and refresh the
        nurseries' trained sets. Pushes are sealed/opened same-step."""
        if attack is None or attack not in self.attacks:
            return
        sig = self.attacks[attack].signature
        radius = self.config.stations.immunization_radius
        for cell in self.population.of_kind(DETECTOR):
            if cell.location is None or self.dist[cell.location][around] > radius:
                continue
            opened = self._push(st, sig, cell.receptor, cell.location, cell=cell.cell_id)
            if opened is None:
                continue
            if cell.db is None:
                cell.db = CompressedSignatureDb([opened], self.config.detectors.target_fpr)
            else:
                cell.db.add(opened)
        for other in self.stations:
            if isinstance(other, NurseryStation) and sig not in other.trained_signatures:
                if self._push(st, sig, other.receptor, other.node,
                              station=other.station_id) is not None:
                    other.trained_signatures.append(sig)

    def _push(self, st: Station, payload: bytes, receptor: receptors.Receptor, node: int,
              station: int | None = None, cell: int | None = None) -> bytes | None:
        """Seal `payload` for the holder of `receptor` at `node`, a station or
        a cell, log the send and open it there in the same step. Returns
        the opened payload, or None when it does not open."""
        sub = self._make_substance(st.node, payload, {receptor.public})
        # an open names the station (`-` for a cell), then the cell if any
        holder = {"station": station} if cell is None else {"cell": cell}
        self.log.append(self.state.clock, "SubstanceSend", sid=sub.sid, src=st.node,
                        dst=node, what="immunize", **holder)
        opened = receptors.try_open(sub, {receptor.private})
        if opened is not None:
            self.log.append(self.state.clock, "SubstanceOpen", sid=sub.sid,
                            station=station, node=node, **({} if cell is None else holder))
        return opened

    def _nursery_release(self, st: NurseryStation) -> None:
        for kind in sorted(st.mix):
            cap = self.caps.get(kind, 0)
            for _ in range(st.mix[kind]):
                replaces = None
                if cap and self.population.count(kind) >= cap:
                    victim = self.population.oldest(kind, 1)[0]
                    self._retire_cell(victim)
                    replaces = victim.cell_id
                self._spawn(kind, st.node, by=st.station_id, replaces=replaces,
                            signatures=st.trained_signatures)

    def _retire_cell(self, cell: ArtificialCell) -> None:
        if cell.kind == DETECTOR and cell.location is not None:
            self.defense.deregister(cell.location, cell.component.component_id)
        self.population.retire(cell.cell_id)

    # --------------------------------------------------------- substances

    def _make_substance(self, origin: int, payload: bytes, required) -> receptors.Substance:
        sub = receptors.seal(payload, required, self.substance_ttl, origin)
        sub.sid = next(self._substance_ids)
        return sub

    def _send_substance(self, origin: int, payload: bytes, required,
                        what: str) -> None:
        """Seal and hand off to the nearest station."""
        sub = self._make_substance(origin, payload, required)
        self._transmit_substance(origin, nearest_station(self.stations, origin, self.dist),
                                 sub, what)

    def _transmit_substance(self, src: int, target: Station, sub: receptors.Substance,
                            what: str) -> None:
        """Address a substance to a station, travelling as an immune-class
        packet when the station is elsewhere."""
        sub.dest = target.station_id
        self.log.append(self.state.clock, "SubstanceSend", sid=sub.sid, src=src,
                        dst=target.node, what=what, station=target.station_id)
        if target.node == src:
            target.inbox.append(sub)
            return
        pkt = self.state.make_packet(src, target.node, IMMUNE, cargo=sub)
        self.state.log.append(self.state.clock, "Inject", pid=pkt.pid, node=src,
                              src=src, dst=target.node, klass=IMMUNE, attack=None)
        self.state.enqueue(src, pkt)

    # -------------------------------------------------------------- run

    def hooks(self) -> StepHooks:
        return StepHooks(
            inject=self.inject,
            on_forward=self.on_forward,
            on_arrival=self.on_arrival,
            on_deliver=self.on_deliver,
            emit=self.emit,
            cells=self.cells,
            evaporate=self.evaporate,
            stations=self.station_actions,
        )

    def run(self, horizon: int | None = None) -> RunResult:
        steps = self.config.horizon if horizon is None else horizon
        hooks = self.hooks()
        for _ in range(steps):
            transport.step(self.state, hooks)
        audit = transport.conservation_audit(self.log.events)
        metrics = compute_metrics(self.log.events)
        return RunResult(self.config, self.seed, self.log, metrics, audit)


def run(config: ScenarioConfig, seed: int, horizon: int | None = None,
        strict_checks: bool = False) -> RunResult:
    """Execute one full simulation; pure function of its arguments."""
    world = World(config, seed, strict_checks=strict_checks)
    return world.run(horizon)
