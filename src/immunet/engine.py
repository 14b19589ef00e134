"""Run orchestration: builds a world from a scenario config and steps it.

Everything random is drawn from named child streams of the run seed
(topology, vulnerability, worm entry, placement, background, per-cell
walks, and per-(node, step) worm emissions), so a run is a pure
function of (config, seed) and paired runs stay comparable when one
subsystem is toggled. A log depends only on CPython's `Random.seed(int)`,
`random()`, `getrandbits()` and `sample()`: uniform indices and payload
bytes are drawn from `getrandbits` (`adversary.uniform_index`), so a
change to `randrange` or `randbytes` cannot move a log.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter, deque
from dataclasses import dataclass
from random import Random

from . import adversary, defense, receptors, stations, transport
from .cells import ANT, DETECTOR, DISINFECTOR, MONITOR, ArtificialCell, CellPopulation
from .events import EventLog
from .metrics import Metrics, compute_metrics
from .pheromone import PheromoneMap, choose_move
from .scenario import AttackConfig, FilterRuleConfig, ScenarioConfig, TopologySpec
from .signatures import CompressedSignatureDb
from .stations import ADMIN, LYMPH, NURSERY, Station, nearest_station, next_station
from .topology import (Network, UnknownNode, bfs_distances, build_network,
                       compute_routing, diameter, erdos_renyi, line_network,
                       ring_network, star_network, top_betweenness)
from .transport import StepHooks, TransportState

# each kind a run starts with, and its scenario section
_SECTIONS = {DETECTOR: "detectors", ANT: "ants", MONITOR: "monitors"}
# each routed message kind, and the station kind that opens it: its receptor
_OPENER = {"report": LYMPH, "monitor": ADMIN}


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
        return build_network(spec.node_ids(), spec.links, bandwidth)
    raise ValueError(f"unknown topology kind {spec.kind!r}")


@dataclass
class RunResult:
    log: EventLog
    metrics: Metrics


class World:
    """All mutable state for one simulation run."""

    def __init__(self, config: ScenarioConfig, seed: int, strict_checks: bool = False):
        self.config = config
        self.seeds = SeedTree(seed)
        cfg_tr = config.transport

        self.network = build_topology(config.topology, self.seeds.stream("topology"),
                                      cfg_tr.link_bandwidth)
        # next-hop rows, from one bit-parallel breadth-first sweep over all
        # nodes; the only hop counts kept are those from station nodes
        # (`Station.hops`)
        self.routing = compute_routing(self.network)
        self.state = TransportState(self.network, self.routing, cfg_tr.queue_capacity,
                                    strict_checks=strict_checks)
        self.log = self.state.log
        self._detect_keys = self.log.keys("Detect", "pid", "node", "src", "psrc", "klass",
                                          "attack", "by", "bykind", "cell")
        self._cell_move_keys = self.log.keys("CellMove", "cell", "cellkind", "node")

        self.attacks: dict[int, AttackConfig] = {a.attack_id: a for a in config.attacks}
        self.signature_set = [a.signature_bytes() for a in self.attacks.values()]
        self._stores: dict[frozenset[bytes], CompressedSignatureDb | None] = {frozenset(): None}

        vuln_rng = self.seeds.stream("vulnerability")
        prob = config.vulnerability.probability
        # `adversary`'s infection model; no order of `vulnerable` may reach the log
        self.vulnerable = {n for n in self.network.nodes if vuln_rng.random() < prob}
        self.infected: dict[int, int] = {}  # infected node -> the attack holding it

        self.worm_entry: int | None = None  # the node `config.worm` enters at
        if config.worm.enabled and config.worm.attack_id in self.attacks:
            if config.worm.entry == "random":
                entry = self.network.nodes[adversary.uniform_index(
                    self.seeds.stream("worm-entry"), len(self.network.nodes))]
                self.vulnerable.add(entry)  # the hole the worm gets in through
            else:
                entry = config.worm.entry
                if entry not in self.network.index:
                    raise UnknownNode(entry)
            self.worm_entry = entry

        self.background_rng = self.seeds.stream("background")
        # reseeded per (node, step) in `emit`: the stream of `seeds.stream("worm", ...)`
        self.worm_rng = Random()

        self.defense = defense.DefenseStack(self.network)
        self.pheromone = PheromoneMap(config.pheromone)

        self.population = CellPopulation()
        self._cell_ids = itertools.count()
        self._component_ids = itertools.count()
        self._substance_ids = itertools.count()
        self._last_identify: dict[int, int] = {}

        initial = self._store(self.signature_set
                              if config.detectors.initial_signatures == "all" else ())
        self._setup_filters()
        self._setup_static_ids()
        self._setup_stations(initial)
        self._setup_cells(initial)

    # ------------------------------------------------------------- setup

    def _setup_filters(self) -> None:
        by_node: dict[int, list[FilterRuleConfig]] = {}
        for rule in self.config.filters:
            by_node.setdefault(rule.node, []).append(rule)
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

    def _setup_stations(self, trained: CompressedSignatureDb | None) -> None:
        cfg = self.config.stations
        # a station's id is its index in `stations`: lymph nodes, nurseries, then admin
        kinds = [LYMPH] * cfg.lymph + [NURSERY] * cfg.nurseries + [ADMIN]
        if isinstance(cfg.placement, str):
            rng = self.seeds.stream("placement", "stations")
            nodes = rng.sample(self.network.nodes, len(kinds))
        else:
            nodes = list(cfg.placement)
        if cfg.admin_node is not None:
            nodes[-1] = cfg.admin_node
        self.stations: list[Station] = [
            Station(sid, kind, node, bfs_distances(self.network, node),
                    store=trained if kind == NURSERY else None)
            for sid, (kind, node) in enumerate(zip(kinds, nodes))]

        self.substance_ttl = cfg.substance_ttl
        if self.substance_ttl is None:
            self.substance_ttl = 4 * diameter(self.routing)

    def _place_cells(self, count: int, placement, label: str) -> list[int]:
        if isinstance(placement, list):
            return list(placement)[:count]
        rng = self.seeds.stream("placement", label)
        pool = self.network.nodes
        return [pool[adversary.uniform_index(rng, len(pool))] for _ in range(count)]

    def _section(self, kind: str):
        """The scenario section of a kind a run starts with: its `count` is
        the kind's default cap, its name labels the kind's placement stream."""
        return getattr(self.config, _SECTIONS[kind])

    def _setup_cells(self, store: CompressedSignatureDb | None) -> None:
        for kind, label in _SECTIONS.items():
            section = self._section(kind)
            for node in self._place_cells(section.count,
                                          getattr(section, "placement", "random"), label):
                self._spawn(kind, node, by="init", store=store)

    def _store(self, signatures) -> CompressedSignatureDb | None:
        """The run's one store of `signatures`, built when the set is first
        needed; None for the empty set."""
        key = frozenset(signatures)
        if key not in self._stores:
            self._stores[key] = CompressedSignatureDb(key, self.config.detectors.target_fpr)
        return self._stores[key]

    def _spawn(self, kind: str, node: int, by, replaces: int | None = None,
               store=None, target: int = -1) -> ArtificialCell:
        """Release a cell of `kind` at `node`. A detector carries `store` and
        joins the node's defence stack; a disinfector heads for `target`."""
        cid = next(self._cell_ids)
        cell = ArtificialCell(cell_id=cid, kind=kind, location=node,
                              rng=self.seeds.stream("cell", cid), born_at=self.state.clock)
        if kind == DETECTOR:
            cell.db = store
        elif kind == ANT:
            cell.memory = deque(maxlen=self.config.ants.memory)
        elif kind == DISINFECTOR:
            cell.target = target
        self.population.add(cell)
        self.log.append(self.state.clock, "Spawn", cell=cid, cellkind=kind, node=node,
                        by=by, replaces=replaces)
        if kind == DETECTOR:
            cell.component = defense.DetectorComponent(cell)
            self.defense.register(node, cell.component)
        return cell

    # ------------------------------------------------------------- phases

    def inject(self, state: TransportState) -> None:
        worm = self.config.worm
        if self.worm_entry is not None and state.clock == worm.entry_step:
            adversary.spawn_worm(state, self.vulnerable, self.infected,
                                 self.attacks[worm.attack_id], self.worm_entry)
        state.offer(adversary.inject_background(state, self.config.traffic, self.attacks,
                                                self.background_rng))

    def on_forward(self, state: TransportState, pkt, u: int, v: int) -> None:
        cargo = pkt.cargo
        if isinstance(cargo, ArtificialCell) and cargo.kind == DETECTOR and cargo.alive:
            self.defense.deregister(u, cargo.component.component_id)

    def on_arrival(self, state: TransportState, node: int, pkt, from_node: int) -> bool:
        by = self.defense.check_all(node, pkt)
        if by is None:
            return False
        self.log.events.append((state.clock, "Detect", self._detect_keys, pkt.pid, node,
                                from_node, pkt.src, pkt.klass, pkt.attack, by.component_id,
                                by.kind, by.cell_id))
        if by.kind in ("StaticIDS", "Cell"):
            # signature-layer detection feeds the ant colony
            self.pheromone.deposit((from_node, node), pkt.attack)
        cargo = pkt.cargo
        if isinstance(cargo, ArtificialCell):
            self.population.retire(cargo.cell_id)
        return True

    def on_deliver(self, state: TransportState, pkt) -> None:
        cargo = pkt.cargo
        if isinstance(cargo, ArtificialCell):
            if cargo.alive:
                self._arrive_cell(cargo, pkt.dst)
            return
        if isinstance(cargo, receptors.Substance):
            self.stations[cargo.dest].inbox.append(cargo)
            return
        # transport calls this only for cargo or an attack id: no cargo, so an attack
        adversary.on_attack_delivery(state, self.vulnerable, self.infected, pkt,
                                     self.attacks[pkt.attack])

    def _arrive_cell(self, cell: ArtificialCell, node: int) -> None:
        cell.location = node
        cell.pending_move = False
        if cell.kind == ANT:
            cell.memory.append(node)
        if cell.kind == DETECTOR:
            self.defense.register(node, cell.component)
        self.log.events.append((self.state.clock, "CellMove", self._cell_move_keys,
                                cell.cell_id, cell.kind, node))

    def emit(self, state: TransportState) -> None:
        rng = self.worm_rng
        for node, attack_id in sorted(self.infected.items()):
            rng.seed(self.seeds.derive_seed("worm", node, state.clock))
            state.offer(adversary.worm_emit(state, node, self.attacks[attack_id], rng,
                                            self.config.traffic.payload_len))

    def cells(self, state: TransportState) -> None:
        p_move = self.config.detectors.p_move
        epsilon = self.config.ants.epsilon
        flush_period = self.config.monitors.flush_period
        # deposits happen only on arrival (phase 3) and evaporation comes
        # after this phase, so one read serves every monitor and the declaration
        mass = self.pheromone.out_mass()
        for cell in self.population.alive_sorted():
            if not cell.alive or cell.pending_move:
                continue
            if cell.kind == DETECTOR:
                if cell.rng.random() < p_move:
                    self._move_cell(cell, self._random_neighbor(cell))
            elif cell.kind == ANT:
                nxt = choose_move(self.pheromone, cell.location,
                                  self.network.neighbors(cell.location),
                                  cell.memory, epsilon, cell.rng)
                self._move_cell(cell, nxt)
            elif cell.kind == MONITOR:
                self._monitor_collect(cell, flush_period, mass)
                self._move_cell(cell, self._random_neighbor(cell))
            elif cell.kind == DISINFECTOR:
                if cell.location == cell.target:
                    self._disinfect(cell)
                else:
                    row = self.routing.rows[cell.target]
                    self._move_cell(cell, row[self.network.index[cell.location]])
        self._declaration_pass(state, mass)

    def _random_neighbor(self, cell: ArtificialCell) -> int:
        nbrs = self.network.neighbors(cell.location)
        return nbrs[adversary.uniform_index(cell.rng, len(nbrs))]

    def _move_cell(self, cell: ArtificialCell, to: int) -> None:
        if self.state.send(cell.location, to, cell) == transport.ACCEPTED:
            cell.pending_move = True
        # on Drop the cell simply stays put and retries next step

    def _monitor_collect(self, cell: ArtificialCell, flush_period: int,
                         mass: dict[int, float]) -> None:
        node = cell.location
        cell.buffer.append({
            "step": self.state.clock,
            "node": node,
            "occupancy": self.state.queues[node].occupancy(),
            "pheromone": round(mass.get(node, 0.0), 9),
        })
        if (self.state.clock - cell.born_at + 1) % flush_period == 0 and cell.buffer:
            payload = {"kind": "monitor", "cell": cell.cell_id, "rows": cell.buffer}
            cell.buffer = []
            self._send_substance(node, payload)

    def _disinfect(self, cell: ArtificialCell) -> None:
        """Cure the target by `adversary.cure`, log the outcome and retire the cell."""
        attack = adversary.cure(self.state, self.infected, cell.target)
        self.log.append(self.state.clock, "Disinfect", node=cell.target,
                        ok=int(attack is not None), attack=attack, cell=cell.cell_id)
        self.population.retire(cell.cell_id)

    def _declaration_pass(self, state: TransportState, mass: dict[int, float]) -> None:
        ants_present = Counter(cell.location for cell in self.population.of_kind(ANT))
        declared = self.pheromone.declare(mass, ants_present)
        # rate-limit per node so persistent evidence re-reports once per window
        redeclare = self.config.stations.dedup_window
        for node in declared:
            last = self._last_identify.get(node)
            if last is not None and state.clock - last < redeclare:
                continue
            attack = self.pheromone.dominant_attack(node)
            state.log.append(state.clock, "Identify", node=node, attack=attack)
            self._last_identify[node] = state.clock
            payload = {"kind": "report", "node": node, "attack": attack}
            self._send_substance(node, payload)

    def evaporate(self, state: TransportState) -> None:
        self.pheromone.evaporate()

    def station_actions(self, state: TransportState) -> None:
        release = (state.clock + 1) % self.config.stations.release_period == 0
        for st in self.stations:
            inbox, st.inbox = st.inbox, []
            for sub in inbox:
                self._station_handle(st, sub)
            if release and st.kind == NURSERY:
                self._nursery_release(st)

    def _station_handle(self, st: Station, sub: receptors.Substance) -> None:
        payload = receptors.try_open(sub, st.kind)
        if payload is None:
            self._relay(st, sub)
            return
        self.log.append(self.state.clock, "SubstanceOpen", sid=sub.sid,
                        station=st.station_id, node=st.node)
        # by `_OPENER`, a report opens only at a lymph node, monitor rows at the admin
        if payload["kind"] == "report":
            self._lymph_on_report(st, payload)
        else:
            st.received.append(payload)

    def _relay(self, st: Station, sub: receptors.Substance) -> None:
        """Relay a substance `st` cannot open to the nearest untried station.
        `hop_ttl` counts these relays, not network hops; `visited` alone
        ends a chain once every station has tried the substance."""
        sub.visited.add(st.station_id)
        if sub.hop_ttl <= 0:
            self.log.append(self.state.clock, "Drop", sid=sub.sid, node=st.node,
                            reason="ttl")
            return
        target = next_station(self.stations, st, sub)
        if target is None:
            self.log.append(self.state.clock, "Drop", sid=sub.sid, node=st.node,
                            reason="no-opener")
            return
        sub.hop_ttl -= 1
        self._transmit_substance(st.node, target, sub, "relay")

    def _lymph_on_report(self, st: Station, message: dict) -> None:
        node, attack = message["node"], message["attack"]
        key = (node, attack)
        last = st.last_spawn.get(key)
        if last is not None and self.state.clock - last < self.config.stations.dedup_window:
            return
        st.last_spawn[key] = self.state.clock
        self._spawn(DISINFECTOR, st.node, by=st.station_id, target=node)
        self._immunize(st, node, attack)

    def _immunize(self, st: Station, around: int, attack: int | None) -> None:
        """Local immunization: push the attack signature to every detector
        within the configured radius of the reported node and to the nurseries
        that lack it. A push is a same-step hand-over, not sealed, that swaps
        the holder's store for the shared store of its set plus the signature."""
        if attack is None:
            return
        sig = self.attacks[attack].signature_bytes()
        radius = self.config.stations.immunization_radius
        within = self.routing.within
        for cell in self.population.of_kind(DETECTOR):
            if not within(cell.location, around, radius):
                continue
            self._push(st, cell.location, cell=cell.cell_id)
            cell.db = self._store(_members(cell.db) | {sig})
        for other in self.stations:
            if other.kind == NURSERY and sig not in _members(other.store):
                self._push(st, other.node, station=other.station_id)
                other.store = self._store(_members(other.store) | {sig})

    def _push(self, st: Station, node: int, station: int | None = None,
              cell: int | None = None) -> None:
        """Log a signature's same-step hand-over from `st` to a station or cell
        at `node`, its send and its open. Not sealed: cells hold no receptor."""
        sid = next(self._substance_ids)
        # an open names the station (`-` for a cell), then the cell if any
        holder = {"station": station} if cell is None else {"cell": cell}
        self.log.append(self.state.clock, "SubstanceSend", sid=sid, src=st.node,
                        dst=node, what="immunize", **holder)
        self.log.append(self.state.clock, "SubstanceOpen", sid=sid,
                        station=station, node=node, **({} if cell is None else holder))

    def _nursery_release(self, st: Station) -> None:
        mix = self.config.stations.release_mix
        for kind in sorted(mix):
            cap = self.config.stations.caps.get(kind, self._section(kind).count)
            if not cap:
                continue  # a cap of 0 releases none of the kind
            for _ in range(mix[kind]):
                replaces = None
                if self.population.count(kind) >= cap:
                    victim = self.population.oldest(kind)
                    self._retire_cell(victim)
                    replaces = victim.cell_id
                self._spawn(kind, st.node, by=st.station_id, replaces=replaces,
                            store=st.store)

    def _retire_cell(self, cell: ArtificialCell) -> None:
        if cell.kind == DETECTOR:
            self.defense.deregister(cell.location, cell.component.component_id)
        self.population.retire(cell.cell_id)

    # --------------------------------------------------------- substances

    def _send_substance(self, origin: int, payload: dict) -> None:
        """Seal `payload` for the station kind that opens its kind of message
        and hand it to the station nearest `origin`."""
        kind = payload["kind"]
        sub = receptors.seal(payload, _OPENER[kind], self.substance_ttl)
        sub.sid = next(self._substance_ids)
        target = nearest_station(self.stations, origin)
        self._transmit_substance(origin, target, sub, kind)

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
        self.state.send(src, target.node, sub)

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
            checked=self.defense.at,
        )

    def run(self, horizon: int | None = None) -> RunResult:
        steps = self.config.horizon if horizon is None else horizon
        hooks = self.hooks()
        for _ in range(steps):
            transport.step(self.state, hooks)
        audit = transport.conservation_audit(self.log.events)
        held = self.state.held()
        if audit != held:
            pid = min(p for p in audit.keys() | held.keys() if audit.get(p) != held.get(p))
            raise transport.ConservationViolation(pid, (
                f"the log leaves it in flight at {audit.get(pid, '-')}, "
                f"the transport holds it at {held.get(pid, '-')}"))
        metrics = compute_metrics(self.log.events)
        return RunResult(self.log, metrics)


def _members(store: CompressedSignatureDb | None) -> frozenset[bytes]:
    return store.members if store is not None else frozenset()


def run(config: ScenarioConfig, seed: int, horizon: int | None = None) -> RunResult:
    """Execute one full simulation; pure function of its arguments."""
    return World(config, seed).run(horizon)
