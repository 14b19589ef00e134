"""Scenario configuration: a run is a pure function of (config, seed).

Scenarios are JSON documents validated strictly: unknown keys are
rejected so typos cannot silently change an experiment, and every value
must fit its field's annotation. Every knob of every subsystem lives here.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from importlib import resources
from types import UnionType
from typing import get_args, get_origin, get_type_hints


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


@dataclass
class TopologySpec:
    kind: str = "erdos_renyi"  # erdos_renyi | line | ring | star | explicit
    nodes: int = 50
    edge_prob: float = 0.08
    links: list[list[int]] = field(default_factory=list)  # explicit: [u, v] or [u, v, bw]

    def node_ids(self) -> list[int]:
        """The ids of the network's nodes: 0..nodes-1, or for an explicit
        topology the link endpoints, widened to 0..nodes-1 when that is larger."""
        if self.kind != "explicit":
            return list(range(self.nodes))
        ids = {n for link in self.links for n in link[:2]}
        if isinstance(self.nodes, int) and self.nodes > len(ids):
            ids |= set(range(self.nodes))
        return sorted(ids)


@dataclass
class TransportConfig:
    queue_capacity: int = 32
    link_bandwidth: int = 4


@dataclass
class AttackConfig:
    attack_id: int = 1
    signature: str = ""  # hex
    infects: bool = True
    fanout: int = 2

    def signature_bytes(self) -> bytes:
        return bytes.fromhex(self.signature)


@dataclass
class TrafficConfig:
    background_rate: float = 20.0
    distribution: str = "poisson"
    payload_len: int = 64
    attack_mix: list[dict] = field(default_factory=list)  # {"attack_id": int, "rate": float}


@dataclass
class WormConfig:
    enabled: bool = True
    attack_id: int = 1
    entry_step: int = 100
    entry: int | str = "random"  # node id, or "random" (uniform, forced vulnerable)


@dataclass
class VulnerabilityConfig:
    probability: float = 1.0


@dataclass
class DetectorConfig:
    count: int = 30
    p_move: float = 0.5
    target_fpr: float = 0.01
    initial_signatures: str = "all"  # all | none
    placement: str | list[int] = "random"


@dataclass
class AntConfig:
    count: int = 20
    memory: int = 4
    epsilon: float = 0.01


@dataclass
class MonitorConfig:
    count: int = 2
    flush_period: int = 25


@dataclass
class PheromoneConfig:
    deposit: float = 1.0
    evaporation: float = 0.02
    threshold: float = 5.0
    quorum: int = 2


@dataclass
class StationConfig:
    lymph: int = 2
    nurseries: int = 2
    placement: str | list[int] = "random"
    admin_node: int | None = None  # None = random
    release_period: int = 100
    release_mix: dict[str, int] = field(default_factory=lambda: {"Detector": 2, "Ant": 1})
    caps: dict[str, int] = field(default_factory=dict)  # default: initial counts
    immunization_radius: int = 2
    dedup_window: int = 50
    substance_ttl: int | None = None  # None = 4 * network diameter


@dataclass
class IdsConfig:
    count: int = 0
    placement: str | list[int] = "top-betweenness"


@dataclass
class FilterRuleConfig:
    node: int = 0
    action: str = "Drop"
    src: list[int] | None = None
    dst: list[int] | None = None
    klass: str | None = None


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 0
    horizon: int = 2000
    topology: TopologySpec = field(default_factory=TopologySpec)
    transport: TransportConfig = field(default_factory=TransportConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    attacks: list[AttackConfig] = field(default_factory=list)
    worm: WormConfig = field(default_factory=WormConfig)
    vulnerability: VulnerabilityConfig = field(default_factory=VulnerabilityConfig)
    detectors: DetectorConfig = field(default_factory=DetectorConfig)
    ants: AntConfig = field(default_factory=AntConfig)
    monitors: MonitorConfig = field(default_factory=MonitorConfig)
    pheromone: PheromoneConfig = field(default_factory=PheromoneConfig)
    stations: StationConfig = field(default_factory=StationConfig)
    static_ids: IdsConfig = field(default_factory=IdsConfig)
    filters: list[FilterRuleConfig] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _build_section(cls, data, path: str):
    """Build dataclass `cls` from a JSON object. Each value must fit its
    field's annotation; a section, or a list of sections, is built in turn."""
    if not isinstance(data, dict):
        raise ValidationError(path, "expected an object")
    hints = _field_types(cls)
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in hints:
            raise ValidationError(where, "unknown key")
        kwargs[key] = _build_value(hints[key], value, where)
    return cls(**kwargs)


@functools.cache
def _field_types(cls) -> dict:
    return get_type_hints(cls)


def _build_value(hint, value, path: str):
    if type(value) is hint:  # a plain scalar of exactly the annotated type
        return value
    if is_dataclass(hint):
        return _build_section(hint, value, path)
    item = get_args(hint)[0] if get_origin(hint) is list else None
    if is_dataclass(item):
        if not isinstance(value, list):
            raise ValidationError(path, "expected a list")
        return [_build_section(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    if not _fits(value, hint):
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        raise ValidationError(path, f"expected {name}")
    return value


def _fits(value, hint) -> bool:
    """Whether a JSON value fits an annotation. A bool is not a number, an
    int is a float, and None fits only where the annotation admits it."""
    args = get_args(hint)
    origin = get_origin(hint)
    if origin is UnionType:
        return any(_fits(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(_fits(k, args[0]) and _fits(v, args[1])
                                               for k, v in value.items())
    if hint is type(None):
        return value is None
    if hint is float:
        return _is_number(value)
    if hint is int:
        return _is_int(value)
    return isinstance(value, hint)


def from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ValidationError("<root>", "scenario must be an object")
    config = _build_section(ScenarioConfig, data, "")
    validate(config)
    return config


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_nodes(path: str, nodes, node_ids: set) -> None:
    for i, node in enumerate(nodes):
        if node not in node_ids:
            raise ValidationError(f"{path}[{i}]", "not a node of the topology")


def validate(config: ScenarioConfig) -> None:
    topo = config.topology
    if topo.kind not in ("erdos_renyi", "line", "ring", "star", "explicit"):
        raise ValidationError("topology.kind", f"unknown kind {topo.kind!r}")
    if topo.kind != "explicit" and topo.nodes < 2:
        raise ValidationError("topology.nodes", "need at least 2 nodes")
    node_ids = set(topo.node_ids())
    if topo.kind == "erdos_renyi" and not 0.0 < topo.edge_prob <= 1.0:
        raise ValidationError("topology.edge_prob", "must be in (0, 1]")
    if config.transport.queue_capacity < 1:
        raise ValidationError("transport.queue_capacity", "must be >= 1")
    if config.transport.link_bandwidth < 1:
        raise ValidationError("transport.link_bandwidth", "must be >= 1")
    if config.traffic.background_rate < 0:
        raise ValidationError("traffic.background_rate", "must be >= 0")
    if config.traffic.distribution not in ("poisson", "fixed"):
        raise ValidationError("traffic.distribution", "poisson or fixed")
    if config.traffic.payload_len < 1:
        raise ValidationError("traffic.payload_len", "must be >= 1")
    attack_ids = set()
    for i, attack in enumerate(config.attacks):
        if attack.attack_id in attack_ids:
            raise ValidationError(f"attacks[{i}].attack_id", "duplicate id")
        attack_ids.add(attack.attack_id)
        try:
            sig = attack.signature_bytes()
        except ValueError:
            raise ValidationError(f"attacks[{i}].signature", "invalid hex") from None
        if len(sig) < 4:
            raise ValidationError(f"attacks[{i}].signature", "need at least 4 bytes")
        if len(sig) > config.traffic.payload_len:
            raise ValidationError(f"attacks[{i}].signature", "longer than payload_len")
        if attack.fanout < 0:
            raise ValidationError(f"attacks[{i}].fanout", "must be >= 0")
    for i, entry in enumerate(config.traffic.attack_mix):
        if set(entry) != {"attack_id", "rate"}:
            raise ValidationError(f"traffic.attack_mix[{i}]", "wants attack_id and rate")
        if not _is_int(entry["attack_id"]) or entry["attack_id"] not in attack_ids:
            raise ValidationError(f"traffic.attack_mix[{i}].attack_id", "undeclared attack")
        if not _is_number(entry["rate"]):
            raise ValidationError(f"traffic.attack_mix[{i}].rate", "must be a number")
        if entry["rate"] < 0:
            raise ValidationError(f"traffic.attack_mix[{i}].rate", "must be >= 0")
    if config.worm.enabled:
        if config.worm.attack_id not in attack_ids:
            raise ValidationError("worm.attack_id", "undeclared attack")
        if config.worm.entry_step < 0:
            raise ValidationError("worm.entry_step", "must be >= 0")
        entry = config.worm.entry
        if entry != "random" and not _is_int(entry):
            raise ValidationError("worm.entry", 'must be a node id or "random"')
        if entry != "random" and entry not in node_ids:
            raise ValidationError("worm.entry", "not a node of the topology")
    if not 0.0 <= config.vulnerability.probability <= 1.0:
        raise ValidationError("vulnerability.probability", "must be in [0, 1]")
    if not 0.0 <= config.detectors.p_move <= 1.0:
        raise ValidationError("detectors.p_move", "must be in [0, 1]")
    if not 0.0 < config.detectors.target_fpr < 1.0:
        raise ValidationError("detectors.target_fpr", "must be in (0, 1)")
    if config.detectors.initial_signatures not in ("all", "none"):
        raise ValidationError("detectors.initial_signatures", "all or none")
    for section, cfg in (("detectors", config.detectors), ("ants", config.ants),
                         ("monitors", config.monitors)):
        if cfg.count < 0:
            raise ValidationError(f"{section}.count", "must be >= 0")
    if config.ants.memory < 0:
        raise ValidationError("ants.memory", "must be >= 0")
    if config.ants.epsilon <= 0:
        raise ValidationError("ants.epsilon", "must be > 0")
    if config.monitors.flush_period < 1:
        raise ValidationError("monitors.flush_period", "must be >= 1")
    ph = config.pheromone
    if not 0.0 < ph.evaporation < 1.0:
        raise ValidationError("pheromone.evaporation", "must be in (0, 1)")
    if ph.deposit <= 0:
        raise ValidationError("pheromone.deposit", "must be > 0")
    if ph.threshold <= 0:
        raise ValidationError("pheromone.threshold", "must be > 0")
    if ph.quorum < 1:
        raise ValidationError("pheromone.quorum", "must be >= 1")
    if isinstance(config.detectors.placement, list):
        if len(config.detectors.placement) < config.detectors.count:
            raise ValidationError("detectors.placement", "fewer nodes than count")
        _check_nodes("detectors.placement", config.detectors.placement, node_ids)
    st = config.stations
    if st.lymph < 2:
        raise ValidationError("stations.lymph", "redundancy requires >= 2")
    if st.nurseries < 2:
        raise ValidationError("stations.nurseries", "redundancy requires >= 2")
    if st.lymph + st.nurseries + 1 > len(node_ids):
        raise ValidationError("stations", "more stations (lymph, nurseries, admin) than nodes")
    if isinstance(st.placement, list):
        if len(st.placement) < st.lymph + st.nurseries + 1:
            raise ValidationError("stations.placement", "need a node per station plus admin")
        _check_nodes("stations.placement", st.placement, node_ids)
        if len(set(st.placement)) < len(st.placement):
            raise ValidationError("stations.placement", "repeats a node")
    if st.admin_node is not None and not (_is_int(st.admin_node)
                                          and st.admin_node in node_ids):
        raise ValidationError("stations.admin_node", "not a node of the topology")
    if st.release_period < 1:
        raise ValidationError("stations.release_period", "must be >= 1")
    for kind in st.release_mix:
        if kind not in ("Detector", "Ant", "Monitor"):
            raise ValidationError(f"stations.release_mix.{kind}", "unknown cell kind")
    for kind in st.caps:
        if kind not in ("Detector", "Ant", "Monitor"):
            raise ValidationError(f"stations.caps.{kind}", "unknown cell kind")
    if st.immunization_radius < 0:
        raise ValidationError("stations.immunization_radius", "must be >= 0")
    if st.dedup_window < 1:
        raise ValidationError("stations.dedup_window", "must be >= 1")
    if st.substance_ttl is not None and st.substance_ttl < 1:
        raise ValidationError("stations.substance_ttl", "must be >= 1")
    if config.static_ids.count < 0:
        raise ValidationError("static_ids.count", "must be >= 0")
    if isinstance(config.static_ids.placement, str):
        if config.static_ids.placement != "top-betweenness":
            raise ValidationError("static_ids.placement", "top-betweenness or a node list")
    else:
        _check_nodes("static_ids.placement", config.static_ids.placement, node_ids)
    for i, rule in enumerate(config.filters):
        if rule.node not in node_ids:
            raise ValidationError(f"filters[{i}].node", "not a node of the topology")
        if rule.action not in ("Drop", "Accept"):
            raise ValidationError(f"filters[{i}].action", "Drop or Accept")
        if rule.klass not in (None, "Data", "Immune"):
            raise ValidationError(f"filters[{i}].klass", "Data, Immune, or null")
    if not _is_int(config.horizon):
        raise ValidationError("horizon", "must be an integer")
    if config.horizon < 0:
        raise ValidationError("horizon", "must be >= 0")


def loads(text: str) -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno) from None
    return from_dict(data)


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def baseline_scenario() -> ScenarioConfig:
    """The bundled calibration scenario."""
    text = resources.files("immunet").joinpath("scenarios/baseline.scenario").read_text("utf-8")
    return loads(text)
