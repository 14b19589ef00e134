"""Scenario configuration: a run is a pure function of (config, seed).

Scenarios are JSON documents validated strictly: unknown keys are
rejected so typos cannot silently change an experiment. Each field's
annotation is the one statement of its own rules: its type, its choices
(`Literal`) and its bounds (`Annotated[T, rule]`), checked as the field is
built. `validate()` holds only the rules that span fields or hold under a
condition. Every knob of every subsystem lives here.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from importlib import resources
from types import UnionType
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

from .topology import TopologyError, build_network


class ParseError(ValueError):
    """A scenario or grid file that is not JSON text."""


class ValidationError(ValueError):
    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


# Bounds on one field, as (test, message): a value failing `test` is rejected with `message`.
AT_LEAST_0 = (lambda v: v >= 0, "must be >= 0")
AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
POSITIVE = (lambda v: v > 0, "must be > 0")
OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "must be in (0, 1)")
CLOSED_UNIT = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")
REDUNDANT = (lambda v: v >= 2, "redundancy requires >= 2")
FILE_STEM = (lambda v: v != "" and not any(c in v for c in "/\\\0"),
             "must be non-empty, without '/', '\\' or NUL")

CellKind = Literal["Detector", "Ant", "Monitor"]
CellCounts = dict[CellKind, Annotated[int, AT_LEAST_0]]


@dataclass
class TopologySpec:
    kind: Literal["erdos_renyi", "line", "ring", "star", "explicit"] = "erdos_renyi"
    nodes: int = 50
    edge_prob: float = 0.08
    links: list[list[int]] = field(default_factory=list)  # explicit: [u, v] or [u, v, bw]

    def node_ids(self) -> list[int]:
        """The ids of the network's nodes: 0..nodes-1, or for an explicit
        topology the link endpoints, widened to 0..nodes-1 when that is larger."""
        if self.kind != "explicit":
            return list(range(self.nodes))
        ids = {n for link in self.links for n in link[:2]}
        if self.nodes > len(ids):
            ids |= set(range(self.nodes))
        return sorted(ids)


@dataclass
class TransportConfig:
    queue_capacity: Annotated[int, AT_LEAST_1] = 32
    link_bandwidth: Annotated[int, AT_LEAST_1] = 4


@dataclass
class AttackConfig:
    attack_id: int = 1
    signature: str = ""  # hex
    infects: bool = True
    fanout: Annotated[int, AT_LEAST_0] = 2

    def signature_bytes(self) -> bytes:
        return bytes.fromhex(self.signature)


@dataclass
class TrafficConfig:
    background_rate: Annotated[float, AT_LEAST_0] = 20.0
    distribution: Literal["poisson", "fixed"] = "poisson"
    payload_len: Annotated[int, AT_LEAST_1] = 64
    attack_mix: list[dict] = field(default_factory=list)  # {"attack_id": int, "rate": float}


@dataclass
class WormConfig:
    enabled: bool = True
    attack_id: int = 1
    entry_step: int = 100
    entry: int | Literal["random"] = "random"  # "random": uniform, forced vulnerable


@dataclass
class VulnerabilityConfig:
    probability: Annotated[float, CLOSED_UNIT] = 1.0


@dataclass
class DetectorConfig:
    count: Annotated[int, AT_LEAST_0] = 30
    p_move: Annotated[float, CLOSED_UNIT] = 0.5
    target_fpr: Annotated[float, OPEN_UNIT] = 0.01
    initial_signatures: Literal["all", "none"] = "all"
    placement: Literal["random"] | list[int] = "random"


@dataclass
class AntConfig:
    count: Annotated[int, AT_LEAST_0] = 20
    memory: Annotated[int, AT_LEAST_0] = 4
    epsilon: Annotated[float, POSITIVE] = 0.01


@dataclass
class MonitorConfig:
    count: Annotated[int, AT_LEAST_0] = 2
    flush_period: Annotated[int, AT_LEAST_1] = 25


@dataclass
class PheromoneConfig:
    deposit: Annotated[float, POSITIVE] = 1.0
    evaporation: Annotated[float, OPEN_UNIT] = 0.02
    threshold: Annotated[float, POSITIVE] = 5.0
    quorum: Annotated[int, AT_LEAST_1] = 2


@dataclass
class StationConfig:
    lymph: Annotated[int, REDUNDANT] = 2
    nurseries: Annotated[int, REDUNDANT] = 2
    placement: Literal["random"] | list[int] = "random"
    admin_node: int | None = None  # None = random
    release_period: Annotated[int, AT_LEAST_1] = 100
    release_mix: CellCounts = field(default_factory=lambda: {"Detector": 2, "Ant": 1})
    caps: CellCounts = field(default_factory=dict)  # default: initial counts; 0 releases none
    immunization_radius: Annotated[int, AT_LEAST_0] = 2
    dedup_window: Annotated[int, AT_LEAST_1] = 50
    # relays from station to station, not network hops; None = 4 * network diameter
    substance_ttl: Annotated[int | None, AT_LEAST_1] = None


@dataclass
class IdsConfig:
    count: Annotated[int, AT_LEAST_0] = 0
    placement: Literal["top-betweenness"] | list[int] = "top-betweenness"


@dataclass
class FilterRuleConfig:
    node: int = 0
    action: Literal["Drop", "Accept"] = "Drop"
    src: list[int] | None = None
    dst: list[int] | None = None
    klass: Literal["Data", "Immune"] | None = None


@dataclass
class ScenarioConfig:
    name: Annotated[str, FILE_STEM] = "scenario"  # the stem of the files `run` writes
    seed: int = 0
    horizon: Annotated[int, AT_LEAST_0] = 2000
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
    return get_type_hints(cls, include_extras=True)


def _build_value(hint, value, path: str):
    if get_origin(hint) is Annotated:  # the inner type, then its rule; a None passes
        inner, (test, message) = get_args(hint)
        value = _build_value(inner, value, path)
        if value is not None and not test(value):
            raise ValidationError(path, message)
        return value
    if type(value) is hint:  # a plain scalar of exactly the annotated type
        return value
    if is_dataclass(hint):
        return _build_section(hint, value, path)
    if get_origin(hint) is dict:  # the keys must fit; each value is built as a field
        key, item = get_args(hint)
        if not isinstance(value, dict) or not all(_fits(k, key) for k in value):
            raise ValidationError(path, f"expected {_name(hint)}")
        return {k: _build_value(item, v, f"{path}.{k}") for k, v in value.items()}
    item = get_args(hint)[0] if get_origin(hint) is list else None
    if is_dataclass(item):
        if not isinstance(value, list):
            raise ValidationError(path, "expected a list")
        return [_build_section(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    if not _fits(value, hint):
        raise ValidationError(path, f"expected {_name(hint)}")
    return value


def _fits(value, hint) -> bool:
    """Whether a JSON value fits an annotation. A bool is not a number, an
    int is a float, and None fits only where the annotation admits it."""
    args = get_args(hint)
    origin = get_origin(hint)
    if origin in (UnionType, Union):  # `int | Literal[...]` makes a typing.Union
        return any(_fits(value, arg) for arg in args)
    if origin is Literal:
        return value in args
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


def _name(hint) -> str:
    """An annotation as an error message names it: `list[int]`, `'poisson' or 'fixed'`."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        return _name(args[0])
    if origin in (Literal, Union, UnionType):
        return " or ".join(map(_name, args))
    if origin is not None:
        return f"{origin.__name__}[{', '.join(map(_name, args))}]"
    if hint is type(None):
        return "None"
    return repr(hint) if isinstance(hint, str) else hint.__name__  # a str is a Literal's value


def from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ValidationError("<root>", "scenario must be an object")
    config = _build_section(ScenarioConfig, data, "")
    validate(config)
    return config


def _check_nodes(path: str, nodes, node_ids: set) -> None:
    for i, node in enumerate(nodes):
        if node not in node_ids:
            raise ValidationError(f"{path}[{i}]", "not a node of the topology")


def validate(config: ScenarioConfig) -> None:
    """The rules that span fields or hold only under a condition. Each
    field's type, choices and bounds are checked as it is built."""
    topo = config.topology
    if topo.kind != "explicit" and topo.nodes < 2:
        raise ValidationError("topology.nodes", "need at least 2 nodes")
    node_ids = set(topo.node_ids())
    if topo.kind == "erdos_renyi" and not 0.0 < topo.edge_prob <= 1.0:
        raise ValidationError("topology.edge_prob", "must be in (0, 1]")
    if topo.kind == "explicit":
        try:
            build_network(node_ids, topo.links, config.transport.link_bandwidth)
        except TopologyError as exc:
            raise ValidationError("topology.links", str(exc)) from None
    infects = {}  # attack id -> whether the attack infects
    for i, attack in enumerate(config.attacks):
        if attack.attack_id in infects:
            raise ValidationError(f"attacks[{i}].attack_id", "duplicate id")
        infects[attack.attack_id] = attack.infects
        try:
            sig = attack.signature_bytes()
        except ValueError:
            raise ValidationError(f"attacks[{i}].signature", "invalid hex") from None
        if len(sig) < 4:
            raise ValidationError(f"attacks[{i}].signature", "need at least 4 bytes")
        if len(sig) > config.traffic.payload_len:
            raise ValidationError(f"attacks[{i}].signature", "longer than payload_len")
    for i, entry in enumerate(config.traffic.attack_mix):
        if set(entry) != {"attack_id", "rate"}:
            raise ValidationError(f"traffic.attack_mix[{i}]", "wants attack_id and rate")
        if not _fits(entry["attack_id"], int) or entry["attack_id"] not in infects:
            raise ValidationError(f"traffic.attack_mix[{i}].attack_id", "undeclared attack")
        if not _fits(entry["rate"], float):
            raise ValidationError(f"traffic.attack_mix[{i}].rate", "must be a number")
        if entry["rate"] < 0:
            raise ValidationError(f"traffic.attack_mix[{i}].rate", "must be >= 0")
    if config.worm.enabled:
        if not infects.get(config.worm.attack_id):
            raise ValidationError("worm.attack_id", "not a declared attack that infects")
        if config.worm.entry_step < 0:
            raise ValidationError("worm.entry_step", "must be >= 0")
        if config.worm.entry != "random" and config.worm.entry not in node_ids:
            raise ValidationError("worm.entry", "not a node of the topology")
    if isinstance(config.detectors.placement, list):
        if len(config.detectors.placement) < config.detectors.count:
            raise ValidationError("detectors.placement", "fewer nodes than count")
        _check_nodes("detectors.placement", config.detectors.placement, node_ids)
    st = config.stations
    if st.lymph + st.nurseries + 1 > len(node_ids):
        raise ValidationError("stations", "more stations (lymph, nurseries, admin) than nodes")
    if isinstance(st.placement, list):
        if len(st.placement) != st.lymph + st.nurseries + 1:
            raise ValidationError("stations.placement", "need one node per station plus admin")
        _check_nodes("stations.placement", st.placement, node_ids)
        if len(set(st.placement)) < len(st.placement):
            raise ValidationError("stations.placement", "repeats a node")
    if st.admin_node is not None and st.admin_node not in node_ids:
        raise ValidationError("stations.admin_node", "not a node of the topology")
    ids = config.static_ids
    if isinstance(ids.placement, list):
        if len(ids.placement) < ids.count:
            raise ValidationError("static_ids.placement", "fewer nodes than count")
        _check_nodes("static_ids.placement", ids.placement, node_ids)
        if len(set(ids.placement)) < len(ids.placement):
            raise ValidationError("static_ids.placement", "repeats a node")
    elif ids.count > len(node_ids):
        raise ValidationError("static_ids.count", "more IDS than nodes")
    for i, rule in enumerate(config.filters):
        if rule.node not in node_ids:
            raise ValidationError(f"filters[{i}].node", "not a node of the topology")


def loads(text: str) -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from None
    return from_dict(data)


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def baseline_scenario() -> ScenarioConfig:
    """The bundled calibration scenario."""
    return load_scenario(resources.files("immunet") / "scenarios/baseline.scenario")
