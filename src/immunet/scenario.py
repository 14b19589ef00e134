"""Scenario configuration: a run is a pure function of (config, seed).

Scenarios are JSON documents validated strictly: unknown keys are
rejected so typos cannot silently change an experiment. Each field's
annotation is the one statement of its own rules: its type, its choices
(`Literal`) and its bounds (`Annotated[T, rule, ...]`), checked as the
field is built. A field with no default must be given, and its absence is
reported as `missing`. `validate()` holds only the rules that span fields
or hold under a condition. Every knob of every subsystem lives here, and
the run reads these records as they are built.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from importlib import resources
from types import UnionType
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

from .defense import DETECTOR_IDS_FROM
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
# a rate is packets per step, each built in Python: far above this one step
# cannot finish (a Poisson draw splits the rate until it recurses too deep,
# and a "fixed" draw loops `rate` times)
AT_MOST_1E6 = (lambda v: v <= 10**6, "must be <= 1000000 packets per step")
# a run's routing holds a next hop per (node, destination), n**2 entries, and
# `validate` lists every node id first; transit has 500 nodes. Transit with
# `nodes` n and `edge_prob` 8/n, seed 1, built in a fresh process (Python
# 3.11, 2-core host): `compute_routing` takes 0.41 s at 2,000 nodes and
# 2.6-2.8 s at 5,000, and the process peaks at 69 MB and 296-297 MB RSS
AT_MOST_1E4_NODES = (lambda v: v <= 10**4, "must be <= 10000 nodes")
# a run builds each cell with its own seeded stream; outbreak has 80 ants
AT_MOST_1E4_CELLS = (lambda v: v <= 10**4, "must be <= 10000 cells")
# every packet's payload is built at this length: the largest IPv4 datagram
AT_MOST_65535 = (lambda v: v <= 65535, "must be <= 65535 bytes")
FILE_STEM = (lambda v: v != "" and not any(c in v for c in "/\\\0"),
             "must be non-empty, without '/', '\\' or NUL")

CellKind = Literal["Detector", "Ant", "Monitor"]
CellCount = Annotated[int, AT_LEAST_0, AT_MOST_1E4_CELLS]
CellCounts = dict[CellKind, CellCount]
Rate = Annotated[float, AT_LEAST_0, AT_MOST_1E6]


@dataclass
class TopologySpec:
    kind: Literal["erdos_renyi", "line", "ring", "star", "explicit"] = "erdos_renyi"
    nodes: Annotated[int, AT_MOST_1E4_NODES] = 50  # generated kinds only
    edge_prob: float = 0.08
    # explicit: [u, v] or [u, v, bw]; the link endpoints are the nodes
    links: list[list[int]] = field(default_factory=list)

    def node_ids(self) -> list[int]:
        """The ids of the network's nodes: 0..nodes-1, or for an explicit
        topology its link endpoints."""
        if self.kind != "explicit":
            return list(range(self.nodes))
        return sorted({n for link in self.links for n in link[:2]})


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
class AttackMixConfig:
    attack_id: int
    rate: Rate


@dataclass
class TrafficConfig:
    background_rate: Rate = 20.0
    distribution: Literal["poisson", "fixed"] = "poisson"
    payload_len: Annotated[int, AT_LEAST_1, AT_MOST_65535] = 64
    attack_mix: list[AttackMixConfig] = field(default_factory=list)


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
    count: CellCount = 30
    p_move: Annotated[float, CLOSED_UNIT] = 0.5
    # per-scan probability that a payload holding no signature of the
    # detector's store is reported (`CompressedSignatureDb.scan`)
    target_fpr: Annotated[float, OPEN_UNIT] = 0.01
    initial_signatures: Literal["all", "none"] = "all"
    placement: Literal["random"] | list[int] = "random"


@dataclass
class AntConfig:
    count: CellCount = 20
    # the last `memory` nodes an ant arrived at, the one it stands on
    # included; only neighbours are discounted, so 0 and 1 discount none
    memory: Annotated[int, AT_LEAST_0] = 4
    epsilon: Annotated[float, POSITIVE] = 0.01


@dataclass
class MonitorConfig:
    count: CellCount = 2
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
    # the admin's node: None takes the placement's last node, random or
    # listed; a node id overrides even a listed one
    admin_node: int | None = None
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
    seed: int = 0  # the seed of `immunet run` when it is given no --seed
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
    field's annotation, and each field with no default must be given; a
    section, or a list of sections, is built in turn."""
    if not isinstance(data, dict):
        raise ValidationError(path, "expected an object")
    hints = _field_types(cls)
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in hints:
            raise ValidationError(where, "unknown key")
        kwargs[key] = _build_value(hints[key], value, where)
    for name in _required(cls):
        if name not in kwargs:
            raise ValidationError(f"{path}.{name}" if path else name, "missing")
    return cls(**kwargs)


@functools.cache
def _field_types(cls) -> dict:
    return get_type_hints(cls, include_extras=True)


@functools.cache
def _required(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls)
                 if f.default is MISSING and f.default_factory is MISSING)


def _build_value(hint, value, path: str):
    if get_origin(hint) is Annotated:  # the inner type, then its rules; a None passes
        inner, *rules = get_args(hint)
        value = _build_value(inner, value, path)
        for test, message in rules:
            if value is not None and not test(value):
                raise ValidationError(path, message)
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
    int fits an int only when it fits a C `ssize_t` (`sys.maxsize`), an int
    or a float fits a float only when it is finite as a float, and None fits
    only where the annotation admits it."""
    if hint is float:
        try:  # an int too large for a float overflows
            return type(value) in (int, float) and math.isfinite(value)
        except OverflowError:
            return False
    args = get_args(hint)
    origin = get_origin(hint)
    if origin in (UnionType, Union):  # `int | Literal[...]` makes a typing.Union
        return any(_fits(value, arg) for arg in args)
    if origin is Literal:
        return value in args
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.maxsize
    return isinstance(value, hint)


def _name(hint) -> str:
    """An annotation as an error message names it: `list[str]`, `'poisson' or 'fixed'`."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        return _name(args[0])
    if origin in (Literal, Union, UnionType):
        return " or ".join(map(_name, args))
    if origin is not None:
        return f"{origin.__name__}[{', '.join(map(_name, args))}]"
    if hint is type(None):
        return "None"
    if hint is float:  # `_fits` takes an int or a float that is finite as a float
        return "a finite number"
    if hint is int:  # `_fits` takes an int no larger than a C `ssize_t`
        return f"an int no larger than {sys.maxsize} in size"
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
        test, message = AT_MOST_1E4_NODES  # the bound `nodes` states, on the link endpoints
        if not test(len(node_ids)):
            raise ValidationError("topology.links", message)
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
        if entry.attack_id not in infects:
            raise ValidationError(f"traffic.attack_mix[{i}].attack_id", "undeclared attack")
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
        _check_nodes(f"filters[{i}].src", rule.src or (), node_ids)
        _check_nodes(f"filters[{i}].dst", rule.dst or (), node_ids)
    if len({rule.node for rule in config.filters}) + ids.count > DETECTOR_IDS_FROM:
        raise ValidationError("static_ids.count", f"filter nodes plus static IDS exceed "
                              f"{DETECTOR_IDS_FROM}, where detector component ids start")


def parse_json(text: str):
    """`json.loads(text)`, with every way it rejects a text as a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer longer than int() converts from text
        raise ParseError(str(exc).partition(":")[0]) from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply") from None


def loads(text: str) -> ScenarioConfig:
    return from_dict(parse_json(text))


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def baseline_scenario() -> ScenarioConfig:
    """The bundled calibration scenario."""
    return load_scenario(resources.files("immunet") / "scenarios/baseline.scenario")
