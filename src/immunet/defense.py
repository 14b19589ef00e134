"""Per-node security framework: component registry and check dispatch.

Every arriving packet is presented to the node's components in ascending
component id; the first malicious verdict destroys the packet and
short-circuits the rest. Packet filters look at headers only; signature
engines (static or cell-borne) scan data payloads.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import attrgetter

from .signatures import CompressedSignatureDb, contains_signature
from .topology import UnknownNode
from .transport import DATA, Packet

MALICIOUS = "Malicious"
CLEAN = "Clean"

_component_id = attrgetter("component_id")


class DuplicateRegistration(ValueError):
    pass


class UnknownComponent(KeyError):
    pass


@dataclass(frozen=True)
class FilterRule:
    action: str  # "Drop" | "Accept"
    src: frozenset[int] | None = None  # None matches any
    dst: frozenset[int] | None = None
    klass: str | None = None

    def matches(self, pkt: Packet) -> bool:
        if self.src is not None and pkt.src not in self.src:
            return False
        if self.dst is not None and pkt.dst not in self.dst:
            return False
        if self.klass is not None and pkt.klass != self.klass:
            return False
        return True


def filter_check(rules, pkt: Packet) -> str:
    """First-match-wins over header fields; default Accept."""
    for rule in rules:
        if rule.matches(pkt):
            return rule.action
    return "Accept"


class PacketFilter:
    kind = "PacketFilter"
    cell_id = None

    def __init__(self, component_id: int, rules):
        self.component_id = component_id
        self.rules = tuple(rules)

    def check(self, pkt: Packet) -> str:
        return MALICIOUS if filter_check(self.rules, pkt) == "Drop" else CLEAN


class StaticIDS:
    """Non-mobile exact-substring matcher over the full signature set."""

    kind = "StaticIDS"
    cell_id = None

    def __init__(self, component_id: int, signatures):
        self.component_id = component_id
        self.signatures = tuple(bytes(s) for s in signatures)

    def check(self, pkt: Packet) -> str:
        if pkt.klass != DATA:
            return CLEAN  # certified immune traffic is not payload-scanned
        return MALICIOUS if contains_signature(self.signatures, pkt.payload) else CLEAN


class DetectorComponent:
    """A detector cell's presence in the node's component list."""

    kind = "Cell"

    def __init__(self, component_id: int, cell):
        self.component_id = component_id
        self.cell = cell

    @property
    def cell_id(self) -> int:
        return self.cell.cell_id

    def check(self, pkt: Packet) -> str:
        db: CompressedSignatureDb | None = self.cell.db
        if db is None or pkt.klass != DATA or not pkt.payload:
            return CLEAN
        fp = db.fingerprint()
        # identical stores share one scan per packet across hops and cells
        cache = pkt.scan_cache
        if cache is None:
            cache = pkt.scan_cache = {}
        verdict = cache.get(fp)
        if verdict is None:
            verdict = db.scan(pkt.payload)
            cache[fp] = verdict
        return MALICIOUS if verdict else CLEAN


class DefenseStack:
    def __init__(self, network):
        # each node's components, kept in ascending component id; callers
        # may read a node's list but change it only through register/deregister
        self.at: dict[int, list] = {n: [] for n in network.nodes}
        self._home: dict[int, int] = {}  # component id -> node

    def _components(self, node: int) -> list:
        at = self.at.get(node)
        if at is None:
            raise UnknownNode(node)
        return at

    def register(self, node: int, component) -> None:
        at = self._components(node)
        cid = component.component_id
        if cid in self._home:
            raise DuplicateRegistration(f"component {cid} already at node {self._home[cid]}")
        insort(at, component, key=_component_id)
        self._home[cid] = node

    def deregister(self, node: int, component_id: int) -> None:
        at = self._components(node)
        if self._home.get(component_id) != node:
            raise UnknownComponent(component_id)
        del at[bisect_left(at, component_id, key=_component_id)]
        del self._home[component_id]

    def check_all(self, node: int, pkt: Packet):
        """Consult every component in id order; the first to return a
        malicious verdict destroys the packet and is returned. None means
        the packet passed every check."""
        for component in self._components(node):
            if component.check(pkt) == MALICIOUS:
                return component
        return None
