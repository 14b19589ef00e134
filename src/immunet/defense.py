"""Per-node security framework: component registry and check dispatch.

Every arriving packet is presented to the node's components in ascending
component id. Each `check` returns True to destroy the packet; the first
True short-circuits the rest. Packet filters look at headers only, by the
scenario's `FilterRuleConfig` records for their node; signature engines
(static or cell-borne) scan data payloads.
`DefenseStack.at` holds only the nodes with at least one component: the
only nodes whose arrivals need checking.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter

from .signatures import CompressedSignatureDb, contains_signature
from .topology import UnknownNode
from .transport import DATA, Packet

_component_id = attrgetter("component_id")

# Filters and static IDS are numbered from 0 and detector components from
# here, so `scenario.validate` refuses more static components than this.
DETECTOR_IDS_FROM = 10_000


class PacketFilter:
    kind = "PacketFilter"
    cell_id = None

    def __init__(self, component_id: int, rules):
        self.component_id = component_id
        self.rules = tuple(rules)  # the node's `FilterRuleConfig` records, in order

    def check(self, pkt: Packet) -> bool:
        """First-match-wins over header fields, where a rule's None matches
        any: True when the first rule that matches drops; False when no rule
        matches (default Accept)."""
        for rule in self.rules:
            if ((rule.src is None or pkt.src in rule.src)
                    and (rule.dst is None or pkt.dst in rule.dst)
                    and (rule.klass is None or pkt.klass == rule.klass)):
                return rule.action == "Drop"
        return False


class StaticIDS:
    """Non-mobile exact-substring matcher over the full signature set."""

    kind = "StaticIDS"
    cell_id = None

    def __init__(self, component_id: int, signatures):
        self.component_id = component_id
        self.signatures = tuple(bytes(s) for s in signatures)

    def check(self, pkt: Packet) -> bool:
        """True for a data payload holding a signature; certified immune
        traffic is not payload-scanned."""
        return pkt.klass == DATA and contains_signature(self.signatures, pkt.payload)


class DetectorComponent:
    """A detector cell's presence in the node's component list."""

    kind = "Cell"

    def __init__(self, cell):
        # ids from DETECTOR_IDS_FROM stay clear of the static components (filter
        # nodes plus IDS): `scenario.validate` allows at most that many of them
        self.component_id = DETECTOR_IDS_FROM + cell.cell_id
        self.cell = cell

    @property
    def cell_id(self) -> int:
        return self.cell.cell_id

    def check(self, pkt: Packet) -> bool:
        """True when the cell's store reports the data payload: a member
        occurs in it, or it draws a false positive at the declared rate."""
        db: CompressedSignatureDb | None = self.cell.db
        if db is None or pkt.klass != DATA or not pkt.payload:
            return False
        # cells holding one signature set hold one immutable store, and its
        # verdict is a function of the payload, so a packet keeps the last store's
        # verdict: one scan across hops and cells, and another only for another store
        scan = pkt.scan
        if scan is not None and scan[0] is db:
            return scan[1]
        verdict = db.scan(pkt.payload)
        pkt.scan = (db, verdict)
        return verdict


class DefenseStack:
    def __init__(self, network):
        self._index = network.index  # the nodes that may hold components
        # the components of each node holding any, kept in ascending component
        # id; callers may read it but change it only through register/deregister
        self.at: dict[int, list] = {}
        self._home: dict[int, int] = {}  # component id -> node

    def register(self, node: int, component) -> None:
        if node not in self._index:
            raise UnknownNode(node)
        cid = component.component_id
        if cid in self._home:
            raise ValueError(f"component {cid} already at node {self._home[cid]}")
        insort(self.at.setdefault(node, []), component, key=_component_id)
        self._home[cid] = node

    def deregister(self, node: int, component_id: int) -> None:
        if self._home.get(component_id) != node:
            raise KeyError(component_id)
        at = self.at[node]
        del at[bisect_left(at, component_id, key=_component_id)]
        del self._home[component_id]
        if not at:
            del self.at[node]

    def check_all(self, node: int, pkt: Packet):
        """Consult every component in id order; the first whose check
        returns True destroys the packet and is returned. None means the
        packet passed every check."""
        for component in self.at.get(node, ()):
            if component.check(pkt):
                return component
        return None
