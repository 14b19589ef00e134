"""Network topology: validated undirected graphs and precomputed next-hop routing.

Each node has a dense position, its index in the sorted `Network.nodes`;
`Network.index` maps a node id to it, so explicit topologies keep their
sparse ids. Links are unit cost (hop count). Routing is one breadth-first
sweep that runs every node's search at once, each node's reached set an
integer bitset over positions, so a level costs one big-integer OR per
link end. It is stored as one list per destination,
`rows[dst][network.index[src]]` -> next hop id, the smallest neighbour of
`src` one hop nearer `dst`: the tie-break that keeps every run
reproducible. The sweep's last level is the diameter. No all-pairs
hop-count table is built;
`bfs_distances` gives one source's hop counts. `Routes` also reads the
rows as a `(src, dst)` mapping.

`TopologyError` is the one error for a topology that cannot be built: too
few nodes, a malformed link, a self-loop, a duplicate link, a bandwidth
below 1, or a graph that is not connected. `UnknownNode` names an id that
is not a node of the network.
"""

from __future__ import annotations

import sys
from codecs import utf_16_be_encode
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import itemgetter
from random import Random


# `to_bytes` in the host's byte order makes each lane a native integer for
# `memoryview.cast`; a big-endian host then lists the lanes last position first
_LANE_STEP = 1 if sys.byteorder == "little" else -1


ER_TRIES = 1000  # `erdos_renyi` gives up after this many disconnected samples


class TopologyError(ValueError):
    pass


class UnknownNode(KeyError):
    pass


@dataclass(frozen=True)
class Network:
    """Undirected connected graph with per-link bandwidth (packets per step)."""

    nodes: tuple[int, ...]  # ascending id; a node's position is its index here
    links: tuple[tuple[int, int, int], ...]  # (u, v, bandwidth), u < v
    index: dict[int, int] = field(hash=False, compare=False)  # node -> position
    adjacency: dict[int, tuple[int, ...]] = field(hash=False, compare=False)
    # node -> {neighbour: bandwidth}, each link listed from both ends
    bandwidth: dict[int, dict[int, int]] = field(hash=False, compare=False)

    def neighbors(self, node: int) -> tuple[int, ...]:
        try:
            return self.adjacency[node]
        except KeyError:
            raise UnknownNode(node) from None


def build_network(nodes, links, bandwidth: int = 1) -> Network:
    """Validate nodes/links and assemble a Network.

    links: iterable of (u, v) or (u, v, bandwidth); bandwidth defaults to
    `bandwidth`. Rejects links of any other length, self-loops, duplicate
    links, unknown endpoints, bandwidth < 1, and disconnected graphs.
    """
    node_list = sorted(set(int(n) for n in nodes))
    if len(node_list) < 2:
        raise TopologyError("need at least 2 nodes")
    node_set = set(node_list)

    seen: set[tuple[int, int]] = set()
    canon: list[tuple[int, int, int]] = []
    for link in links:
        if len(link) not in (2, 3):
            raise TopologyError(f"link {list(link)} is not [u, v] or [u, v, bandwidth]")
        u, v, bw = link if len(link) == 3 else (*link, bandwidth)
        u, v, bw = int(u), int(v), int(bw)
        if u == v:
            raise TopologyError(f"self-loop at node {u}")
        if u not in node_set or v not in node_set:
            raise UnknownNode(u if u not in node_set else v)
        if bw < 1:
            raise TopologyError(f"bandwidth must be >= 1 on link ({u},{v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise TopologyError(f"duplicate link ({key[0]},{key[1]})")
        seen.add(key)
        canon.append((key[0], key[1], bw))
    canon.sort()

    bw_map: dict[int, dict[int, int]] = {n: {} for n in node_list}
    for u, v, bw in canon:
        bw_map[u][v] = bw
        bw_map[v][u] = bw

    net = Network(
        nodes=tuple(node_list),
        links=tuple(canon),
        index={n: i for i, n in enumerate(node_list)},
        adjacency={n: tuple(bw_map[n]) for n in node_list},  # `canon` is sorted
        bandwidth=bw_map,
    )
    unreachable = node_set - set(bfs_distances(net, node_list[0]))
    if unreachable:
        raise TopologyError(f"unreachable nodes: {sorted(unreachable)}")
    return net


def erdos_renyi(n: int, p: float, rng: Random, bandwidth: int = 1) -> Network:
    """Sample G(n, p) repeatedly until connected, at most `ER_TRIES` times.

    Each try draws one `rng.random()` per pair, `u` ascending then `v`.
    """
    draw = rng.random
    for _ in range(ER_TRIES):
        links = [(u, v, bandwidth) for u in range(n) for v in range(u + 1, n) if draw() < p]
        try:
            return build_network(range(n), links)
        except TopologyError:
            continue
    raise TopologyError(f"no connected G({n},{p}) sample in {ER_TRIES} tries")


def line_network(n: int, bandwidth: int = 1) -> Network:
    return build_network(range(n), [(i, i + 1, bandwidth) for i in range(n - 1)])


def ring_network(n: int, bandwidth: int = 1) -> Network:
    links = [(i, (i + 1) % n, bandwidth) for i in range(n)]
    return build_network(range(n), links)


def star_network(n: int, bandwidth: int = 1) -> Network:
    return build_network(range(n), [(0, i, bandwidth) for i in range(1, n)])


def bfs_distances(net: Network, source: int) -> dict[int, int]:
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in net.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


class Routes(Mapping):
    """Read-only next-hop table stored per destination: `rows[dst]` is a
    list indexed by source position, `rows[dst][index[src]]` -> next hop id.

    A row's entry at `dst`'s own position is `dst`; `diameter` is the
    largest hop count between two nodes. As a mapping it reads
    `routes[(src, dst)]`, over each ordered pair of distinct nodes.
    """

    __slots__ = ("rows", "diameter", "index")

    def __init__(self, rows: dict[int, list[int]], diameter: int, index: dict[int, int]):
        self.rows = rows
        self.diameter = diameter
        self.index = index

    def __getitem__(self, key: tuple[int, int]) -> int:
        src, dst = key
        if src == dst:
            raise KeyError(key)
        return self.rows[dst][self.index[src]]

    def __len__(self) -> int:
        n = len(self.index)
        return n * (n - 1)

    def __iter__(self):
        for dst in self.rows:
            for src in self.index:
                if src != dst:
                    yield src, dst

    def within(self, src: int, dst: int, radius: int) -> bool:
        """Whether `src` is at most `radius` hops from `dst`. A next hop lies
        on a shortest path, so walking at most `radius` of them reaches `dst`
        exactly when the distance is that small."""
        row, index = self.rows[dst], self.index
        for _ in range(radius):
            if src == dst:
                return True
            src = row[index[src]]
        return src == dst


def compute_routing(net: Network) -> Routes:
    """Next hop from every node to every other, from one breadth-first sweep
    that runs every source's search at once over node positions.

    `reach[u]` is an integer bitset of the positions within `level` hops of
    `u`. At each level `u` gains `new`, the OR of its neighbours' sets from
    the level before less its own: exactly the positions `level` hops away.
    Each of those is one hop nearer to some neighbour of `u`, the ones whose
    set from the level before holds it. The neighbours are walked in
    ascending position, which is ascending id, and each takes what it holds
    of what is still unassigned, so every destination goes to the smallest
    neighbour one hop nearer it: the tie-break that keeps every run
    reproducible. The sweep ends when every set is full, so its last level
    is the largest hop count between two nodes, the diameter.

    Each source's shares then become its column of next-hop positions by a
    spread in C: a share written as `n` binary digits and encoded as UTF-16
    gives one 2-byte lane per position holding `0x30` or `0x31` (a lane
    holds positions up to 65,535, and `validate` admits 10,000 nodes at
    most). Summing each share's lanes times its neighbour's position, less
    `0x30` times their total, leaves each lane holding its next hop, and
    the column is read back as native integers. The columns are transposed
    into one exact-size list per destination of the network's own ids, so
    no entry is a new int.
    """
    nodes, index = net.nodes, net.index
    n = len(nodes)
    adjacency = [tuple(index[v] for v in net.adjacency[u]) for u in nodes]
    reach = [1 << u for u in range(n)]
    everyone = (1 << n) - 1
    # shares[u][k]: the positions whose next hop from `u` is adjacency[u][k]
    shares = [[0] * len(adj) for adj in adjacency]
    searching = range(n)
    level = 0
    while searching:
        level += 1
        grown = reach[:]
        unfinished = []
        for u in searching:
            adj = adjacency[u]
            new = 0
            for v in adj:
                new |= reach[v]
            new &= ~reach[u]
            if not new:  # a disconnected graph, assembled without `build_network`
                raise TopologyError(f"unreachable nodes from node {nodes[u]}")
            grown[u] |= new
            share = shares[u]
            for k, v in enumerate(adj):
                taken = new & reach[v]
                if taken:
                    share[k] |= taken
                    new ^= taken
                    if not new:
                        break
            if grown[u] != everyone:
                unfinished.append(u)
        reach = grown
        searching = unfinished
    del reach

    digits = f"0{n}b"
    # the codec function itself: the first `str.encode("utf-16-be")` in a
    # process imports `encodings.utf_16_be`, 0.2 ms on a 2-core host, 40% of
    # a 50-node build
    zeros = int.from_bytes(utf_16_be_encode("0" * n)[0], "big")
    cols = []
    for u in range(n):
        adj = adjacency[u]
        column = u << (16 * u)  # `u`'s own lane holds `u`
        total = 0
        for k, taken in enumerate(shares[u]):
            if taken:
                v = adj[k]
                column += int.from_bytes(utf_16_be_encode(format(taken, digits))[0], "big") * v
                total += v
        shares[u] = None  # at 5,000 nodes the shares hold 28 MB until spread
        column -= zeros * total
        cols.append(memoryview(column.to_bytes(2 * n, sys.byteorder)).cast("H")[::_LANE_STEP])
    rows = {nodes[d]: list(itemgetter(*hops)(nodes)) for d, hops in enumerate(zip(*cols))}
    return Routes(rows, level, index)


def diameter(routes: Routes) -> int:
    """Largest hop count between two nodes: the sweep's last level."""
    return routes.diameter


def betweenness(net: Network) -> dict[int, float]:
    """Brandes betweenness centrality on the unweighted graph. One list of
    the reached nodes in breadth-first order is the queue on the way out
    and the stack on the way back; `w`'s predecessors are its neighbours
    one hop nearer the source."""
    adjacency = net.adjacency
    cb = {n: 0.0 for n in net.nodes}
    for s in net.nodes:
        order = [s]
        dist = {s: 0}
        sigma = {s: 1.0}
        for v in order:  # `order` grows as the search reaches new nodes
            dw = dist[v] + 1
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = dw
                    sigma[w] = 0.0
                    order.append(w)
                if dist[w] == dw:
                    sigma[w] += sigma[v]
        delta = dict.fromkeys(order, 0.0)
        for w in reversed(order):
            dv = dist[w] - 1
            for v in adjacency[w]:
                if dist[v] == dv:
                    delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
            if w != s:
                cb[w] += delta[w]
    return cb


def top_betweenness(net: Network, count: int) -> list[int]:
    """Highest-betweenness nodes, ties broken by smaller id."""
    cb = betweenness(net)
    ranked = sorted(net.nodes, key=lambda n: (-cb[n], n))
    return ranked[:count]
