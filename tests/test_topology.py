import math
import random
import sys
import tracemalloc

import pytest

from immunet.topology import (Network, Routes, TopologyError, UnknownNode, betweenness,
                              build_network, compute_routing, diameter,
                              erdos_renyi, line_network, ring_network,
                              star_network, top_betweenness)


def bfs_reachable(adj, start):
    """Independent connectivity oracle."""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nbr in adj[node]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return seen


def bellman_ford(nodes, links, source):
    """Independent distance oracle: relax every edge |V|-1 times."""
    inf = float("inf")
    dist = {n: inf for n in nodes}
    dist[source] = 0
    edges = []
    for u, v, _bw in links:
        edges.append((u, v))
        edges.append((v, u))
    for _ in range(len(nodes) - 1):
        changed = False
        for u, v in edges:
            if dist[u] + 1 < dist[v]:
                dist[v] = dist[u] + 1
                changed = True
        if not changed:
            break
    return dist


def random_connected(rng, max_nodes=8):
    n = rng.randint(2, max_nodes)
    while True:
        links = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    links.append((i, j))
        try:
            return build_network(range(n), links)
        except TopologyError:
            continue


def erdos_renyi_reference(n, p, rng, bandwidth=1):
    """G(n, p) drawn pair by pair in a double loop, `u` then `v`, retried
    until connected; returns the links and the number of tries."""
    tries = 0
    while True:
        tries += 1
        links = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    links.append((u, v, bandwidth))
        try:
            return build_network(range(n), links).links, tries
        except TopologyError:
            continue


class TestBuild:

    def test_line_graph(self):
        net = build_network([0, 1, 2], [(0, 1), (1, 2)])
        assert len(net.nodes) == 3
        assert len(net.links) == 2
        assert net.neighbors(1) == (0, 2)

    def test_neighbours_ascend_whatever_the_link_order(self):
        """Each node's neighbours are listed in ascending id, and its
        bandwidth map holds them in that order, for links given descending,
        shuffled, or as 3-tuples with bandwidths."""
        rng = random.Random(17)
        ids = rng.sample(range(1000), 40)
        links = {tuple(sorted((ids[i], ids[rng.randrange(i)]))) for i in range(1, len(ids))}
        links |= {tuple(sorted(rng.sample(ids, 2))) for _ in range(60)}
        descending = sorted(((v, u) for u, v in links), reverse=True)
        shuffled = rng.sample(sorted(links), len(links))
        weighted = [(v, u, rng.randint(1, 5)) for u, v in shuffled]
        ascending = {n: tuple(sorted({v for link in links if n in link for v in link} - {n}))
                     for n in ids}
        for given in (descending, shuffled, weighted):
            net = build_network(ids, given)
            assert net.adjacency == ascending
            assert all(net.adjacency[n] == tuple(net.bandwidth[n]) for n in ids)

    def test_neighbors_of_an_unknown_node(self):
        net = build_network([0, 1, 2], [(0, 1), (1, 2)])
        with pytest.raises(UnknownNode) as err:
            net.neighbors(7)
        assert err.value.args == (7,)

    def test_isolated_node_rejected(self):
        with pytest.raises(TopologyError, match=r"^unreachable nodes: \[2\]$"):
            build_network([0, 1, 2], [(0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="^self-loop at node 0$"):
            build_network([0, 1], [(0, 0), (0, 1)])

    def test_duplicate_link_rejected(self):
        with pytest.raises(TopologyError, match=r"^duplicate link \(0,1\)$"):
            build_network([0, 1], [(0, 1), (1, 0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownNode):
            build_network([0, 1], [(0, 5)])

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(TopologyError):
            build_network([0, 1], [(0, 1, 0)])

    def test_single_node_rejected(self):
        with pytest.raises(TopologyError):
            build_network([0], [])

    def test_erdos_renyi_connected(self):
        """50-node G(n,p) retried until connected; BFS oracle confirms."""
        net = erdos_renyi(50, 0.08, random.Random(99))
        assert len(net.nodes) == 50
        assert bfs_reachable(net.adjacency, 0) == set(net.nodes)

    def test_erdos_renyi_draws_as_the_double_loop(self):
        """Same links, tries and draws consumed as the reference loop; 99 and 11 retry."""
        tries = []
        for n, p, seed in [(12, 0.2, 5), (30, 0.1, 1), (50, 0.08, 99), (60, 0.05, 11)]:
            ref_rng, rng = random.Random(seed), random.Random(seed)
            links, used = erdos_renyi_reference(n, p, ref_rng)
            assert erdos_renyi(n, p, rng).links == links
            assert rng.random() == ref_rng.random()
            tries.append(used)
        assert max(tries) > 1

    def test_generators(self):
        assert len(line_network(5).links) == 4
        assert len(ring_network(5).links) == 5
        assert len(star_network(5).links) == 4


class TestRouting:

    def test_line_next_hop(self):
        net = line_network(3)
        table = compute_routing(net)
        assert table[(0, 2)] == 1

    def test_cycle_tie_break(self):
        # 4-cycle: both 1 and 3 reach node 2 in two hops; smaller id wins
        net = ring_network(4)
        table = compute_routing(net)
        assert table[(0, 2)] == 1

    def test_disconnected_network_raises(self):
        """A `Network` assembled without `build_network` can be in pieces:
        the sweep refuses it rather than searching for ever."""
        adjacency = {0: (1,), 1: (0,), 2: (3,), 3: (2,)}
        net = Network(nodes=(0, 1, 2, 3), links=((0, 1, 1), (2, 3, 1)),
                      index={n: n for n in range(4)}, adjacency=adjacency,
                      bandwidth={u: dict.fromkeys(vs, 1) for u, vs in adjacency.items()})
        with pytest.raises(TopologyError, match="unreachable nodes from node 0"):
            compute_routing(net)

    def test_bellman_ford_oracle_200_graphs(self):
        """Following next-hops reaches the target in exactly the oracle distance."""
        rng = random.Random(4242)
        for _ in range(200):
            net = random_connected(rng)
            table = compute_routing(net)
            for s in net.nodes:
                oracle = bellman_ford(net.nodes, net.links, s)
                for d in net.nodes:
                    if s == d:
                        continue
                    hops = 0
                    here = s
                    while here != d:
                        here = table[(here, d)]
                        hops += 1
                        assert hops <= len(net.nodes)
                    assert hops == oracle[d]

    def test_next_hop_on_shortest_path(self):
        rng = random.Random(7)
        net = random_connected(rng, max_nodes=8)
        table = compute_routing(net)
        for (s, d), nh in table.items():
            oracle_s = bellman_ford(net.nodes, net.links, s)
            oracle_nh = bellman_ford(net.nodes, net.links, nh)
            assert oracle_nh[d] == oracle_s[d] - 1


def check_routes(routes, net):
    """The (src, dst) view of `routes` reads its rows at source positions,
    and holds no (d, d) pair; a row's entry at its own destination is it."""
    assert isinstance(routes, Routes)
    nodes = net.nodes
    n = len(nodes)
    assert len(routes) == n * (n - 1)
    pairs = list(routes)
    assert sorted(pairs) == sorted((s, d) for s in nodes for d in nodes if s != d)
    for s, d in pairs:
        assert routes[(s, d)] == routes.rows[d][net.index[s]]
    for d in nodes:
        assert len(routes.rows[d]) == n
        assert routes.rows[d][net.index[d]] == d
        assert (d, d) not in routes
        with pytest.raises(KeyError):
            routes[(d, d)]
    assert {**routes} == dict(routes.items())


class TestRoutes:

    def test_sparse_ids(self):
        net = build_network([3, 10, 42, 7], [[3, 10], [10, 42], [42, 7], [7, 3], [10, 7]])
        assert net.index == {3: 0, 7: 1, 10: 2, 42: 3}
        routes = compute_routing(net)
        check_routes(routes, net)
        assert routes[(3, 42)] == 7  # 7 and 10 are both one hop from 42; the smaller wins
        assert {s: routes[(s, 42)] for s in (3, 7, 10)} == {3: 7, 7: 42, 10: 42}
        assert routes.rows[42] == [7, 42, 42, 42]  # sources 3, 7, 10, then 42 itself
        assert routes.diameter == 2  # 3 to 42

    def test_networkx_graphs(self):
        """Each row entry is the smallest neighbour one hop nearer, and the
        diameter is the longest shortest path, both by networkx."""
        for nx, net, graph in networkx_graphs():
            routes = compute_routing(net)
            check_routes(routes, net)
            assert diameter(routes) == nx.diameter(graph)
            lengths = dict(nx.all_pairs_shortest_path_length(graph))
            for d, row in routes.rows.items():
                for s in net.nodes:
                    if s != d:
                        closer = [v for v in graph.neighbors(s)
                                  if lengths[v][d] == lengths[s][d] - 1]
                        assert row[net.index[s]] == min(closer), (s, d)

    def test_build_memory_is_what_it_keeps_and_a_bounded_transient(self):
        """At 1,000 nodes the build keeps about 1,000 exact-size lists of
        the network's own ids, and its peak stays within `PEAK_OVER_KEPT` of
        that. Rows of fresh ints keep 3.0 times as much and over-allocated
        lists 1.12 times; transposing every column into tuples before
        mapping them peaks at 4.2 times what is kept."""
        net = erdos_renyi(1000, 0.008, random.Random(38))
        n = len(net.nodes)
        lists = n * sys.getsizeof([None] * n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            routes = compute_routing(net)
            kept, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert all(len(row) == n and sys.getsizeof(row) == sys.getsizeof([None] * n)
                   for row in routes.rows.values())
        assert lists <= kept <= 1.05 * lists, kept / lists
        assert peak <= PEAK_OVER_KEPT * kept, peak / kept


# measured peak / kept of `compute_routing` at 1,000 nodes: 1.32 on Python
# 3.10-3.13, because the 2-byte columns, a quarter of the rows in size, live
# until the transpose ends
PEAK_OVER_KEPT = 1.6


class TestGraphStats:

    def test_diameter_line(self):
        assert diameter(compute_routing(line_network(6))) == 5

    def test_star_betweenness(self):
        net = star_network(6)
        cb = betweenness(net)
        assert cb[0] > max(cb[n] for n in net.nodes if n != 0)
        assert top_betweenness(net, 1) == [0]

    def test_top_betweenness_tie_break(self):
        net = ring_network(4)  # symmetric: all nodes tie, smaller ids first
        assert top_betweenness(net, 2) == [0, 1]

    def test_betweenness_equals_queue_and_predecessor_brandes_bit_for_bit(self):
        """`top_betweenness` breaks ties by id, so even a last-bit difference
        from the textbook form could move a static IDS: compare with `==`."""
        rng = random.Random(381)
        nets = [f(n) for f in (star_network, ring_network, line_network) for n in (3, 8, 21)]
        for n in range(2, 61):
            nets.append(erdos_renyi(n, min(1.0, (math.log(n) + 1) / n + 0.2 * rng.random()), rng))
        for net in nets:
            assert betweenness(net) == reference_brandes(net)


def reference_brandes(net):
    """Brandes betweenness with a popped queue, predecessor lists and a stack."""
    cb = {n: 0.0 for n in net.nodes}
    for s in net.nodes:
        stack = []
        pred = {n: [] for n in net.nodes}
        sigma = {n: 0.0 for n in net.nodes}
        sigma[s] = 1.0
        dist = {n: -1 for n in net.nodes}
        dist[s] = 0
        queue = [s]
        while queue:
            v = queue.pop(0)
            stack.append(v)
            for w in net.adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    pred[w].append(v)
        delta = {n: 0.0 for n in net.nodes}
        while stack:
            w = stack.pop()
            for v in pred[w]:
                delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
            if w != s:
                cb[w] += delta[w]
    return cb


def networkx_graphs(count=40, seed=9001):
    """Seeded random connected graphs, each paired with its networkx twin."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 30)
        net = erdos_renyi(n, min(1.0, 3.0 / n), rng)
        graph = nx.Graph()
        graph.add_nodes_from(net.nodes)
        graph.add_edges_from((u, v) for u, v, _bw in net.links)
        yield nx, net, graph


class TestNetworkxOracles:

    def test_betweenness_is_twice_networkx_unnormalized(self):
        # networkx counts each unordered pair once on undirected graphs;
        # Brandes over every source counts it from both ends
        for nx, net, graph in networkx_graphs():
            expected = nx.betweenness_centrality(graph, normalized=False)
            cb = betweenness(net)
            for n in net.nodes:
                assert cb[n] == pytest.approx(2 * expected[n], abs=1e-9)
