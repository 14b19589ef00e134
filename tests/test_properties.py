"""Property tests over small random explicit topologies with sparse node ids."""

import random
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
from hypothesis import Phase, given, settings, strategies as st

from immunet.engine import World
from immunet.events import field
from immunet.scenario import TopologySpec, TrafficConfig, WormConfig
from immunet.stations import nearest_station, next_station
from immunet.topology import (build_network, compute_routing, diameter, erdos_renyi,
                              line_network, ring_network, star_network)

from conftest import hop_counts, quiet_config, to_line, worm_config
from test_cells import replacement_fold
from test_transport_oracle import Run, first_disagreement

STEPS = 40
# the strict properties report a failing example as drawn: each example runs
# two worlds and the transport oracle, and shrinking re-runs them for minutes
UNSHRUNK = [phase for phase in Phase if phase is not Phase.shrink]


@st.composite
def sparse_topologies(draw, min_nodes=2):
    """Connected graphs on `min_nodes`-8 distinct ids below 200: a random
    spanning tree over the ids in drawn order, plus any extra links."""
    ids = draw(st.lists(st.integers(0, 199), min_size=min_nodes, max_size=8, unique=True))
    links = {tuple(sorted((ids[i], ids[draw(st.integers(0, i - 1))])))
             for i in range(1, len(ids))}
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(ids)))
    links |= {tuple(sorted(pair)) for pair in extra}
    return ids, sorted(links)


def config_for(ids, links):
    cfg = quiet_config(nodes=len(ids), links=[list(link) for link in links],
                       capacity=4, bandwidth=1, horizon=STEPS)
    cfg.traffic = TrafficConfig(background_rate=3.0, distribution="poisson", payload_len=16)
    cfg.stations.placement = [ids[0]]
    return cfg


def saved_bytes(log) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.log"
        log.save(path)
        return path.read_bytes()


@settings(max_examples=40, deadline=None, phases=UNSHRUNK)
@given(topology=sparse_topologies(), seed=st.integers(0, 2**16))
def test_strict_run_is_conserved_repeatable_and_shortest_path(topology, seed):
    ids, links = topology
    cfg = config_for(ids, links)
    # World.run ends with the conservation audit, which raises on a lifecycle
    # violation or when the packets left in flight are not the ones queued;
    # the transport oracle then re-simulates every packet line of the log
    world = World(cfg, seed, strict_checks=True)
    assert first_disagreement(Run(world, cfg.horizon)) is None
    second = World(cfg, seed, strict_checks=True).run()
    assert saved_bytes(world.log) == saved_bytes(second.log)

    graph = nx.Graph(links)
    source = {field(ev, "pid"): field(ev, "src") for ev in world.log.events if ev[1] == "Inject"}
    delivered = [ev for ev in world.log.events if ev[1] == "Deliver"]
    assert delivered
    for ev in delivered:
        want = nx.shortest_path_length(graph, source[field(ev, "pid")], field(ev, "node"))
        assert field(ev, "hops") == want


def worm_config_for(ids, links):
    """`worm_config`'s worm, detectors, ants, monitor and 2 + 2 stations on a
    sparse-id topology, the five stations on the first five ids."""
    cfg = worm_config(horizon=STEPS + 20)
    cfg.topology = TopologySpec(kind="explicit", nodes=len(ids),
                                links=[list(link) for link in links])
    cfg.worm = WormConfig(enabled=True, attack_id=1, entry_step=3, entry="random")
    cfg.detectors.count, cfg.ants.count = 3, 3
    cfg.stations.placement = list(ids[:5])
    cfg.stations.release_period = 20
    return cfg


@settings(max_examples=25, deadline=None, phases=UNSHRUNK)
@given(topology=sparse_topologies(min_nodes=5), seed=st.integers(0, 2**16))
def test_strict_defended_run_is_conserved_repeatable_and_cures_only_the_infected(topology, seed):
    cfg = worm_config_for(*topology)
    # World.run ends with the conservation audit, which raises on a lifecycle
    # violation or when the packets left in flight are not the ones queued;
    # the transport oracle then re-simulates every packet line of the log
    world = World(cfg, seed, strict_checks=True)
    assert first_disagreement(Run(world, cfg.horizon)) is None
    second = World(cfg, seed, strict_checks=True).run()
    assert saved_bytes(world.log) == saved_bytes(second.log)
    # every replacement names the oldest live cell of its kind
    assert all(logged == folded for logged, folded in replacement_fold(world.log.events))

    infected = set()
    for ev in world.log.events:
        node = field(ev, "node")
        if ev[1] == "Infect" and field(ev, "ok") == 1:
            infected.add(node)
        elif ev[1] == "Disinfect":
            assert (node in infected) == (field(ev, "ok") == 1), to_line(ev)
            infected.discard(node)
    assert any(ev[1] == "Infect" for ev in world.log.events)
    # the live infection record is the log's fold, and only vulnerable nodes fall
    assert infected == set(world.infected) and infected <= world.vulnerable


def reference_rows(net):
    """The two-pass rule: all-pairs hop counts first, then each node's next
    hop toward `d` is its smallest neighbour one hop nearer `d`."""
    dist = hop_counts(net)
    return {d: {s: min(v for v in net.adjacency[s] if dist[v][d] == dist[s][d] - 1)
                for s in net.nodes if s != d}
            for d in net.nodes}


def seeded_networks():
    """Lines, rings, stars and seeded connected G(n, p) samples."""
    rng = random.Random(2408)
    nets = [line_network(n) for n in (2, 3, 8)]
    nets += [ring_network(n) for n in (3, 4, 9)]
    nets += [star_network(n) for n in (2, 7)]
    for _ in range(20):
        n = rng.randint(4, 24)
        nets.append(erdos_renyi(n, min(1.0, 2.5 / n), rng))
    return nets


def check_routing(net):
    """The next hop of every (src, dst) pair equals the two-pass reference,
    read from the positional row and from the mapping view; the diameter
    equals networkx's, and the next-hop walk of every radius agrees with
    the all-pairs hop counts."""
    routes = compute_routing(net)
    reference = reference_rows(net)
    assert list(net.index.items()) == list(zip(net.nodes, range(len(net.nodes))))
    assert set(routes.rows) == set(reference)
    for d, row in routes.rows.items():
        assert row == [d if s == d else reference[d][s] for s in net.nodes], d
    assert {d: {s: routes[(s, d)] for s in net.nodes if s != d} for d in net.nodes} == reference
    graph = nx.Graph((u, v) for u, v, _bw in net.links)
    assert diameter(routes) == nx.diameter(graph)
    dist = hop_counts(net)
    for a in net.nodes:
        for b in net.nodes:
            for radius in range(diameter(routes) + 1):
                assert routes.within(a, b, radius) == (dist[a][b] <= radius), (a, b, radius)


@settings(max_examples=60, deadline=None)
@given(topology=sparse_topologies())
def test_routing_matches_two_pass_reference_on_sparse_ids(topology):
    check_routing(build_network(*topology))


def test_routing_matches_two_pass_reference_on_seeded_graphs():
    for net in seeded_networks():
        check_routing(net)


def larger_networks():
    """G(n, p) at 255, 256 and 257 nodes, a star whose hub has degree 299, a
    line of 299 levels, and 300 sparse ids above 65,535."""
    rng = random.Random(38)
    nets = [erdos_renyi(n, 0.03, rng) for n in (255, 256, 257)]
    nets += [star_network(300), line_network(300)]
    ids = rng.sample(range(65536, 10**6), 300)
    links = {tuple(sorted((ids[i], ids[rng.randrange(i)]))) for i in range(1, len(ids))}
    links |= {tuple(sorted(rng.sample(ids, 2))) for _ in range(150)}
    nets.append(build_network(ids, sorted(links)))
    return nets


def test_routing_matches_two_pass_reference_on_larger_graphs():
    """Each row is an exact-length list of the network's own id objects,
    equal to the two-pass reference; the diameter is networkx's."""
    for net in larger_networks():
        n = len(net.nodes)
        routes = compute_routing(net)
        reference = reference_rows(net)
        assert list(routes.rows) == list(net.nodes)
        for d, row in routes.rows.items():
            assert type(row) is list and len(row) == n, (n, d)
            assert row == [d if s == d else reference[d][s] for s in net.nodes], (n, d)
            assert all(hop is net.nodes[net.index[hop]] for hop in row), (n, d)
        graph = nx.Graph((u, v) for u, v, _bw in net.links)
        assert routes.diameter == nx.diameter(graph), n


@settings(max_examples=30, deadline=None)
@given(topology=sparse_topologies(min_nodes=5), seed=st.integers(0, 2**16))
def test_station_rows_give_the_all_pairs_nearest_station(topology, seed):
    world = World(worm_config_for(*topology), seed)
    stations = world.stations
    dist = hop_counts(world.network)
    # each station's row is networkx's hop counts from its node
    for station in stations:
        assert station.hops == dist[station.node]
    for origin in world.network.nodes:
        want = min(stations, key=lambda station: (dist[origin][station.node], station.station_id))
        assert nearest_station(stations, origin) is want
    for current in stations:
        others = [station for station in stations if station is not current]
        want = min(others, key=lambda station: (dist[current.node][station.node],
                                                station.station_id))
        sub = SimpleNamespace(visited=set())
        assert next_station(stations, current, sub) is want
