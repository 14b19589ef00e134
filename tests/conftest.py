import random

import pytest

from immunet.events import EventLog
from immunet.scenario import (AntConfig, AttackConfig, DetectorConfig,
                              MonitorConfig, PheromoneConfig, ScenarioConfig,
                              StationConfig, TopologySpec, TrafficConfig,
                              TransportConfig, VulnerabilityConfig, WormConfig)

SIG_HEX = "a3f1c08e55d2764b9900eeab1275c3d4"
SIG = bytes.fromhex(SIG_HEX)


def fields(rec):
    """An event record's fields as a `key -> value` dict in line order."""
    return dict(zip(rec[2], rec[3:]))


def to_line(rec):
    """An event record's log line, as `EventLog.to_text` writes it."""
    log = EventLog()
    log.events.append(rec)
    return log.to_text().removesuffix("\n")


def hop_counts(net):
    """All-pairs hop counts dist[src][dst] by networkx, apart from the
    program's own breadth-first search; skips the test without networkx."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph((u, v) for u, v, _bw in net.links)
    return dict(nx.all_pairs_shortest_path_length(graph))


def quiet_config(nodes=4, links=None, capacity=8, bandwidth=2, horizon=20):
    """Line topology, no traffic, no cells, no worm; stations parked on node 0."""
    if links is None:
        links = [[i, i + 1] for i in range(nodes - 1)]
    return ScenarioConfig(
        name="quiet",
        horizon=horizon,
        topology=TopologySpec(kind="explicit", nodes=nodes, links=links),
        transport=TransportConfig(queue_capacity=capacity, link_bandwidth=bandwidth),
        traffic=TrafficConfig(background_rate=0.0, distribution="fixed", payload_len=32),
        attacks=[],
        worm=WormConfig(enabled=False),
        vulnerability=VulnerabilityConfig(probability=0.0),
        detectors=DetectorConfig(count=0),
        ants=AntConfig(count=0),
        monitors=MonitorConfig(count=0),
        stations=StationConfig(lymph=0, nurseries=0, placement=[0]),
    )


def worm_config(nodes=8, horizon=200, fanout=2, seed_links=0, **overrides):
    """Small connected random graph with one worm attack and a full population."""
    rng = random.Random(seed_links)
    links = [[i, i + 1] for i in range(nodes - 1)]
    extra = {(i, j) for i in range(nodes) for j in range(i + 2, nodes) if rng.random() < 0.3}
    links += [[i, j] for i, j in sorted(extra)]
    cfg = ScenarioConfig(
        name="small-worm",
        horizon=horizon,
        topology=TopologySpec(kind="explicit", nodes=nodes, links=links),
        transport=TransportConfig(queue_capacity=16, link_bandwidth=2),
        traffic=TrafficConfig(background_rate=2.0, distribution="poisson", payload_len=32),
        attacks=[AttackConfig(attack_id=1, signature=SIG_HEX, infects=True, fanout=fanout)],
        worm=WormConfig(enabled=True, attack_id=1, entry_step=10, entry="random"),
        vulnerability=VulnerabilityConfig(probability=1.0),
        detectors=DetectorConfig(count=4, p_move=0.5),
        ants=AntConfig(count=4, memory=4, epsilon=0.5),
        monitors=MonitorConfig(count=1, flush_period=10),
        pheromone=PheromoneConfig(deposit=1.0, evaporation=0.02, threshold=3.0, quorum=1),
        stations=StationConfig(lymph=2, nurseries=2, placement=[0, 1, 2, 3, 4],
                               release_period=50, dedup_window=30),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture
def rng():
    return random.Random(1234)
