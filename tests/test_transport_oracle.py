"""An independent re-simulation of the packet layer, checked against run logs.

The oracle imports nothing from `immunet.transport` or `immunet.topology`.
Its inputs are a run's `Inject` lines, the node of each `Detect` line (the
defence's decision, taken as given), the links with their bandwidths and
`queue_capacity`. From the rules that `transport.py`'s docstring states it
computes every `Forward`, `Deliver` (with `hops`), packet `Drop`, `Evict`
and `Detect` line, and they must equal the log's, in order:

- nodes are swept in ascending id, the immune lane first, and the data lane
  only once the immune lane is empty;
- each link has its own budget per step, its bandwidth;
- a lane stops at its first packet whose next link has no budget left
  (head-of-line blocking);
- the next hop is the smallest neighbour one hop nearer the destination,
  by networkx's hop counts;
- arrivals are handled in forward order: a detected packet ends where the
  log detects it, a packet at its destination is delivered, and any other
  joins the node's queue;
- a full queue evicts its newest data packet for an immune one, and
  otherwise drops the newcomer;
- an immune packet joins its queue at once; a data packet from phase 1
  joins after that step's arrivals, and one from phase 4 after the next
  step's.

The phase split is the oracle's limit. The log does not say which phase
wrote a data `Inject` line, so a step's leading data `Inject`,
`Infect via=entry` and `Spawn by=init` lines are taken as phase 1, and every
later data `Inject` line as phase 4. In a step where phases 2 and 3 log
nothing, the two groups are adjacent, and this rule takes phase 4's packets
for phase 1's and enqueues them a step early.
"""

from collections import deque
from itertools import zip_longest
from pathlib import Path

import pytest

nx = pytest.importorskip("networkx")

from immunet.engine import World
from immunet.scenario import TrafficConfig, TransportConfig, load_scenario

from conftest import worm_config

ROOT = Path(__file__).resolve().parents[1]
# perfbench's workloads: each scenario file and the steps a round runs
WORKLOADS = {
    "baseline": (ROOT / "src/immunet/scenarios/baseline.scenario", 300),
    "transit": (ROOT / "perfbench/scenarios/transit.scenario", 150),
    "outbreak": (ROOT / "perfbench/scenarios/outbreak.scenario", 200),
}
# the fields each packet line is compared on, after its step and kind
PACKET_LINES = {"Forward": ("pid", "src", "dst"), "Deliver": ("pid", "node", "hops"),
                "Drop": ("pid", "node"), "Evict": ("pid", "node", "by"),
                "Detect": ("pid", "node", "src")}


def tight_config():
    """Budgets that bind: one packet per link per step, queues of four, and
    more background traffic than the line can carry, so sources defer
    packets, queues overflow and moving cells evict data."""
    cfg = worm_config(nodes=10, horizon=150, fanout=3)
    cfg.topology.links = [[i, i + 1] for i in range(9)] + [[0, 5], [2, 7]]
    cfg.transport = TransportConfig(queue_capacity=4, link_bandwidth=1)
    cfg.traffic = TrafficConfig(background_rate=9.0, payload_len=32)
    return cfg


class Run:
    """One run's log, read into the oracle's inputs and the packet lines it
    must reproduce."""

    def __init__(self, world: World, steps: int):
        world.run(steps)
        self.capacity = world.config.transport.queue_capacity
        self.links = {u: dict(row) for u, row in world.network.bandwidth.items()}
        # per step: phase-1 data, phase-4 data and immune injects, each (node, pid, dst)
        self.steps: list[tuple[list, list, list]] = []
        self.detect: dict[int, int] = {}  # pid -> the node that detected it
        self.lines: list[tuple] = []
        self.deferred = 0  # data packets logged after a packet made later
        newest = -1
        for ev in world.log.events:
            step, kind, values = ev[0], ev[1], dict(zip(ev[2], ev[3:]))
            if step == len(self.steps):
                self.steps.append(([], [], []))
                leading = True
            first, later, immune = self.steps[step]
            if kind == "Inject":
                inject = (values["node"], values["pid"], values["dst"])
                if values["klass"] == "Immune":
                    immune.append(inject)
                    leading = False
                else:
                    (first if leading else later).append(inject)
                    self.deferred += values["pid"] < newest
                newest = max(newest, values["pid"])
            elif not (kind == "Infect" and values["via"] == "entry"
                      or kind == "Spawn" and values["by"] == "init"):
                leading = False
            if kind in PACKET_LINES and "pid" in values:
                self.lines.append((step, kind, *map(values.get, PACKET_LINES[kind])))
                if kind == "Detect":
                    self.detect[values["pid"]] = values["node"]


def oracle(run: Run, hol=True, tie=min, per_link=True, data_waits=True, evict=deque.pop):
    """Yield the packet lines the rules give for `run`'s inputs. Each keyword
    names one rule; a planted variant changes one of them."""
    graph = nx.Graph((u, v) for u, row in run.links.items() for v in row)
    hops_to: dict[int, dict] = {}
    next_hops: dict[tuple[int, int], int] = {}

    def next_hop(node, dst):
        nh = next_hops.get((node, dst))
        if nh is None:
            dist = hops_to.get(dst)
            if dist is None:
                dist = hops_to[dst] = nx.single_source_shortest_path_length(graph, dst)
            nh = next_hops[node, dst] = tie(v for v in graph[node]
                                            if dist[v] == dist[node] - 1)
        return nh

    queues = {node: (deque(), deque()) for node in run.links}  # immune lane, data lane

    def admit(step, node, pkt):
        """Enqueue `pkt` = [pid, dst, hops, immune]; the line it logs, if any."""
        immune, data = queues[node]
        if len(immune) + len(data) < run.capacity:
            (immune if pkt[3] else data).append(pkt)
        elif pkt[3] and data:
            immune.append(pkt)
            return (step, "Evict", evict(data)[0], node, pkt[0])
        else:
            return (step, "Drop", pkt[0], node)

    staged = []
    for step, (first, later, immune) in enumerate(run.steps):
        staged += [(node, [pid, dst, 0, False]) for node, pid, dst in first]
        arrivals = []
        for node in sorted(n for n, lanes in queues.items() if lanes[0] or lanes[1]):
            row = run.links[node]
            budget = dict(row) if per_link else {None: sum(row.values())}
            for lane in queues[node]:
                blocked = deque()
                while lane:
                    pkt = lane[0]
                    nh = next_hop(node, pkt[1])
                    key = nh if per_link else None
                    if budget[key] <= 0:
                        if hol:
                            break
                        blocked.append(lane.popleft())
                        continue
                    budget[key] -= 1
                    lane.popleft()
                    pkt[2] += 1
                    yield (step, "Forward", pkt[0], node, nh)
                    arrivals.append((node, nh, pkt))
                lane.extend(blocked)
                if lane and data_waits:
                    break
        for src, node, pkt in arrivals:
            if run.detect.get(pkt[0]) == node:
                yield (step, "Detect", pkt[0], node, src)
            elif node == pkt[1]:
                yield (step, "Deliver", pkt[0], node, pkt[2])
            elif line := admit(step, node, pkt):
                yield line
        for node, pkt in staged:
            if line := admit(step, node, pkt):
                yield line
        staged = [(node, [pid, dst, 0, False]) for node, pid, dst in later]
        for node, pid, dst in immune:
            if line := admit(step, node, [pid, dst, 0, True]):
                yield line


def first_disagreement(run: Run, **variant):
    """(index, oracle line, log line) at the first line where the oracle
    and the log differ, or None; the oracle stops there."""
    for i, (got, want) in enumerate(zip_longest(oracle(run, **variant), run.lines)):
        if got != want:
            return i, got, want
    return None


@pytest.fixture(scope="module")
def runs():
    runs = {name: Run(World(load_scenario(path), 1), steps)
            for name, (path, steps) in WORKLOADS.items()}
    runs["tight"] = Run(World(tight_config(), 1), 150)
    return runs


@pytest.mark.parametrize("name", ["baseline", "transit", "outbreak", "tight"])
def test_oracle_reproduces_every_packet_line(runs, name):
    assert first_disagreement(runs[name]) is None


def test_tight_case_defers_overflows_and_evicts(runs):
    tight = runs["tight"]
    kinds = {kind for _step, kind, *_ in tight.lines}
    assert tight.deferred > 0 and {"Drop", "Evict", "Detect"} <= kinds


# item 17's planted rule changes; each must disagree with one of the logs
VARIANTS = {
    "no-head-of-line-blocking": {"hol": False},
    "largest-neighbour-tie-break": {"tie": max},
    "per-node-budget": {"per_link": False},
    "data-not-blocked-by-immune": {"data_waits": False},
    "evict-oldest-data": {"evict": deque.popleft},
}


@pytest.mark.parametrize("variant", VARIANTS.values(), ids=VARIANTS.keys())
def test_planted_rule_change_disagrees(runs, variant):
    assert any(first_disagreement(runs[name], **variant)
               for name in ("tight", "outbreak", "baseline", "transit"))
