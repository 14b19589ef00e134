"""Run metrics, computed solely from the event log so any run can be
replayed from its persisted log and yield identical numbers.

Rates with zero denominators are reported as None, never as fake zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from statistics import median

from .events import field


@dataclass
class Metrics:
    """A run's figures. Prevalence is counted at each `Step` line, after the
    step's stations act: `infected_node_steps` sums the infected nodes over
    the steps, `peak_infected` is the largest count and `final_infected`
    the count after the last line. `Infect ok=1`, worm entries included,
    makes a node infected and `Disinfect ok=1` makes it clean."""

    steps: int = 0
    injected_total: int = 0
    injected_attack: int = 0
    destroyed_attack: int = 0
    delivered_attack: int = 0
    prevention_rate: float | None = None
    worm_entries: int = 0
    infections_total: int = 0
    infections_per_event: float | None = None
    identification_latency_median: float | None = None
    identified_episodes: int = 0
    unidentified_episodes: int = 0
    disinfection_latency_median: float | None = None
    overhead: float | None = None
    false_positive_detections: int = 0
    false_disinfections: int = 0
    dropped_total: int = 0
    infected_node_steps: int = 0
    peak_infected: int = 0
    final_infected: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def compute_metrics(events) -> Metrics:
    """Fold event records, `(step, kind, keys, *values)` tuples as
    `EventLog` keeps them and `load_log` yields them, into the run's
    metrics. A field a record lacks reads as None."""
    m = Metrics()
    steps = 0
    forwards_total = 0
    forwards_immune = 0
    infected_nodes: set[int] = set()
    entry_nodes: set[int] = set()
    infected_now: set[int] = set()  # prevalence: nodes infected at this point of the log
    # open infection episodes: node -> infect step (awaiting an Identify)
    open_infections: dict[int, int] = {}
    open_identifies: dict[int, int] = {}
    ident_latencies: list[int] = []
    disinf_latencies: list[int] = []

    # the most frequent kinds come first and read their field inline, with no call
    for rec in events:
        kind = rec[1]
        if kind == "Forward":
            forwards_total += 1
            try:
                if rec[3 + rec[2].index("klass")] == "Immune":
                    forwards_immune += 1
            except ValueError:
                pass
        elif kind == "Inject":
            m.injected_total += 1
            try:
                if rec[3 + rec[2].index("attack")] is not None:
                    m.injected_attack += 1
            except ValueError:
                pass
        elif kind == "Deliver":
            try:
                if rec[3 + rec[2].index("attack")] is not None:
                    m.delivered_attack += 1
            except ValueError:
                pass
        elif kind == "Step":
            steps += 1
            m.infected_node_steps += len(infected_now)
            m.peak_infected = max(m.peak_infected, len(infected_now))
        elif kind == "Detect":
            if field(rec, "attack") is not None:
                m.destroyed_attack += 1
            else:
                m.false_positive_detections += 1
        elif kind == "Drop":
            if field(rec, "pid") is not None:
                m.dropped_total += 1
        elif kind == "Infect":
            if field(rec, "ok") != 1:
                continue
            node = field(rec, "node")
            infected_now.add(node)
            if field(rec, "via") == "entry":
                m.worm_entries += 1
                entry_nodes.add(node)
            else:
                infected_nodes.add(node)
            if node not in open_infections:
                open_infections[node] = rec[0]
        elif kind == "Identify":
            node = field(rec, "node")
            start = open_infections.pop(node, None)
            if start is not None:
                ident_latencies.append(rec[0] - start)
                open_identifies.setdefault(node, rec[0])
        elif kind == "Disinfect":
            if field(rec, "ok") == 1:
                node = field(rec, "node")
                infected_now.discard(node)
                ident_step = open_identifies.pop(node, None)
                if ident_step is not None:
                    disinf_latencies.append(rec[0] - ident_step)
            else:
                m.false_disinfections += 1

    m.steps = steps
    m.final_infected = len(infected_now)
    m.infections_total = len(infected_nodes - entry_nodes)
    if m.injected_attack:
        m.prevention_rate = m.destroyed_attack / m.injected_attack
    if m.worm_entries:
        m.infections_per_event = m.infections_total / m.worm_entries
    if ident_latencies:
        m.identification_latency_median = float(median(ident_latencies))
    m.identified_episodes = len(ident_latencies)
    m.unidentified_episodes = len(open_infections)
    if disinf_latencies:
        m.disinfection_latency_median = float(median(disinf_latencies))
    if forwards_total:
        m.overhead = forwards_immune / forwards_total
    return m
