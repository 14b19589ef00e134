"""Output checks, computed apart from the program.

The saved event log is read back with this module's own line parser, and
its counts are compared with what the program reported. Shortest paths
come from networkx. Nothing here calls into `immunet`, so a fault in the
program's parser, metrics or audit cannot hide itself.

Every check returns a `Check`; `ok` is False when the output is wrong.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def parse_line(line: str) -> tuple[int, str, dict[str, str]]:
    """`step=<int> kind=<name> key=value ...` -> (step, kind, raw fields)."""
    tokens = line.split()
    if len(tokens) < 2 or not tokens[0].startswith("step=") or not tokens[1].startswith("kind="):
        raise ValueError(f"malformed event line: {line!r}")
    return int(tokens[0][5:]), tokens[1][5:], dict(tok.split("=", 1) for tok in tokens[2:])


def read_log(text: str) -> list[tuple[int, str, dict[str, str]]]:
    return [parse_line(line) for line in text.splitlines() if line]


def _present(fields: dict[str, str], key: str) -> bool:
    return fields.get(key, "-") != "-"


def recount(records, metrics: dict, steps: int) -> list[Check]:
    """The run's step count, attack counts, prevention rate and drops, recounted."""
    kinds = Counter()
    attack = Counter()
    dropped = 0
    for _step, kind, f in records:
        kinds[kind] += 1
        if kind in ("Inject", "Detect", "Deliver") and _present(f, "attack"):
            attack[kind] += 1
        elif kind == "Drop" and _present(f, "pid"):
            dropped += 1
    want = {"injected_attack": attack["Inject"], "destroyed_attack": attack["Detect"],
            "delivered_attack": attack["Deliver"]}
    got = {k: metrics[k] for k in want}
    rate = attack["Detect"] / attack["Inject"] if attack["Inject"] else None
    return [
        Check("steps", kinds["Step"] == steps == metrics["steps"],
              f"{kinds['Step']} Step lines, {steps} stepped, metrics say {metrics['steps']}"),
        Check("attack_counts", want == got, f"log {want}, metrics {got}"),
        Check("prevention_rate", rate == metrics["prevention_rate"],
              f"log {rate}, metrics {metrics['prevention_rate']}"),
        Check("dropped_total", dropped == metrics["dropped_total"],
              f"log {dropped}, metrics {metrics['dropped_total']}"),
    ]


_TERMINAL = ("Deliver", "Drop", "Evict", "Detect")


def conservation(records, queued: dict[str, int]) -> Check:
    """Every packet is injected once and ends at most once; per class, the
    packets the log leaves in flight are the ones left in the queues."""
    live: dict[str, str] = {}  # pid -> class, while in flight
    ended: set[str] = set()
    errors = []
    for step, kind, f in records:
        pid = f.get("pid", "-")
        if pid == "-":
            continue
        if kind == "Inject":
            if pid in live or pid in ended:
                errors.append(f"step {step}: pid {pid} injected twice")
            live[pid] = f["klass"]
        elif kind in _TERMINAL or kind == "Forward":
            if pid not in live:
                errors.append(f"step {step}: {kind} of pid {pid}, which is not in flight")
            elif kind != "Forward":
                del live[pid]
                ended.add(pid)
    in_flight = dict(Counter(live.values()))
    want = {k: v for k, v in queued.items() if v}
    if in_flight != want:
        errors.append(f"log leaves {in_flight} in flight, the queues hold {want}")
    return Check("conservation", not errors,
                 "; ".join(errors[:3]) or f"{len(ended)} ended, {in_flight} in flight")


def shortest_paths(links):
    import networkx as nx

    graph = nx.Graph()
    graph.add_edges_from((u, v) for u, v, *_ in links)
    return graph, dict(nx.all_pairs_shortest_path_length(graph))


def hops(records, dist) -> Check:
    """Every delivered packet took a shortest path from its source."""
    ends: dict[str, tuple[int, int]] = {}
    delivered = bad = 0
    first_bad = ""
    for step, kind, f in records:
        if kind == "Inject":
            ends[f["pid"]] = (int(f["src"]), int(f["dst"]))
        elif kind == "Deliver":
            delivered += 1
            src, dst = ends[f["pid"]]
            if int(f["hops"]) != dist[src][dst]:
                bad += 1
                first_bad = first_bad or (f"step {step}: pid {f['pid']} {src}->{dst} took "
                                          f"{f['hops']} hops, shortest is {dist[src][dst]}")
    return Check("hops", delivered > 0 and bad == 0,
                 first_bad or f"{delivered} deliveries, all on shortest paths")


def routing(table: dict[tuple[int, int], int], graph, dist) -> Check:
    """Every next hop is a neighbour one hop closer to the destination."""
    n = graph.number_of_nodes()
    bad = [(s, d, nh) for (s, d), nh in table.items()
           if not graph.has_edge(s, nh) or dist[nh][d] != dist[s][d] - 1]
    complete = len(table) == n * (n - 1)
    return Check("routing", complete and not bad,
                 f"{len(table)} of {n * (n - 1)} routes, off-path next hops: {bad[:3]}")


def cures(records) -> Check:
    """`Disinfect ok=1` names an infected node and `ok=0` a healthy one."""
    infected: set[str] = set()
    identifies = cured = 0
    bad = []
    for step, kind, f in records:
        if kind == "Infect" and f["ok"] == "1":
            infected.add(f["node"])
        elif kind == "Identify":
            identifies += 1
        elif kind == "Disinfect":
            node = f["node"]
            if (f["ok"] == "1") != (node in infected):
                bad.append(f"step {step}: Disinfect node={node} ok={f['ok']}")
            if f["ok"] == "1":
                cured += 1
                infected.discard(node)
    return Check("cures", not bad and identifies > 0 and cured > 0,
                 "; ".join(bad[:3]) or f"{identifies} identifies, {cured} cures")


def destroyed(records) -> Check:
    """The defence destroys at least one attack packet."""
    count = sum(1 for _s, kind, f in records if kind == "Detect" and _present(f, "attack"))
    return Check("destroyed_attack", count > 0, f"{count} attack packets destroyed")


def log_checks(workload: str, records, metrics: dict, steps: int, queued: dict[str, int],
               routes=None, links=None) -> list[Check]:
    """Every check of one saved log; `routes` and `links` are needed on transit."""
    checks = recount(records, metrics, steps) + [conservation(records, queued)]
    if workload == "transit":
        graph, dist = shortest_paths(links)
        checks += [hops(records, dist), routing(routes, graph, dist)]
    elif workload == "outbreak":
        checks.append(cures(records))
    elif workload == "baseline":
        checks.append(destroyed(records))
    return checks
