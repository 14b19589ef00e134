"""Self-test of the output checks: each one must fail on a corrupted log.

    python3 perfbench/selftest.py

Runs transit (20 steps) and outbreak (its 200 steps) at seed 1, confirms that
every check passes on the real logs, then corrupts a copy of a log in one
way per check and confirms that the check aimed at it fails. A check that
passed on every corrupted copy would be passing vacuously. Exits 0 when
every case behaves, 1 otherwise.
"""

from __future__ import annotations

import sys

from checks import (conservation, cures, destroyed, hops, read_log, recount, routing,
                    shortest_paths)
from round import queued_by_class
from workloads import WORKLOADS, setup

SEED = 1


def program_run(name: str, steps: int):
    world = setup(WORKLOADS[name], SEED, strict_checks=True)
    result = world.run(steps)
    return world, result.metrics.as_dict(), result.log.to_text().splitlines()


def field(line: str, key: str) -> str:
    return next(tok.split("=", 1)[1] for tok in line.split() if tok.startswith(key + "="))


def with_field(line: str, key: str, value) -> str:
    return " ".join(f"{key}={value}" if tok.startswith(key + "=") else tok for tok in line.split())


def first(lines, *needles) -> int:
    return next(i for i, line in enumerate(lines) if all(n in line for n in needles))


def without(lines, index: int) -> list[str]:
    return lines[:index] + lines[index + 1:]


def replaced(lines, index: int, line: str) -> list[str]:
    return lines[:index] + [line] + lines[index + 1:]


def moved_cure(lines, nodes) -> list[str]:
    """The first successful cure, aimed at a node that is healthy at that moment."""
    infected = set()
    for i, line in enumerate(lines):
        if "kind=Infect " in line and " ok=1" in line:
            infected.add(field(line, "node"))
        elif "kind=Disinfect " in line and " ok=1" in line:
            healthy = next(str(n) for n in nodes if str(n) not in infected)
            return replaced(lines, i, with_field(line, "node", healthy))
    raise AssertionError("the log has no cure")


def off_path(table, graph, dist):
    """A copy of the routing table with one next hop moved off the shortest paths."""
    for (s, d), nh in table.items():
        for nbr in graph.neighbors(s):
            if dist[nbr][d] >= dist[s][d]:
                return {**table, (s, d): nbr}
    raise AssertionError("every neighbour lies on a shortest path")


def main() -> int:
    transit_world, transit_metrics, transit = program_run("transit", 20)
    outbreak_steps = WORKLOADS["outbreak"].steps
    outbreak_world, outbreak_metrics, outbreak = program_run("outbreak", outbreak_steps)
    graph, dist = shortest_paths(transit_world.network.links)
    routes = transit_world.routing

    def checks_of(lines, world, metrics, steps):
        records = read_log("\n".join(lines))
        return {c.name: c for c in recount(records, metrics, steps)
                + [conservation(records, queued_by_class(world))]}

    def transit_checks(lines, table=routes):
        out = checks_of(lines, transit_world, transit_metrics, 20)
        records = read_log("\n".join(lines))
        out["hops"] = hops(records, dist)
        out["routing"] = routing(table, graph, dist)
        return out

    def outbreak_checks(lines):
        out = checks_of(lines, outbreak_world, outbreak_metrics, outbreak_steps)
        records = read_log("\n".join(lines))
        out["cures"] = cures(records)
        out["destroyed_attack"] = destroyed(records)
        return out

    deliver = first(transit, "kind=Deliver")
    detect = first(outbreak, "kind=Detect", "attack=1")
    cases = [
        ("real transit log", transit_checks(transit), None),
        ("real outbreak log", outbreak_checks(outbreak), None),
        ("a Deliver line removed", transit_checks(without(transit, deliver)), "conservation"),
        ("a hop count changed", transit_checks(replaced(
            transit, deliver,
            with_field(transit[deliver], "hops", int(field(transit[deliver], "hops")) + 1))),
         "hops"),
        ("a cure moved to a healthy node",
         outbreak_checks(moved_cure(outbreak, outbreak_world.network.nodes)), "cures"),
        ("a Step line removed", transit_checks(without(transit, first(transit, "kind=Step"))),
         "steps"),
        ("an attack Deliver line removed",
         outbreak_checks(without(outbreak, first(outbreak, "kind=Deliver", "attack=1"))),
         "attack_counts"),
        ("an attack Detect turned benign", outbreak_checks(replaced(
            outbreak, detect, with_field(outbreak[detect], "attack", "-"))),
         "prevention_rate"),
        ("a packet Drop line removed",
         outbreak_checks(without(outbreak, first(outbreak, "kind=Drop", "pid="))),
         "dropped_total"),
        ("every attack Detect line removed",
         outbreak_checks([line for line in outbreak
                          if not ("kind=Detect" in line and "attack=1" in line)]),
         "destroyed_attack"),
        ("a next hop moved off the shortest paths",
         transit_checks(transit, table=off_path(routes, graph, dist)), "routing"),
    ]
    bad = 0
    for label, checks, target in cases:
        failed = sorted(name for name, c in checks.items() if not c.ok)
        ok = not failed if target is None else target in failed
        bad += not ok
        expect = "every check passes" if target is None else f"{target} fails"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: want {expect}; failed: {failed or 'none'}")
        if target is not None and target in checks:
            print(f"       {target}: {checks[target].detail}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
