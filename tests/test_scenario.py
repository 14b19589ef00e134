import json
from pathlib import Path

import pytest

from immunet.scenario import ValidationError, baseline_scenario, load_scenario, loads

from conftest import worm_config

ROOT = Path(__file__).resolve().parents[1]
CHECKED_IN = [ROOT / "src/immunet/scenarios/baseline.scenario",
              *sorted((ROOT / "perfbench/scenarios").glob("*.scenario"))]


class TestLoads:

    def test_bundled_scenario_round_trips_through_json(self):
        config = baseline_scenario()
        assert loads(json.dumps(config.to_dict())).to_dict() == config.to_dict()

    def test_explicit_topology_round_trips_through_json(self):
        config = worm_config(horizon=50)
        assert loads(json.dumps(config.to_dict())).to_dict() == config.to_dict()

    @pytest.mark.parametrize("path", CHECKED_IN, ids=lambda path: path.name)
    def test_checked_in_scenario_round_trips_through_json(self, path):
        config = load_scenario(path)
        assert loads(json.dumps(config.to_dict())).to_dict() == config.to_dict()

    def test_every_checked_in_scenario_is_found(self):
        assert sorted(path.name for path in CHECKED_IN) == [
            "baseline.scenario", "outbreak.scenario", "transit.scenario"]


def mutated(changes: dict) -> str:
    """The bundled scenario as JSON text, with each dotted path set to its
    value; a numeric part indexes a list, as in `attacks.0.fanout`."""
    data = baseline_scenario().to_dict()
    for path, value in changes.items():
        *parts, last = path.split(".")
        target = data
        for part in parts:
            target = target[int(part)] if part.isdigit() else target[part]
        target[int(last) if last.isdigit() else last] = value
    return json.dumps(data)


def rejection(changes: dict) -> ValidationError:
    with pytest.raises(ValidationError) as info:
        loads(mutated(changes))
    return info.value


ATTACK = {"attack_id": 1, "signature": "a3f1c08e55d2764b9900eeab1275c3d4",
          "infects": True, "fanout": 2}

# One bad value per rule about a single field, with the rule's message.
BOUNDS = [
    ("transport.queue_capacity", 0, "must be >= 1"),
    ("transport.link_bandwidth", 0, "must be >= 1"),
    ("traffic.background_rate", -0.5, "must be >= 0"),
    ("traffic.payload_len", 0, "must be >= 1"),
    ("attacks.0.fanout", -1, "must be >= 0"),
    ("vulnerability.probability", 1.5, "must be in [0, 1]"),
    ("detectors.p_move", -0.1, "must be in [0, 1]"),
    ("detectors.target_fpr", 1.0, "must be in (0, 1)"),
    ("detectors.count", -1, "must be >= 0"),
    ("ants.count", -1, "must be >= 0"),
    ("monitors.count", -1, "must be >= 0"),
    ("ants.memory", -1, "must be >= 0"),
    ("ants.epsilon", 0.0, "must be > 0"),
    ("monitors.flush_period", 0, "must be >= 1"),
    ("pheromone.evaporation", 0.0, "must be in (0, 1)"),
    ("pheromone.deposit", 0, "must be > 0"),
    ("pheromone.threshold", -1.0, "must be > 0"),
    ("pheromone.quorum", 0, "must be >= 1"),
    ("stations.lymph", 1, "redundancy requires >= 2"),
    ("stations.nurseries", 0, "redundancy requires >= 2"),
    ("stations.release_period", 0, "must be >= 1"),
    ("stations.release_mix.Monitor", -1, "must be >= 0"),
    ("stations.caps.Monitor", -1, "must be >= 0"),
    ("stations.immunization_radius", -1, "must be >= 0"),
    ("stations.dedup_window", 0, "must be >= 1"),
    ("stations.substance_ttl", 0, "must be >= 1"),
    ("static_ids.count", -1, "must be >= 0"),
    ("horizon", -1, "must be >= 0"),
]

# One bad value per other rule: (changes, the field the error names), and a
# case id where another case names the field as well.
RULES = [
    # choices
    ({"topology.kind": "mesh"}, "topology.kind"),
    ({"traffic.distribution": "uniform"}, "traffic.distribution"),
    ({"detectors.initial_signatures": "some"}, "detectors.initial_signatures"),
    ({"worm.entry": "foo"}, "worm.entry"),
    ({"worm.entry": 1.5}, "worm.entry"),
    ({"static_ids.placement": "top"}, "static_ids.placement"),
    ({"filters": [{"node": 0, "action": "Allow"}]}, "filters[0].action"),
    ({"filters": [{"node": 0, "klass": "Bulk"}]}, "filters[0].klass"),
    ({"stations.release_mix": {"Bogus": 1}}, "stations.release_mix"),
    ({"stations.caps": {"Bogus": 1}}, "stations.caps"),
    # types
    ({"horizon": "5"}, "horizon"),
    ({"stations.admin_node": "3"}, "stations.admin_node"),
    # rules that span fields or hold only under a condition
    ({"topology.nodes": 1}, "topology.nodes"),
    ({"topology.edge_prob": 0.0}, "topology.edge_prob"),
    ({"attacks": [ATTACK, ATTACK]}, "attacks[1].attack_id"),
    ({"attacks.0.signature": "zz"}, "attacks[0].signature"),
    ({"attacks.0.signature": "a3f1c0"}, "attacks[0].signature"),
    ({"traffic.payload_len": 8}, "attacks[0].signature"),
    ({"traffic.attack_mix": [{"attack_id": 1}]}, "traffic.attack_mix[0]"),
    ({"traffic.attack_mix": [{"attack_id": 9, "rate": 1}]}, "traffic.attack_mix[0].attack_id"),
    ({"traffic.attack_mix": [{"attack_id": 1, "rate": "1"}]}, "traffic.attack_mix[0].rate"),
    ({"traffic.attack_mix": [{"attack_id": 1, "rate": -1}]}, "traffic.attack_mix[0].rate"),
    ({"worm.attack_id": 9}, "worm.attack_id"),
    ({"worm.entry_step": -1}, "worm.entry_step"),
    ({"worm.entry": 999}, "worm.entry"),
    ({"detectors.placement": [0] * 29}, "detectors.placement"),
    ({"detectors.placement": [999] * 30}, "detectors.placement[0]"),
    ({"stations.placement": [0, 1, 2, 3]}, "stations.placement"),
    ({"stations.placement": [0, 1, 2, 3, 4, 5]}, "stations.placement", "stations.placement-long"),
    ({"stations.placement": [0, 1, 2, 3, 999]}, "stations.placement[4]"),
    ({"stations.placement": [0, 1, 2, 3, 0]}, "stations.placement"),
    ({"stations.admin_node": 50}, "stations.admin_node"),
    ({"stations.lymph": 48}, "stations"),
    ({"static_ids.placement": [999]}, "static_ids.placement[0]"),
    ({"static_ids.count": 5, "static_ids.placement": [1, 2]}, "static_ids.placement",
     "static_ids.placement-short"),
    ({"static_ids.count": 3, "static_ids.placement": [1, 2, 1]}, "static_ids.placement",
     "static_ids.placement-repeat"),
    ({"static_ids.count": 51}, "static_ids.count", "static_ids.count-above-nodes"),
    ({"filters": [{"node": 999}]}, "filters[0].node"),
    # a name is a file stem under --out: not empty, no directory parts, no NUL
    ({"name": ""}, "name", "name-empty"),
    ({"name": "../escaped"}, "name", "name-slash"),
    ({"name": "..\\escaped"}, "name", "name-backslash"),
    ({"name": "bad\0name"}, "name", "name-nul"),
    # a placement string other than its one literal; a junk entry with the worm off
    ({"detectors.placement": "randm"}, "detectors.placement"),
    ({"stations.placement": "randm"}, "stations.placement"),
    ({"worm.enabled": False, "worm.entry": "foo"}, "worm.entry"),
]


class TestGate:
    """Each rule of the scenario gate rejects one bad value on the bundled
    scenario, and names the field."""

    @pytest.mark.parametrize("path, value, message", BOUNDS, ids=[case[0] for case in BOUNDS])
    def test_bound(self, path, value, message):
        exc = rejection({path: value})
        where = path.replace(".0.", "[0].")
        assert exc.field == where and str(exc) == f"{where}: {message}"

    @pytest.mark.parametrize("changes, where", [case[:2] for case in RULES],
                             ids=[case[-1] for case in RULES])
    def test_rule(self, changes, where):
        assert rejection(changes).field.startswith(where)

    @pytest.mark.parametrize("section", ["release_mix", "caps"])
    def test_bad_cell_kind_names_the_section_and_the_kinds(self, section):
        exc = rejection({f"stations.{section}": {"Bogus": 1}})
        assert exc.field == f"stations.{section}"
        assert all(kind in str(exc) for kind in ("'Detector'", "'Ant'", "'Monitor'"))

    def test_choice_names_the_allowed_values(self):
        exc = rejection({"traffic.distribution": "uniform"})
        assert str(exc) == "traffic.distribution: expected 'poisson' or 'fixed'"

    @pytest.mark.parametrize("changes", [
        {"stations.substance_ttl": None},
        {"stations.substance_ttl": 1},
        {"worm.enabled": False, "worm.entry_step": -1, "worm.attack_id": 9, "worm.entry": 999},
        {"topology.kind": "ring", "topology.edge_prob": 0.0},
        {"detectors.placement": list(range(30)), "stations.placement": [0, 1, 2, 3, 4]},
        {"stations.caps": {"Detector": 5, "Ant": 0, "Monitor": 1}},
        {"filters": [{"node": 3, "action": "Accept", "klass": None, "src": [1], "dst": None}]},
        {"static_ids.count": 50},
        {"name": "..run.v2"},
    ])
    def test_accepted(self, changes):
        config = loads(mutated(changes))
        assert loads(json.dumps(config.to_dict())).to_dict() == config.to_dict()
