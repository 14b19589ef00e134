import json

import pytest

from immunet import cli
from immunet.scenario import baseline_scenario


def scenario_file(tmp_path, section=None, **fields):
    data = baseline_scenario().to_dict()
    (data[section] if section else data).update(fields)
    path = tmp_path / "case.scenario"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def invoke(command, path):
    argv = [command, "--scenario", path]
    if command == "run":
        argv += ["--seed", "1", "--steps", "1"]
    return cli.main(argv)


@pytest.mark.parametrize("command", ["validate", "run"])
class TestValidationExitCodes:

    def test_admin_node_outside_topology(self, tmp_path, capsys, command):
        path = scenario_file(tmp_path, "stations", admin_node=999)
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stations.admin_node:") and err.count("\n") == 1

    def test_string_horizon(self, tmp_path, capsys, command):
        path = scenario_file(tmp_path, horizon="5")
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: horizon:") and err.count("\n") == 1

    def test_string_node_count(self, tmp_path, capsys, command):
        path = scenario_file(tmp_path, "topology", nodes="50")
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: topology.nodes:") and err.count("\n") == 1

    def test_string_attack_rate(self, tmp_path, capsys, command):
        path = scenario_file(tmp_path, "traffic", attack_mix=[{"attack_id": 1, "rate": "1"}])
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: traffic.attack_mix[0].rate:") and err.count("\n") == 1

    def test_detectors_outside_topology(self, tmp_path, capsys, command):
        path = scenario_file(tmp_path, "detectors", placement=[999] * 30)
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: detectors.placement[0]:") and err.count("\n") == 1

    def test_stations_sharing_one_node(self, tmp_path, capsys, command):
        path = scenario_file(tmp_path, "stations", placement=[0, 0, 0, 0, 0])
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stations.placement:") and err.count("\n") == 1

    def test_admin_node_inside_topology(self, tmp_path, capsys, command):
        path = scenario_file(tmp_path, "stations", admin_node=49)
        assert invoke(command, path) == 0
        assert capsys.readouterr().err == ""
