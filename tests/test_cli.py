import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from immunet import cli, harness
from immunet.metrics import Metrics
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

    def test_ant_memory_too_large_for_a_deque(self, tmp_path, capsys, command):
        path = scenario_file(tmp_path, "ants", memory=10**30)
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ants.memory:") and err.count("\n") == 1

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

    def test_negative_station_cap(self, tmp_path, capsys, command):
        path = scenario_file(tmp_path, "stations", caps={"Monitor": -1})
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stations.caps") and err.count("\n") == 1

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

    @pytest.mark.parametrize("count, placement", [
        (10_001, [0] * 10_001),
        (5, [1, 2]),
    ], ids=["repeats-a-node", "fewer-nodes-than-count"])
    def test_static_ids_placement(self, tmp_path, capsys, command, count, placement):
        path = scenario_file(tmp_path, "static_ids", count=count, placement=placement)
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: static_ids.placement:") and err.count("\n") == 1

    def test_static_ids_above_node_count(self, tmp_path, capsys, command):
        path = scenario_file(tmp_path, "static_ids", count=80)
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: static_ids.count:") and err.count("\n") == 1

    def test_static_components_that_reach_the_detector_ids(self, tmp_path, capsys, command):
        """5,000 filter nodes plus 5,001 static IDS are 10,001 components,
        one more than fit below the first detector component id."""
        base = baseline_scenario().to_dict()
        path = scenario_file(tmp_path, topology={**base["topology"], "nodes": 5001},
                             static_ids={**base["static_ids"], "count": 5001},
                             filters=[{"node": n} for n in range(5000)])
        assert invoke(command, path) == 1
        assert capsys.readouterr().err == (
            "error: static_ids.count: filter nodes plus static IDS exceed 10000, "
            "where detector component ids start\n")

    @pytest.mark.parametrize("entry", ["foo", "999"])
    def test_string_worm_entry(self, tmp_path, capsys, command, entry):
        path = scenario_file(tmp_path, "worm", entry=entry)
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: worm.entry:") and err.count("\n") == 1

    @pytest.mark.parametrize("nodes, extra", [
        (6, [[2, 2]]),
        (6, [[1, 0]]),
        (6, [[7, 8]]),
        (6, [[0, 2, 0]]),
        (6, [[0]]),
    ], ids=["self-loop", "duplicate", "disconnected", "bandwidth-0", "one-node-link"])
    def test_explicit_topology_that_does_not_build(self, tmp_path, capsys, command, nodes, extra):
        links = [[i, i + 1] for i in range(5)] + extra
        path = scenario_file(tmp_path, "topology", kind="explicit", nodes=nodes, links=links)
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: topology.links:") and err.count("\n") == 1

    @pytest.mark.parametrize("rule, where", [
        ({"node": 0, "src": [999]}, "filters[0].src[0]"),
        ({"node": 0, "src": [1], "dst": [2, -4]}, "filters[0].dst[1]"),
    ], ids=["src", "dst"])
    def test_filter_rule_that_names_no_node(self, tmp_path, capsys, command, rule, where):
        """A rule that can never match is a typo, refused before a run."""
        assert invoke(command, scenario_file(tmp_path, filters=[rule])) == 1
        assert capsys.readouterr().err == f"error: {where}: not a node of the topology\n"

    def test_worm_attack_that_does_not_infect(self, tmp_path, capsys, command):
        attack = dict(baseline_scenario().to_dict()["attacks"][0], infects=False)
        path = scenario_file(tmp_path, attacks=[attack])
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: worm.attack_id:") and err.count("\n") == 1

    def test_not_json_names_the_file(self, tmp_path, capsys, command):
        path = tmp_path / "cut.scenario"
        path.write_text('{"horizon": ', encoding="utf-8")
        assert invoke(command, str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 1: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        '{"horizon": ' + "1" * 5000 + "}",
        "[" * 100_000,
    ], ids=["5000-digit-integer", "100000-nested-arrays"])
    def test_json_that_the_decoder_refuses(self, tmp_path, capsys, command, text):
        path = tmp_path / "refused.scenario"
        path.write_text(text, encoding="utf-8")
        assert invoke(command, str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fields, where", [
        ({"background_rate": float("inf")}, "traffic.background_rate"),
        ({"background_rate": 10**400}, "traffic.background_rate"),
        ({"attack_mix": [{"attack_id": 1, "rate": float("inf")}]}, "traffic.attack_mix[0].rate"),
    ], ids=["infinity", "401-digits", "attack-mix-infinity"])
    def test_rate_that_is_no_finite_float(self, tmp_path, capsys, command, fields, where):
        path = scenario_file(tmp_path, "traffic", **fields)
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}:") and err.count("\n") == 1
        assert err.endswith(" a finite number\n")

    @pytest.mark.parametrize("fields, message", [
        ({"background_rate": 1e308},
         "error: traffic.background_rate: must be <= 1000000 packets per step\n"),
        ({"attack_mix": [{"attack_id": 1, "rate": 1e308}]},
         "error: traffic.attack_mix[0].rate: must be <= 1000000 packets per step\n"),
        ({"attack_mix": [{"attack_id": 1}]}, "error: traffic.attack_mix[0].rate: missing\n"),
    ], ids=["background-1e308", "attack-mix-1e308", "attack-mix-without-rate"])
    def test_rate_refused_by_the_gate(self, tmp_path, capsys, command, fields, message):
        # refused by the gate, so `run` builds no world
        assert invoke(command, scenario_file(tmp_path, "traffic", **fields)) == 1
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("section, fields, message", [
        ("topology", {"nodes": 100000}, "error: topology.nodes: must be <= 10000 nodes\n"),
        ("detectors", {"count": 10**8}, "error: detectors.count: must be <= 10000 cells\n"),
        ("stations", {"release_mix": {"Detector": 10**8}},
         "error: stations.release_mix.Detector: must be <= 10000 cells\n"),
        ("traffic", {"payload_len": 10**9}, "error: traffic.payload_len: must be <= 65535 bytes\n"),
        ("topology", {"kind": "explicit", "links": [[i, i + 1] for i in range(10**4)]},
         "error: topology.links: must be <= 10000 nodes\n"),
    ], ids=["nodes", "detectors", "release-mix", "payload", "explicit-nodes"])
    def test_resource_refused_by_the_gate(self, tmp_path, capsys, command, section, fields,
                                          message):
        # refused by the gate, so `run` builds no world
        assert invoke(command, scenario_file(tmp_path, section, **fields)) == 1
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("fields, message", [
        ({"topology": 5}, "error: topology: expected an object\n"),
        ({"attacks": {}}, "error: attacks: expected a list\n"),
    ], ids=["topology", "attacks"])
    def test_section_of_the_wrong_shape(self, tmp_path, capsys, command, fields, message):
        assert invoke(command, scenario_file(tmp_path, **fields)) == 1
        assert capsys.readouterr().err == message

    def test_root_that_is_not_an_object(self, tmp_path, capsys, command):
        path = tmp_path / "list.scenario"
        path.write_text("[]", encoding="utf-8")
        assert invoke(command, str(path)) == 1
        assert capsys.readouterr().err == "error: <root>: scenario must be an object\n"

    def test_admin_node_inside_topology(self, tmp_path, capsys, command):
        path = scenario_file(tmp_path, "stations", admin_node=49)
        assert invoke(command, path) == 0
        assert capsys.readouterr().err == ""


class TestRunArguments:

    @pytest.mark.parametrize("steps", ["-3", "-1"])
    def test_negative_steps(self, tmp_path, capsys, steps):
        argv = ["run", "--scenario", scenario_file(tmp_path), "--seed", "1", "--steps", steps]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: --steps: must be >= 0\n"

    def test_zero_steps(self, tmp_path, capsys):
        argv = ["run", "--scenario", scenario_file(tmp_path), "--seed", "1", "--steps", "0"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["steps"] == 0

    def test_seed_defaults_to_the_scenario_seed(self, tmp_path, capsys):
        """Without --seed, a run takes the scenario's `seed`; --seed overrides it."""
        outputs = []
        for seed_field, flag in ((5, []), (7, ["--seed", "5"])):
            out = tmp_path / f"out{seed_field}"
            path = scenario_file(tmp_path, seed=seed_field)
            argv = ["run", "--scenario", path, "--steps", "30", "--out", str(out)] + flag
            assert cli.main(argv) == 0
            name = baseline_scenario().name
            outputs.append((capsys.readouterr().out,
                            (out / f"{name}-seed5.log").read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["steps"] == 30

    def test_explicit_topology_needs_no_node_count(self, tmp_path, capsys):
        """An explicit topology's nodes are its link endpoints: without
        `nodes` it validates, and its checked run, with a static IDS on
        one of its sparse ids, logs the same bytes as with `nodes` set to
        the endpoint count."""
        links = [[3, 7], [7, 40], [40, 1000], [1000, 1001], [1001, 2048], [2048, 3], [7, 1000]]
        static_ids = {**baseline_scenario().to_dict()["static_ids"], "count": 1}
        logs = []
        for extra in ({}, {"nodes": 6}):
            path = scenario_file(tmp_path, topology={"kind": "explicit", "links": links, **extra},
                                 static_ids=static_ids)
            assert cli.main(["validate", "--scenario", path]) == 0
            out = tmp_path / f"out{len(extra)}"
            argv = ["run", "--scenario", path, "--seed", "1", "--steps", "100", "--check",
                    "--out", str(out)]
            assert cli.main(argv) == 0
            logs.append((out / f"{baseline_scenario().name}-seed1.log").read_bytes())
        capsys.readouterr()
        assert logs[0] == logs[1] and b" kind=Deliver " in logs[0]

    def test_random_topology_that_never_connects(self, tmp_path, capsys):
        path = scenario_file(tmp_path, "topology", nodes=10, edge_prob=0.001)
        assert cli.main(["validate", "--scenario", path]) == 0
        capsys.readouterr()
        assert invoke("run", path) == 1
        err = capsys.readouterr().err
        assert err == "error: no connected G(10,0.001) sample in 1000 tries\n"

    @pytest.mark.parametrize("name", ["../escaped", "", "bad\0name"],
                             ids=["parent", "empty", "nul"])
    def test_name_that_is_not_a_file_stem(self, tmp_path, capsys, name):
        """A name is the stem of the files written under --out; one that
        would leave --out, or that no file can have, is rejected before
        the run and nothing is written."""
        out = tmp_path / "runs" / "out"
        argv = ["run", "--scenario", scenario_file(tmp_path, name=name), "--seed", "1",
                "--steps", "1", "--out", str(out)]
        before = set(tmp_path.rglob("*"))
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: name: ") and err.count("\n") == 1
        assert set(tmp_path.rglob("*")) == before


class TestOutThatIsAFile:
    """An --out that names an existing file fails before any run, so no
    work is lost to it."""

    def test_run(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
        (tmp_path / "f").touch()
        argv = ["run", "--scenario", scenario_file(tmp_path), "--seed", "1", "--steps", "300",
                "--out", str(tmp_path / "f")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert runs == []

    def test_sweep(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run", lambda *args: runs.append(args))
        (tmp_path / "f").touch()
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"horizon": [300]}), encoding="utf-8")
        argv = ["sweep", "--scenario", scenario_file(tmp_path), "--grid", str(grid_path),
                "--seeds", "1..2", "--out", str(tmp_path / "f")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert runs == []


class TestRunCheck:

    def check_run(self, tmp_path):
        argv = ["run", "--scenario", scenario_file(tmp_path), "--seed", "1", "--steps", "20",
                "--check", "--out", str(tmp_path / "out")]
        return cli.main(argv)

    def test_faithful_replay_passes(self, tmp_path, capsys):
        assert self.check_run(tmp_path) == 0
        assert capsys.readouterr().err == ""

    def test_check_without_out_exits_1_before_running(self, tmp_path, capsys):
        """Only a saved log can differ from the run's metrics, so `--check`
        needs `--out`."""
        argv = ["run", "--scenario", scenario_file(tmp_path), "--seed", "1", "--steps", "20",
                "--check"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: --check: needs --out, the log it replays\n")

    def test_differing_persisted_log_exits_2(self, tmp_path, capsys, monkeypatch):
        real = cli.load_log
        monkeypatch.setattr(cli, "load_log", lambda path: list(real(path))[:-1])
        assert self.check_run(tmp_path) == 2
        assert capsys.readouterr().err == "check failed: persisted log does not reproduce metrics\n"


class TestSweepValidation:
    """Every grid point is built and validated as a scenario file is, all
    of them before the first run."""

    def sweep(self, tmp_path, grid, seeds="1"):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(grid if isinstance(grid, str) else json.dumps(grid),
                             encoding="utf-8")
        return cli.main(["sweep", "--scenario", scenario_file(tmp_path), "--grid",
                         str(grid_path), "--seeds", seeds, "--out", str(tmp_path / "out")])

    def test_too_few_lymph_stations(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run", lambda *args: runs.append(args))
        assert self.sweep(tmp_path, {"horizon": [1], "stations.lymph": [2, 0]}) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stations.lymph:") and err.count("\n") == 1
        assert runs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid, where", [
        ({"topology.nodes": ["50"]}, "topology.nodes"),
        ({"pheromone.bogus": [1]}, "pheromone.bogus"),
        ({"horizon.steps": [1]}, "horizon.steps"),
        ({"horizon": 5}, "grid"),
        ([1], "grid"),
        ({"seed": [1, 2]}, "seed"),
        pytest.param("{", "{grid}: line 1", id="{-line 1"),
        pytest.param('{"horizon": [' + "1" * 5000 + "]}", "{grid}", id="5000-digit-integer"),
        pytest.param("[" * 100_000, "{grid}", id="100000-nested-arrays"),
    ])
    def test_malformed_point(self, tmp_path, capsys, monkeypatch, grid, where):
        runs = []
        monkeypatch.setattr(harness, "run", lambda *args: runs.append(args))
        assert self.sweep(tmp_path, grid) == 1
        err = capsys.readouterr().err
        where = where.format(grid=tmp_path / "grid.json")
        assert err.startswith(f"error: {where}:") and err.count("\n") == 1
        assert runs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", ["5..1", ",", ""])
    def test_seeds_that_name_no_seed(self, tmp_path, capsys, monkeypatch, seeds):
        runs = []
        monkeypatch.setattr(harness, "run", lambda *args: runs.append(args))
        assert self.sweep(tmp_path, {"horizon": [1]}, seeds) == 1
        assert capsys.readouterr().err == "error: --seeds: names no seed\n"
        assert runs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", ["1..x", "x..3", "1,two", "1.5", "1..2..3"])
    def test_malformed_seeds(self, tmp_path, capsys, monkeypatch, seeds):
        runs = []
        monkeypatch.setattr(harness, "run", lambda *args: runs.append(args))
        assert self.sweep(tmp_path, {"horizon": [1]}, seeds) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seeds:") and err.count("\n") == 1
        assert runs == [] and not (tmp_path / "out").exists()


class TestSweepReport:

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_of_a_two_point_grid(self, tmp_path, capsys, fmt):
        grid = {"pheromone.threshold": [1.0, 6.0], "horizon": [20]}
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--scenario", scenario_file(tmp_path), "--grid",
                         str(grid_path), "--seeds", "1..2", "--out", str(out),
                         "--format", fmt]) == 0
        path = out / f"baseline-sweep.{fmt}"
        assert capsys.readouterr().out == f"wrote 4 rows to {path}\n"
        rows = harness.run_points(harness.grid_points(baseline_scenario(), grid), [1, 2])
        assert [(row["horizon"], row["pheromone.threshold"], row["seed"]) for row in rows] \
            == [(20, 1.0, 1), (20, 1.0, 2), (20, 6.0, 1), (20, 6.0, 2)]
        text = path.read_text(encoding="utf-8")
        if fmt == "json":
            # floats at 6 significant digits
            assert json.loads(text) == [
                {k: float(format(v, ".6g")) if isinstance(v, float) else v
                 for k, v in row.items()} for row in rows]
            return
        header = ["horizon", "pheromone.threshold", "seed"] + [
            f.name for f in dataclasses.fields(Metrics)]
        # floats at 6 significant digits, None as an empty cell
        table = [[format(v, ".6g") if isinstance(v, float) else "" if v is None else str(v)
                  for v in (row[k] for k in header)] for row in rows]
        assert list(csv.reader(io.StringIO(text))) == [header] + table


class TestReplayErrors:
    """A log that cannot be read or parsed exits 1 with one `error:` line
    naming the file and, for a bad line, the line's number."""

    GOOD = "step=0 kind=Inject pid=0 node=0 src=0 dst=1 klass=Data attack=-\n"

    def replay(self, path):
        return cli.main(["replay", "--log", str(path)])

    @pytest.mark.parametrize("bad, reason", [
        ("step=0 kind=Bogus pid=1", "malformed line or unknown event kind"),
        ("step=0 kind=Step pid=1 pid=2", "repeated field key"),
        ("step=0 kind=Step pid", "field token without '='"),
        ("0 kind=Step", "malformed step token"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, bad, reason):
        path = tmp_path / "bad.log"
        path.write_text(self.GOOD + "\n" + bad + "\n" + self.GOOD, encoding="utf-8")
        assert self.replay(path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: {reason}") and err.count("\n") == 1

    def test_line_number_of_the_first_bad_line(self, tmp_path, capsys):
        path = tmp_path / "bad.log"
        bad = "step=2 kind=Nope\n"
        path.write_text(self.GOOD * 4 + bad + self.GOOD + bad, encoding="utf-8")
        assert self.replay(path) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:5: ")

    def test_directory(self, tmp_path, capsys):
        assert self.replay(tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err and err.count("\n") == 1

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.log"
        assert self.replay(path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1

    def test_good_log(self, tmp_path, capsys):
        path = tmp_path / "good.log"
        path.write_text(self.GOOD + "\nstep=0 kind=Step\n", encoding="utf-8")
        assert self.replay(path) == 0
        assert capsys.readouterr().err == ""


class TestNotUtf8:
    """A scenario, grid or log holding the byte 0xff exits 1 with one
    `error:` line naming the file."""

    @pytest.mark.parametrize("command, bad", [
        ("validate", "scenario"),
        ("run", "scenario"),
        ("sweep", "scenario"),
        ("sweep", "grid"),
        ("replay", "log"),
    ])
    def test_byte_0xff(self, tmp_path, capsys, command, bad):
        files = {"scenario": scenario_file(tmp_path),
                 "grid": str(tmp_path / "grid.json"), "log": str(tmp_path / "run.log")}
        (tmp_path / "grid.json").write_text(json.dumps({"horizon": [1]}), encoding="utf-8")
        (tmp_path / "run.log").write_text(TestReplayErrors.GOOD, encoding="utf-8")
        files[bad] = str(tmp_path / f"bad.{bad}")
        with open(files[bad], "wb") as fh:
            fh.write(b'{"horizon": 5}\n' if bad != "log" else TestReplayErrors.GOOD.encode())
            fh.write(b"\xff\xfe\n")
        argv = {"validate": ["validate", "--scenario", files["scenario"]],
                "run": ["run", "--scenario", files["scenario"], "--seed", "1", "--steps", "1"],
                "sweep": ["sweep", "--scenario", files["scenario"], "--grid", files["grid"],
                          "--seeds", "1", "--out", str(tmp_path / "out")],
                "replay": ["replay", "--log", files["log"]]}[command]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[bad]}: not UTF-8 text") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


# Runs `immunet run --check` and `replay` in a fresh interpreter, then prints
# the exit codes and the top-level names of every module loaded.
STDLIB_ONLY_RUN = """
import json, sys
from immunet.cli import main
scenario, out = sys.argv[1:]
codes = [main(["run", "--scenario", scenario, "--seed", "1", "--steps", "120",
               "--out", out, "--check"]),
         main(["replay", "--log", out + "/scenario-seed1.log"])]
print(json.dumps({"codes": codes, "modules": sorted({m.split(".")[0] for m in sys.modules})}))
"""


class TestStdlibOnly:

    def test_run_and_replay_load_only_the_standard_library(self, tmp_path):
        """The runtime has no dependencies. `-S` skips site, whose `.pth`
        files may import third-party modules before the program starts."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        scenario = scenario_file(tmp_path, name="scenario")
        done = subprocess.run([sys.executable, "-S", "-c", STDLIB_ONLY_RUN, scenario,
                               str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, check=True)
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["codes"] == [0, 0]
        allowed = set(sys.stdlib_module_names) | {"immunet", "__main__"}
        assert set(report["modules"]) - allowed == set()
