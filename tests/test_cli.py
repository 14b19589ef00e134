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

    @pytest.mark.parametrize("entry", ["foo", "999"])
    def test_string_worm_entry(self, tmp_path, capsys, command, entry):
        path = scenario_file(tmp_path, "worm", entry=entry)
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: worm.entry:") and err.count("\n") == 1

    @pytest.mark.parametrize("nodes, extra", [
        (6, [[2, 2]]),
        (6, [[1, 0]]),
        (7, []),
        (6, [[0, 2, 0]]),
        (6, [[0]]),
    ], ids=["self-loop", "duplicate", "disconnected", "bandwidth-0", "one-node-link"])
    def test_explicit_topology_that_does_not_build(self, tmp_path, capsys, command, nodes, extra):
        links = [[i, i + 1] for i in range(5)] + extra
        path = scenario_file(tmp_path, "topology", kind="explicit", nodes=nodes, links=links)
        assert invoke(command, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: topology.links:") and err.count("\n") == 1

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
        pytest.param("{", "{grid}: line 1", id="{-line 1"),
    ])
    def test_malformed_point(self, tmp_path, capsys, grid, where):
        assert self.sweep(tmp_path, grid) == 1
        err = capsys.readouterr().err
        where = where.format(grid=tmp_path / "grid.json")
        assert err.startswith(f"error: {where}:") and err.count("\n") == 1

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
        rows = harness.sweep(baseline_scenario(), grid, [1, 2])
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
