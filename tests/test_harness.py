import copy

import pytest

from immunet import harness
from immunet.engine import run
from immunet.metrics import Metrics

from conftest import worm_config


class TestSweep:

    def test_rows_equal_independent_runs(self):
        config = worm_config(horizon=60)
        thresholds = [1.0, 6.0]
        points = harness.grid_points(config, {"pheromone.threshold": thresholds})
        rows = harness.run_points(points, [6])
        assert config.pheromone.threshold == 3.0  # the sweep works on copies
        expected = []
        for threshold in thresholds:
            point = copy.deepcopy(config)
            point.pheromone.threshold = threshold
            metrics = run(point, 6).metrics.as_dict()
            expected.append({"pheromone.threshold": threshold, "seed": 6, **metrics})
        assert rows == expected
        assert expected[0] != {**expected[1], "pheromone.threshold": 1.0}  # the knob matters

    def test_unknown_report_format_is_refused(self, tmp_path):
        path = tmp_path / "report.xml"
        with pytest.raises(ValueError, match="^unknown report format 'xml'$"):
            harness.emit_report(Metrics(), "xml", path)
        assert not path.exists()
