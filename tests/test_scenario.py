from immunet.scenario import baseline_scenario, loads

from conftest import worm_config


class TestLoads:

    def test_bundled_scenario_round_trips_through_json(self):
        config = baseline_scenario()
        assert loads(config.to_json()).to_dict() == config.to_dict()

    def test_explicit_topology_round_trips_through_json(self):
        config = worm_config(horizon=50)
        assert loads(config.to_json()).to_dict() == config.to_dict()
