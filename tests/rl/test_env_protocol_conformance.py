"""Protocol conformance: every environment in the repo satisfies the Env
protocol the RL stack trains against, with consistent spaces."""

import numpy as np
import pytest

from repro.baselines.central_drl import CentralizedCoordinationEnv
from repro.core.env import ServiceCoordinationEnv

from tests.conftest import make_env_config, make_simple_catalog
from tests.topology.networks import line_network


def env_instances():
    net = line_network(3, node_capacity=10.0, link_capacity=10.0)
    catalog = make_simple_catalog(processing_delay=1.0)
    config = make_env_config(net, catalog, horizon=100.0)
    yield "coordination", ServiceCoordinationEnv(config, seed=0)
    yield "centralized", CentralizedCoordinationEnv(config, seed=0)


@pytest.mark.parametrize(
    "name,env", list(env_instances()), ids=lambda x: x if isinstance(x, str) else ""
)
class TestEnvProtocol:
    def test_spaces_declared(self, name, env):
        assert env.observation_size >= 1
        assert env.num_actions >= 2

    def test_reset_step_contract(self, name, env):
        obs = env.reset()
        assert isinstance(obs, np.ndarray)
        assert obs.shape == (env.observation_size,)
        result = env.step(0)
        assert len(result) == 4
        next_obs, reward, done, info = result
        assert next_obs.shape == (env.observation_size,)
        assert isinstance(float(reward), float)
        assert isinstance(bool(done), bool)
        assert isinstance(info, dict)

    def test_episode_reaches_terminal_with_info(self, name, env):
        env.reset()
        done = False
        steps = 0
        info = {}
        while not done:
            _, _, done, info = env.step(0)
            steps += 1
            assert steps < 50000
        assert "success_ratio" in info

    def test_observations_finite_throughout(self, name, env):
        obs = env.reset()
        done = False
        while not done:
            assert np.all(np.isfinite(obs))
            obs, _, done, _ = env.step(0)
