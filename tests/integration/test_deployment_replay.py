"""A deployed learned coordinator replays its training episode flow for flow.

Both learned algorithms train on an env over the stepped simulator and
deploy as a ``Simulator.run`` callback.  Played greedily with one network
on one traffic realisation, the env episode and the deployed run must end
with the same flow accounting: the deployment decides what training
optimised, nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.central_drl import (
    CentralDRLConfig,
    CentralDRLPolicy,
    CentralizedCoordinationEnv,
)
from repro.core.agent import DistributedCoordinator
from repro.core.env import ServiceCoordinationEnv
from repro.eval.scenarios import base_scenario
from repro.rl.policy import ActorCriticPolicy
from repro.sim.simulator import Simulator
from repro.topology import line_network

from tests.conftest import make_env_config, make_simple_catalog


def _sparse_line():
    # One flow every 60 time units against 25-unit intervals: whole
    # intervals pass without a decision.
    return make_env_config(
        line_network(3, node_capacity=10.0, link_capacity=10.0),
        make_simple_catalog(num_components=2, processing_delay=2.0),
        horizon=300.0,
        interval=60.0,
    )


def _abilene(pattern, num_ingress, horizon):
    return lambda: base_scenario(
        pattern=pattern, num_ingress=num_ingress, horizon=horizon
    )


#: case -> (scenario builder, env seed, update interval I).
CASES = {
    "abilene-mmpp3-I50": (_abilene("mmpp", 3, 600.0), 0, 50.0),
    "abilene-poisson2-I25": (_abilene("poisson", 2, 500.0), 1, 25.0),
    "line3-sparse-I25": (_sparse_line, 2, 25.0),
}


def _network(size, num_actions, seed):
    # A sharpened random actor: greedy targets follow the observation, so
    # a deployment that builds other rows than training picks other nodes.
    policy = ActorCriticPolicy(size, num_actions, hidden=(16,), rng=seed)
    policy.actor.parameters[-1][...] *= 300.0
    return policy


def _accounting(metrics):
    return (
        metrics.flows_generated,
        metrics.flows_succeeded,
        metrics.flows_dropped,
        dict(metrics.drop_reasons),
        metrics.success_ratio,
    )


def _distributed(config, seed, interval):
    # Per-flow decisions: the case's update interval does not apply.
    env = ServiceCoordinationEnv(config, seed=seed)
    policy = _network(env.observation_size, env.num_actions, seed)
    episode = 1
    obs, done = env.reset_episode(episode), False
    while not done:
        obs, _, done, _ = env.step(policy.act_single(obs))
    trained = env.simulator.finalize()

    traffic = config.traffic_factory(env.episode_rng(episode))
    sim = Simulator(config.network, config.catalog, traffic, config.sim_config)
    deployed = sim.run(DistributedCoordinator(config.network, config.catalog, policy))
    return trained, deployed


def _central(config, seed, interval):
    central = CentralDRLConfig(update_interval=interval)
    env = CentralizedCoordinationEnv(config, central, seed=seed)
    policy = _network(env.observation_size, env.num_actions, seed)
    obs, done = env.reset(), False
    while not done:
        obs, _, done, _ = env.step(policy.act_single(obs))
    trained = env._sim.finalize()

    child = np.random.SeedSequence(seed).spawn(1)[0]
    traffic = config.traffic_factory(np.random.default_rng(child))
    sim = Simulator(config.network, config.catalog, traffic, config.sim_config)
    deployed = sim.run(CentralDRLPolicy(config.network, config.catalog, policy, central))
    return trained, deployed


@pytest.mark.parametrize("play", [_distributed, _central], ids=["distributed", "central"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_deployment_replays_the_training_episode(case, play):
    build, seed, interval = CASES[case]
    trained, deployed = play(build(), seed, interval)
    assert trained.flows_generated > 0
    assert _accounting(deployed) == _accounting(trained)
