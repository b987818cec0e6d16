"""A deployed learned coordinator replays its training episode flow for flow.

Both learned algorithms train on an env over the stepped simulator and
deploy as a ``Simulator.run`` callback.  Played greedily with one network
on one traffic realisation, the env episode and the deployed run must end
with the same flow accounting: the deployment decides what training
optimised, nothing else.  The fault presets and trace traffic are
replayed too; there the distributed side plays the committed ACKTR
fixture, because a random actor drops every flow and would reach no
fault path.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.baselines import central_drl
from repro.baselines.central_drl import CentralDRLPolicy, CentralizedCoordinationEnv
from repro.core.agent import DistributedCoordinator
from repro.core.env import CoordinationEnvConfig, ServiceCoordinationEnv
from repro.eval.scenarios import base_scenario
from repro.rl.policy import ActorCriticPolicy
from repro.services import Component, Service, ServiceCatalog
from repro.sim import SimulationConfig
from repro.sim.simulator import Simulator
from repro.traffic import FlowTemplate, PoissonArrival, TrafficSource

from tests.conftest import make_env_config, make_simple_catalog
from tests.topology.networks import line_network


def _sparse_line():
    # One flow every 60 time units against 25-unit intervals: whole
    # intervals pass without a decision.
    return make_env_config(
        line_network(3, node_capacity=10.0, link_capacity=10.0),
        make_simple_catalog(num_components=2, processing_delay=2.0),
        horizon=300.0,
        interval=60.0,
    )


def _multi_service():
    # Two services share the line (the catalog of test_multi_service.py):
    # video flows ask for two components, iot flows for one at half load.
    catalog = ServiceCatalog([
        Service("video", [
            Component("vFW", processing_delay=2.0),
            Component("vCDN", processing_delay=2.0),
        ]),
        Service("iot", [
            Component("iAgg", processing_delay=1.0, resource_coefficient=0.5)
        ]),
    ])

    def traffic_factory(rng):
        processes = {
            "v1": PoissonArrival(6.0, rng=rng),
            "v2": PoissonArrival(6.0, rng=rng),
        }
        templates = {
            "v1": FlowTemplate(service="video", egress="v4", deadline=60.0),
            "v2": FlowTemplate(service="iot", egress="v4", deadline=40.0),
        }
        return TrafficSource(processes, templates).flows_until(400.0)

    return CoordinationEnvConfig(
        network=line_network(4, node_capacity=4.0, link_capacity=6.0),
        catalog=catalog,
        traffic_factory=traffic_factory,
        sim_config=SimulationConfig(horizon=400.0),
    )


def _abilene(pattern, num_ingress, horizon, faults=None):
    return lambda: base_scenario(
        pattern=pattern, num_ingress=num_ingress, horizon=horizon, faults=faults
    )


FIXTURE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "perf" / "fixtures" / "abilene_acktr.npz"
)


def _network(size, num_actions, seed):
    # A sharpened random actor: greedy targets follow the observation, so
    # a deployment that builds other rows than training picks other nodes.
    policy = ActorCriticPolicy(size, num_actions, hidden=(16,), rng=seed)
    policy.actor.parameters[-1][...] *= 300.0
    return policy


def _fixture(size, num_actions, seed):
    policy = ActorCriticPolicy.load(FIXTURE)
    assert (policy.obs_dim, policy.num_actions) == (size, num_actions)
    return policy


#: case -> (scenario builder, env seed, update interval I, distributed actor).
CASES = {
    "abilene-mmpp3-I50": (_abilene("mmpp", 3, 600.0), 0, 50.0, _network),
    "abilene-poisson2-I25": (_abilene("poisson", 2, 500.0), 1, 25.0, _network),
    "line3-sparse-I25": (_sparse_line, 2, 25.0, _network),
    # Env seed 2 is no use here: the distributed actor drops every flow
    # as an invalid action.
    "line4-multiservice-I25-seed0": (_multi_service, 0, 25.0, _network),
    "line4-multiservice-I25-seed1": (_multi_service, 1, 25.0, _network),
    "abilene-churn-mmpp3": (_abilene("mmpp", 3, 800.0, "churn"), 3, 50.0, _fixture),
    "abilene-links-poisson2": (_abilene("poisson", 2, 800.0, "links"), 3, 50.0, _fixture),
    "abilene-nodes-poisson2": (_abilene("poisson", 2, 800.0, "nodes"), 3, 50.0, _fixture),
    "abilene-trace2": (_abilene("trace", 2, 800.0), 3, 50.0, _fixture),
}


def _accounting(metrics):
    return (
        metrics.flows_generated,
        metrics.flows_succeeded,
        metrics.flows_dropped,
        dict(metrics.drop_reasons),
        metrics.success_ratio,
        metrics.phase_success,
    )


def _distributed(config, seed, actor):
    # Per-flow decisions: the case's update interval does not apply.
    env = ServiceCoordinationEnv(config, seed=seed)
    policy = actor(env.observation_size, env.num_actions, seed)
    episode = 1
    obs, done = env.reset_episode(episode), False
    while not done:
        obs, _, done, _ = env.step(policy.act_single(obs))
    trained = env.simulator.finalize()

    traffic = config.traffic_factory(env.episode_rng(episode))
    sim = Simulator(config.network, config.catalog, traffic, config.sim_config)
    deployed = sim.run(DistributedCoordinator(config.network, config.catalog, policy))
    return trained, deployed


def _central(config, seed, actor):
    # The central agent's observation is its own; it always plays the
    # sharpened random network.
    env = CentralizedCoordinationEnv(config, seed=seed)
    policy = _network(env.observation_size, env.num_actions, seed)
    obs, done = env.reset(), False
    while not done:
        obs, _, done, _ = env.step(policy.act_single(obs))
    trained = env._sim.finalize()

    child = np.random.SeedSequence(seed).spawn(1)[0]
    traffic = config.traffic_factory(np.random.default_rng(child))
    sim = Simulator(config.network, config.catalog, traffic, config.sim_config)
    deployed = sim.run(CentralDRLPolicy(config.network, config.catalog, policy))
    return trained, deployed


@pytest.mark.parametrize("play", [_distributed, _central], ids=["distributed", "central"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_deployment_replays_the_training_episode(case, play, monkeypatch):
    build, seed, interval, actor = CASES[case]
    # I is the paper's 50 everywhere but here: shorter intervals refresh
    # the rules more often within the short horizons.
    monkeypatch.setattr(central_drl, "UPDATE_INTERVAL", interval)
    config = build()
    trained, deployed = play(config, seed, actor)
    assert trained.flows_generated > 0
    if config.sim_config.faults is not None:
        assert trained.phase_success is not None
    assert _accounting(deployed) == _accounting(trained)
