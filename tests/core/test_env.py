"""Tests for the per-flow coordination environment."""

import pytest

from repro.core.env import ServiceCoordinationEnv

from tests.conftest import make_env_config, make_simple_catalog
from tests.topology.networks import line_network


def make_env(horizon=100.0, interval=10.0, **net_kwargs) -> ServiceCoordinationEnv:
    defaults = dict(node_capacity=10.0, link_capacity=10.0, link_delay=1.0)
    defaults.update(net_kwargs)
    net = line_network(3, **defaults)
    catalog = make_simple_catalog(processing_delay=2.0)
    return ServiceCoordinationEnv(
        make_env_config(net, catalog, horizon=horizon, interval=interval), seed=0
    )


def run_episode(env, policy_fn):
    obs = env.reset()
    total = 0.0
    steps = 0
    done = False
    info = {}
    while not done:
        obs, reward, done, info = env.step(policy_fn(env))
        total += reward
        steps += 1
        assert steps < 20000, "episode did not terminate"
    return total, steps, info


def sp_like(env):
    """Process locally if needed; otherwise hop toward the egress."""
    decision = env.current_decision
    flow, node = decision.flow, decision.node
    net = env.config.network
    if not flow.fully_processed:
        return 0
    nxt = net.next_hop(node, flow.egress)
    return net.neighbors(node).index(nxt) + 1


class TestEnvProtocol:
    def test_spaces(self):
        env = make_env()
        assert env.observation_size == 4 * env.config.network.degree + 4
        assert env.num_actions == env.config.network.degree + 1

    def test_reset_returns_first_observation(self):
        env = make_env()
        obs = env.reset()
        assert obs.shape == (env.observation_size,)
        assert env.current_decision is not None
        assert env.current_decision.node == "v1"

    def test_step_before_reset_rejected(self):
        env = make_env()
        with pytest.raises(RuntimeError, match="reset"):
            env.step(0)

    def test_step_after_done_rejected(self):
        env = make_env(horizon=15.0)  # single flow
        run_episode(env, sp_like)
        with pytest.raises(RuntimeError, match="finished"):
            env.step(0)

    def test_episode_terminates_with_info(self):
        env = make_env(horizon=45.0)
        total, steps, info = run_episode(env, sp_like)
        assert info["flows_generated"] == 4
        assert info["flows_succeeded"] == 4
        assert info["success_ratio"] == 1.0
        assert info["avg_end_to_end_delay"] == pytest.approx(4.0)

    def test_successful_episode_reward_positive(self):
        env = make_env(horizon=45.0)
        total, steps, info = run_episode(env, sp_like)
        # 4 flows x (+10 success + 1 instance bonus - 2 link penalties of
        # 1/2 each) = 4 x 10 = 40.
        assert total == pytest.approx(4 * (10.0 + 1.0 - 2 * 0.5))

    def test_bad_policy_reward_negative(self):
        env = make_env(horizon=45.0)
        # Always take the dummy action (2 at v1 which has 1 neighbor).
        obs = env.reset()
        total = 0.0
        done = False
        while not done:
            action = 2 if env.current_decision.node in ("v1", "v3") else 1
            obs, reward, done, info = env.step(action)
            total += reward
        assert info["success_ratio"] == 0.0
        assert total == pytest.approx(-10.0 * info["flows_generated"])

    def test_distinct_episodes_distinct_traffic(self):
        """Each reset must draw a fresh traffic realisation (Poisson-like
        independence across episodes) while remaining seed-reproducible."""
        from repro.traffic import PoissonArrival, FlowTemplate, TrafficSource
        from repro.core.env import CoordinationEnvConfig
        from repro.sim import SimulationConfig

        net = line_network(3, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog()

        def traffic_factory(rng):
            procs = {"v1": PoissonArrival(10.0, rng=rng.integers(2**31))}
            tmpl = FlowTemplate(service="svc", egress="v3")
            return TrafficSource(procs, tmpl).flows_until(100.0)

        config = CoordinationEnvConfig(
            net, catalog, traffic_factory, SimulationConfig(horizon=100.0)
        )
        env_a = ServiceCoordinationEnv(config, seed=1)
        env_a.reset()
        first_time = env_a.current_decision.time
        env_a.reset()
        second_time = env_a.current_decision.time
        assert first_time != second_time  # fresh traffic per episode

        env_b = ServiceCoordinationEnv(config, seed=1)
        env_b.reset()
        assert env_b.current_decision.time == first_time  # seed-reproducible


class TestRewardAccounting:
    def test_rewards_cover_all_outcomes_once(self):
        """Total env reward equals the reward of all simulator outcomes —
        nothing double-counted, nothing lost."""
        env = make_env(horizon=95.0)
        total, _, info = run_episode(env, sp_like)
        flows = info["flows_generated"]
        expected_per_flow = 10.0 + 1.0 - 2 * (1.0 / 2.0)
        assert total == pytest.approx(flows * expected_per_flow)

    def test_simulator_accessible(self):
        env = make_env()
        env.reset()
        assert env.simulator.active_flow_count >= 1

    def test_simulator_before_reset_rejected(self):
        env = make_env()
        with pytest.raises(RuntimeError, match="reset"):
            _ = env.simulator
