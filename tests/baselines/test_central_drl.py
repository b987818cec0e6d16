"""Tests for the centralized DRL baseline [10]."""

import numpy as np
import pytest

from repro.baselines.central_drl import (
    CentralDRLConfig,
    CentralDRLPolicy,
    CentralizedCoordinationEnv,
    RuleExecutor,
    train_central_coordinator,
)
from repro.rl.acktr import ACKTRConfig
from repro.rl.policy import ActorCriticPolicy
from repro.topology import line_network

from tests.conftest import (
    make_env_config,
    make_flow_specs,
    make_simple_catalog,
    make_simulator,
)


def setup(num_components=1, horizon=100.0):
    net = line_network(3, node_capacity=10.0, link_capacity=10.0)
    catalog = make_simple_catalog(num_components=num_components,
                                  processing_delay=2.0)
    config = make_env_config(net, catalog, horizon=horizon)
    return net, catalog, config


class TestRuleExecutor:
    def test_routes_toward_component_target(self):
        net, catalog, _ = setup()
        executor = RuleExecutor(net, catalog)
        executor.set_targets({"c1": "v2"})
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        decision = sim.next_decision()  # flow at v1, target v2
        action = executor(decision, sim)
        assert net.neighbors("v1")[action - 1] == "v2"

    def test_processes_at_target(self):
        net, catalog, _ = setup()
        executor = RuleExecutor(net, catalog)
        executor.set_targets({"c1": "v1"})
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        decision = sim.next_decision()
        assert executor(decision, sim) == 0

    def test_fully_processed_routes_to_egress(self):
        net, catalog, _ = setup()
        executor = RuleExecutor(net, catalog)
        executor.set_targets({"c1": "v1"})
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        metrics = sim.run(executor)
        assert metrics.flows_succeeded == 1

    def test_overflow_spills_toward_egress(self):
        """A full target node cannot be rescheduled within the interval;
        the flow limps toward the egress processing where possible."""
        from repro.topology import Link, Network, Node

        net = Network(
            "t",
            [Node("v1", 1.0), Node("v2", 10.0), Node("v3", 10.0)],
            [Link("v1", "v2", capacity=10.0), Link("v2", "v3", capacity=10.0)],
            ingress=["v1"], egress=["v3"],
        )
        catalog = make_simple_catalog(processing_delay=5.0)
        executor = RuleExecutor(net, catalog)
        executor.set_targets({"c1": "v1"})
        # Two overlapping flows: v1 (cap 1) can process only one.
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 2.0]))
        metrics = sim.run(executor)
        assert metrics.flows_succeeded == 2
        assert sim.state.peak_node_load["v2"] > 0.0

    def test_rules_must_cover_components(self):
        net, catalog, _ = setup(num_components=2)
        executor = RuleExecutor(net, catalog)
        with pytest.raises(ValueError, match="missing"):
            executor.set_targets({"c1": "v1"})
        with pytest.raises(ValueError, match="not in network"):
            executor.set_targets({"c1": "v1", "c2": "nope"})


class TestCentralizedEnv:
    def test_micro_step_structure(self):
        net, catalog, config = setup(num_components=2, horizon=200.0)
        env = CentralizedCoordinationEnv(config, CentralDRLConfig(50.0), seed=0)
        obs = env.reset()
        assert obs.shape == (env.observation_size,)
        assert env.observation_size == 2 * 3 + 2 + 1
        assert env.num_actions == 3
        # First micro-step: reward 0, not done (component 1 of 2).
        obs, reward, done, info = env.step(0)
        assert reward == 0.0 and not done
        # Second micro-step completes the interval: reward materialises.
        obs, reward, done, info = env.step(1)
        assert not done

    def test_episode_runs_to_completion(self):
        net, catalog, config = setup(horizon=100.0)
        env = CentralizedCoordinationEnv(config, CentralDRLConfig(25.0), seed=0)
        env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done, info = env.step(0)  # always target v1
            steps += 1
            assert steps < 1000
        assert "success_ratio" in info
        assert info["flows_generated"] > 0

    def test_good_rules_succeed(self):
        net, catalog, config = setup(horizon=100.0)
        env = CentralizedCoordinationEnv(config, CentralDRLConfig(25.0), seed=0)
        env.reset()
        done = False
        info = {}
        while not done:
            _, _, done, info = env.step(0)  # process everything at v1
        assert info["success_ratio"] == 1.0

    def test_invalid_action_rejected(self):
        net, catalog, config = setup()
        env = CentralizedCoordinationEnv(config, seed=0)
        env.reset()
        with pytest.raises(ValueError, match="index a node"):
            env.step(99)

    def test_snapshot_is_delayed(self):
        """The utilisation snapshot visible at refresh k reflects the end
        of interval k-1 (periodic monitoring delay)."""
        net, catalog, config = setup(horizon=100.0)
        env = CentralizedCoordinationEnv(config, CentralDRLConfig(15.0), seed=0)
        obs = env.reset()
        # Before any interval ran, the snapshot is all-zero.
        assert np.allclose(obs[3:6], 0.0)
        _, _, done, _ = env.step(0)
        # After interval 1 (flow processing at v1 in flight), the new
        # snapshot may show v1's utilisation — but never the future.
        obs2 = env._observation()
        assert obs2[3] >= 0.0


class TestCentralDRLPolicy:
    def test_refreshes_rules_periodically(self):
        net, catalog, config = setup(horizon=200.0)
        policy_net = ActorCriticPolicy(2 * 3 + 1 + 1, 3, hidden=(8,), rng=0)
        policy = CentralDRLPolicy(net, catalog, policy_net,
                                  CentralDRLConfig(update_interval=50.0))
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 60.0, 120.0]),
                             horizon=200.0)
        sim.run(policy)
        # Flows at t=1, 60, 120 with interval 50: three refreshes.
        assert len(policy.rule_update_seconds) == 3
        assert policy.mean_rule_update_seconds > 0.0

    def test_progress_is_the_next_boundary_over_the_sims_horizon(self, monkeypatch):
        """Each refresh feeds progress (B+I)/T, T read from the simulator;
        the interval [40, 60) passes without a decision and gets no
        refresh of its own."""
        net, catalog, _ = setup()
        policy_net = ActorCriticPolicy(2 * 3 + 1 + 1, 3, hidden=(8,), rng=0)
        rows = []
        act_single = policy_net.act_single
        monkeypatch.setattr(
            policy_net, "act_single", lambda obs: rows.append(obs.copy()) or act_single(obs)
        )
        policy = CentralDRLPolicy(net, catalog, policy_net,
                                  CentralDRLConfig(update_interval=20.0))
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 30.0, 60.0]),
                             horizon=100.0)
        sim.run(policy)
        assert [row[-1] for row in rows] == [0.2, 0.4, 0.8]

    def test_obs_size_mismatch_rejected(self):
        net, catalog, _ = setup()
        wrong = ActorCriticPolicy(99, 3, hidden=(8,), rng=0)
        with pytest.raises(ValueError, match="obs size"):
            CentralDRLPolicy(net, catalog, wrong)

    def test_fresh_shares_weights_resets_state(self):
        net, catalog, config = setup()
        policy_net = ActorCriticPolicy(2 * 3 + 1 + 1, 3, hidden=(8,), rng=0)
        policy = CentralDRLPolicy(net, catalog, policy_net)
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        sim.run(policy)
        fresh = policy.fresh()
        assert fresh.policy is policy.policy
        assert fresh.rule_update_seconds == []


class TestTrainCentral:
    def test_training_pipeline_runs(self):
        net, catalog, config = setup(horizon=100.0)
        policy, multi = train_central_coordinator(
            config,
            CentralDRLConfig(25.0),
            ACKTRConfig(n_steps=8, n_envs=2),
            seeds=(0,),
            updates_per_seed=3,
        )
        assert isinstance(policy, CentralDRLPolicy)
        assert len(multi.results) == 1
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        metrics = sim.run(policy)
        assert metrics.flows_generated == 1
