"""Tests for the centralized DRL baseline [10]."""

import numpy as np
import pytest

from repro.analysis.invariants import InvariantViolation
from repro.baselines import central_drl
from repro.baselines.central_drl import (
    CentralDRLPolicy,
    CentralizedCoordinationEnv,
    RuleExecutor,
    train_central_coordinator,
)
from repro.nn.mlp import MLPInference
from repro.rl.acktr import ACKTRConfig
from repro.rl.policy import ActorCriticPolicy

from tests.conftest import (
    make_env_config,
    make_flow_specs,
    make_simple_catalog,
    make_simulator,
    record_peaks,
)
from tests.topology.networks import line_network


@pytest.fixture
def interval(monkeypatch):
    """Sets the rule-refresh interval I for one test."""
    return lambda value: monkeypatch.setattr(central_drl, "UPDATE_INTERVAL", value)


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
        peaks = record_peaks(sim.state)
        metrics = sim.run(executor)
        assert metrics.flows_succeeded == 2
        assert peaks.node["v2"] > 0.0

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
        env = CentralizedCoordinationEnv(config, seed=0)
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

    def test_episode_runs_to_completion(self, interval):
        interval(25.0)
        net, catalog, config = setup(horizon=100.0)
        env = CentralizedCoordinationEnv(config, seed=0)
        env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done, info = env.step(0)  # always target v1
            steps += 1
            assert steps < 1000
        assert "success_ratio" in info
        assert info["flows_generated"] > 0

    def test_good_rules_succeed(self, interval):
        interval(25.0)
        net, catalog, config = setup(horizon=100.0)
        env = CentralizedCoordinationEnv(config, seed=0)
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

    def test_snapshot_is_delayed(self, interval):
        """The utilisation snapshot visible at refresh k reflects the end
        of interval k-1 (periodic monitoring delay)."""
        interval(15.0)
        net, catalog, config = setup(horizon=100.0)
        env = CentralizedCoordinationEnv(config, seed=0)
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
        policy = CentralDRLPolicy(net, catalog, policy_net)
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 60.0, 120.0]),
                             horizon=200.0)
        sim.run(policy)
        # Flows at t=1, 60, 120 with interval 50: three refreshes.
        assert len(policy.rule_update_seconds) == 3
        assert policy.mean_rule_update_seconds > 0.0

    def test_progress_is_the_next_boundary_over_the_sims_horizon(
        self, monkeypatch, interval
    ):
        """Each refresh feeds progress (B+I)/T, T read from the simulator;
        the interval [40, 60) passes without a decision and gets no
        refresh of its own."""
        interval(20.0)
        net, catalog, _ = setup()
        policy_net = ActorCriticPolicy(2 * 3 + 1 + 1, 3, hidden=(8,), rng=0)
        rows = []
        act_single = ActorCriticPolicy.act_single
        monkeypatch.setattr(
            ActorCriticPolicy,
            "act_single",
            lambda self, obs: rows.append(obs.copy()) or act_single(self, obs),
        )
        policy = CentralDRLPolicy(net, catalog, policy_net)
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
        fresh = CentralDRLPolicy(net, catalog, policy.policy)
        assert fresh.policy is not policy.policy
        assert fresh.policy.certified_workspace is not None
        for ours, theirs in zip(fresh.policy.actor.parameters, policy_net.actor.parameters):
            assert np.array_equal(ours, theirs)
        assert fresh.rule_update_seconds == []


def _sharpened(seed=0):
    # Logits far apart, so the certified float32 forward answers most rows.
    policy_net = ActorCriticPolicy(2 * 3 + 1 + 1, 3, hidden=(8,), rng=seed)
    policy_net.actor.parameters[-1][...] *= 300.0
    return policy_net


def _refresh_targets(policy, times=(1.0, 30.0, 60.0, 90.0)):
    """The component targets each refresh installs over one run."""
    net, catalog, _ = setup()
    targets = []
    set_targets = policy.executor.set_targets

    def recorded(rules):
        targets.append(dict(rules))
        set_targets(rules)

    policy.executor.set_targets = recorded
    sim = make_simulator(net, catalog, make_flow_specs(list(times)), horizon=100.0)
    sim.run(policy)
    return targets


class TestCentralDRLDeploysAFrozenSnapshot:
    @pytest.fixture(autouse=True)
    def _refresh_every_20(self, interval):
        interval(20.0)

    def _deploy(self, policy_net):
        net, catalog, _ = setup()
        return CentralDRLPolicy(net, catalog, policy_net)

    def test_later_writes_to_the_source_change_no_rule(self):
        policy_net = _sharpened()
        deployed = self._deploy(policy_net)
        reference = _refresh_targets(self._deploy(policy_net.clone()))
        policy_net.actor.parameters[-1][...] *= -1.0
        assert _refresh_targets(deployed) == reference
        assert _refresh_targets(self._deploy(policy_net)) != reference

    def test_deployed_weights_are_read_only_and_certified(self):
        deployed = self._deploy(_sharpened()).policy
        assert deployed.certified_workspace is not None
        for weight in deployed.actor.parameters + deployed.critic.parameters:
            with pytest.raises(ValueError, match="read-only"):
                weight[0, 0] = 1.0

    def test_sanitizer_catches_a_wrong_certified_answer(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        policy = self._deploy(_sharpened())
        honest = MLPInference.certified_argmax

        def off_by_one(workspace, x):
            action = honest(workspace, x)
            return action if action < 0 else (action + 1) % 3

        monkeypatch.setattr(MLPInference, "certified_argmax", off_by_one)
        with pytest.raises(InvariantViolation) as info:
            _refresh_targets(policy)
        context = info.value.context
        assert context["certified"] == (context["exact"] + 1) % 3
        assert context["margin"] < 0 < context["delta"]

    @pytest.mark.parametrize("sanitize", [False, True], ids=["off", "on"])
    def test_float64_runs_only_where_needed(self, sanitize, monkeypatch):
        """Sanitizer off: only the declined rows reach the float64
        forward.  On: every row does (certified ones re-decided)."""
        if sanitize:
            monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        else:
            monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        policy = self._deploy(_sharpened())
        calls = []
        exact = ActorCriticPolicy.logits_single
        monkeypatch.setattr(
            ActorCriticPolicy,
            "logits_single",
            lambda self, obs: calls.append(1) or exact(self, obs),
        )
        targets = _refresh_targets(policy)
        declined = policy.policy.certified_workspace.fallbacks
        decisions = len(targets) * len(policy.component_names)
        assert declined < decisions
        assert len(calls) == (decisions if sanitize else declined)


class TestTrainCentral:
    def test_training_pipeline_runs(self, interval):
        interval(25.0)
        net, catalog, config = setup(horizon=100.0)
        policy, multi = train_central_coordinator(
            config,
            ACKTRConfig(n_steps=8, n_envs=2),
            seeds=(0,),
            updates_per_seed=3,
        )
        assert isinstance(policy, CentralDRLPolicy)
        assert len(multi.results) == 1
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        metrics = sim.run(policy)
        assert metrics.flows_generated == 1
