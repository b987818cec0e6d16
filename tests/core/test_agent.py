"""Tests for distributed inference (per-node agents)."""

import pickle

import numpy as np
import pytest

from repro.core.agent import DistributedCoordinator, NodeAgent
from repro.core.observations import ObservationAdapter
from repro.eval.scenarios import base_scenario
from repro.rl.policy import ActorCriticPolicy
from repro.sim.simulator import Simulator
from repro.topology import line_network

from tests.conftest import make_flow_specs, make_simple_catalog, make_simulator


def setup():
    net = line_network(3, node_capacity=10.0, link_capacity=10.0)
    catalog = make_simple_catalog()
    adapter = ObservationAdapter(net, catalog)
    policy = ActorCriticPolicy(adapter.size, net.degree + 1, hidden=(8,), rng=0)
    return net, catalog, adapter, policy


def _agent_actions(coordinator, observations):
    """Every agent's actions on the same observation batch, through the
    policy the agent itself holds."""
    return {
        node: [agent.policy.act_single(o) for o in observations]
        for node, agent in coordinator.agents.items()
    }


class TestNodeAgent:
    def test_acts_only_for_its_node(self):
        net, catalog, adapter, policy = setup()
        agent = NodeAgent("v2", policy, adapter)
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        decision = sim.next_decision()  # at v1
        with pytest.raises(ValueError, match="asked to act"):
            agent.act(decision, sim)

    def test_counts_decisions(self):
        net, catalog, adapter, policy = setup()
        agent = NodeAgent("v1", policy, adapter)
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        decision = sim.next_decision()
        action = agent.act(decision, sim)
        assert 0 <= action <= net.degree
        assert agent.decisions_taken == 1


class TestDistributedCoordinator:
    def test_one_agent_per_node(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        assert set(coordinator.agents) == set(net.node_names)
        # Using one agent moves no other agent's counter.
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        coordinator.agents["v1"].act(sim.next_decision(), sim)
        assert coordinator.decision_counts() == {"v1": 1, "v2": 0, "v3": 0}

    def test_deployment_is_decoupled_from_the_source_policy(self):
        """Each node decides from the network *as deployed* (Fig. 4b):
        later in-place changes to the trainer's weights reach no agent."""
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        obs = np.random.default_rng(3).normal(size=(12, adapter.size))
        before = _agent_actions(coordinator, obs)
        reference = [policy.act_single(o) for o in obs]
        assert all(actions == reference for actions in before.values())
        for weight in policy.actor.parameters + policy.critic.parameters:
            weight += 1.0
        assert [policy.act_single(o) for o in obs] != reference
        assert _agent_actions(coordinator, obs) == before

    def test_deployed_weights_are_read_only(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        deployed = coordinator.policy
        assert all(a.policy is deployed for a in coordinator.agents.values())
        for weight in deployed.actor.parameters + deployed.critic.parameters:
            with pytest.raises(ValueError, match="read-only"):
                weight[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                weight -= 0.1
        # The source stays trainable, and so does a clone of the snapshot.
        policy.actor.parameters[0][0, 0] = 1.0
        deployed.clone().actor.parameters[0][0, 0] = 1.0

    def test_deployment_clones_once_whatever_the_node_count(self, monkeypatch):
        _, catalog, _, policy = setup()
        big = line_network(24, node_capacity=10.0, link_capacity=10.0)
        calls = []
        original = ActorCriticPolicy.clone

        def counting_clone(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(ActorCriticPolicy, "clone", counting_clone)
        coordinator = DistributedCoordinator(big, catalog, policy)
        assert len(coordinator.agents) == 24
        assert calls == [policy]

    def test_pickle_ships_one_weight_set_and_reproduces_actions(self):
        """Pool tasks ship ``coordinator.fresh`` by pickle: the payload must
        not grow with the node count, and the far side must decide alike."""
        net = line_network(24, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog()
        adapter = ObservationAdapter(net, catalog)
        policy = ActorCriticPolicy(adapter.size, net.degree + 1, rng=0)
        obs = np.random.default_rng(4).normal(size=(6, adapter.size))
        coordinator = DistributedCoordinator(net, catalog, policy)
        payload = pickle.dumps(coordinator)
        assert len(payload) < 2 * len(pickle.dumps(policy))
        restored = pickle.loads(payload)
        assert _agent_actions(restored, obs) == _agent_actions(coordinator, obs)
        # What the pool actually calls on the far side.
        rebuilt = pickle.loads(pickle.dumps(coordinator.fresh))()
        assert _agent_actions(rebuilt, obs) == _agent_actions(
            coordinator.fresh(), obs
        )

    def test_f32_agents_share_one_cast_and_workspace(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy, dtype="f32")
        inferences = {id(a._inference) for a in coordinator.agents.values()}
        assert len(inferences) == 1
        shared = coordinator.agents["v1"]._inference
        assert shared._weights[0].dtype == np.float32
        reference = policy.actor_inference(dtype=np.float32)
        sims = [
            make_simulator(net, catalog, make_flow_specs([1.0, 5.0]))
            for _ in range(2)
        ]
        decision = sims[0].next_decision()
        obs = adapter.build(decision, sims[0]).copy()
        expected = int(np.argmax(reference.forward(obs[None, :])[0]))
        assert coordinator(sims[1].next_decision(), sims[1]) == expected
        # The observation went straight into the workspace's input row.
        assert np.array_equal(shared.input_rows(1)[0], obs.astype(np.float32))

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_agent_act_equals_act_single_on_a_built_observation(self, dtype):
        """A full Abilene episode: building the observation in place in
        the shared workspace and deciding there equals deciding from a
        private copy of the observation."""
        scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=1000.0)
        net, catalog = scenario.network, scenario.catalog
        adapter = ObservationAdapter(net, catalog)
        policy = ActorCriticPolicy(adapter.size, net.degree + 1, rng=3)
        coordinator = DistributedCoordinator(net, catalog, policy, dtype=dtype)
        # Same weights, its own workspaces.
        twin = coordinator.fresh()
        reference = (
            None if dtype == "f64" else twin.policy.actor_inference(np.float32)
        )
        seen = []

        def checked(decision, sim):
            action = coordinator(decision, sim)
            expected = twin.policy.act_single(
                adapter.build(decision, sim), inference=reference
            )
            assert action == expected
            seen.append(action)
            return action

        sim = Simulator(
            net,
            catalog,
            scenario.traffic_factory(np.random.default_rng(11)),
            scenario.sim_config,
        )
        metrics = sim.run(checked)
        assert metrics.decisions == len(seen) > 200
        assert len(set(seen)) > 1
        assert sum(coordinator.decision_counts().values()) == len(seen)

    def test_pickled_coordinator_leaves_the_workspace_behind(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        coordinator(sim.next_decision(), sim)
        assert coordinator.policy._workspace is not None
        restored = pickle.loads(pickle.dumps(coordinator))
        assert restored.policy._workspace is None
        assert all(a.policy is restored.policy for a in restored.agents.values())

    def test_usable_as_simulator_policy(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 11.0]), horizon=50.0)
        metrics = sim.run(coordinator)
        assert metrics.flows_generated == 2
        counts = coordinator.decision_counts()
        assert sum(counts.values()) == metrics.decisions

    def test_obs_size_mismatch_rejected(self):
        net, catalog, adapter, _ = setup()
        wrong = ActorCriticPolicy(99, net.degree + 1, hidden=(8,), rng=0)
        with pytest.raises(ValueError, match="observations of size"):
            DistributedCoordinator(net, catalog, wrong)

    def test_fresh_resets_counters_keeps_weights(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        sim.run(coordinator)
        assert sum(coordinator.decision_counts().values()) > 0
        fresh = coordinator.fresh()
        assert sum(fresh.decision_counts().values()) == 0
        obs = np.zeros((1, adapter.size))
        original = next(iter(coordinator.agents.values())).policy
        copied = next(iter(fresh.agents.values())).policy
        assert np.allclose(original.actor.forward(obs), copied.actor.forward(obs))

    def test_deterministic_agents_repeatable(self):
        net, catalog, adapter, policy = setup()
        a = DistributedCoordinator(net, catalog, policy)
        b = DistributedCoordinator(net, catalog, policy)
        sim_a = make_simulator(net, catalog, make_flow_specs([1.0, 5.0]))
        sim_b = make_simulator(net, catalog, make_flow_specs([1.0, 5.0]))
        assert sim_a.run(a).success_ratio == sim_b.run(b).success_ratio

    def test_deployable_on_same_degree_network(self):
        """The trained policy transfers to any network with equal Δ_G —
        the generalization mechanism of Fig. 8."""
        net, catalog, adapter, policy = setup()
        bigger = line_network(10, node_capacity=10.0, link_capacity=10.0)
        coordinator = DistributedCoordinator(bigger, catalog, policy)
        sim = make_simulator(
            bigger, catalog,
            make_flow_specs([1.0], ingress="v1", egress="v10", deadline=200.0),
        )
        metrics = sim.run(coordinator)
        assert metrics.flows_generated == 1
