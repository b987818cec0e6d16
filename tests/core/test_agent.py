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
    policy and rng the agent itself holds."""
    return {
        node: [
            agent.policy.act_single(
                o, rng=agent.rng, deterministic=agent.deterministic
            )
            for o in observations
        ]
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

    def test_agents_keep_independent_runtime_state(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(
            net, catalog, policy, deterministic=False, seed=5
        )
        agents = list(coordinator.agents.values())
        assert len({id(a.rng) for a in agents}) == len(agents)
        draws = [a.rng.integers(1 << 62) for a in agents]
        assert len(set(draws)) == len(agents)
        # Using one agent moves neither another's stream nor its counter.
        twin = DistributedCoordinator(
            net, catalog, policy, deterministic=False, seed=5
        )
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        twin.agents["v1"].act(sim.next_decision(), sim)
        assert twin.decision_counts() == {"v1": 1, "v2": 0, "v3": 0}
        assert twin.agents["v2"].rng.integers(1 << 62) == draws[1]

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
        for deterministic in (True, False):
            coordinator = DistributedCoordinator(
                net, catalog, policy, deterministic=deterministic, seed=9
            )
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
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_agent_act_equals_act_single_on_a_built_observation(
        self, dtype, deterministic
    ):
        """A full Abilene episode: building the observation in place in
        the shared workspace and deciding there equals deciding from a
        private copy of the observation — per agent, per rng stream."""
        scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=1000.0)
        net, catalog = scenario.network, scenario.catalog
        adapter = ObservationAdapter(net, catalog)
        policy = ActorCriticPolicy(adapter.size, net.degree + 1, rng=3)
        coordinator = DistributedCoordinator(
            net, catalog, policy, deterministic=deterministic, seed=4, dtype=dtype
        )
        # Same weights, same per-node streams, its own workspaces.
        twin = coordinator.fresh()
        reference = (
            None if dtype == "f64" else twin.policy.actor_inference(np.float32)
        )
        seen = []

        def checked(decision, sim):
            action = coordinator(decision, sim)
            expected = twin.policy.act_single(
                adapter.build(decision, sim),
                rng=twin.agents[decision.node].rng,
                deterministic=deterministic,
                inference=reference,
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

    def test_fresh_preserves_seed_for_stochastic_agents(self):
        """Regression: fresh() used to rebuild with the default seed=0, so
        a stochastic coordinator changed every per-agent rng stream."""
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(
            net, catalog, policy, deterministic=False, seed=7
        )
        fresh = coordinator.fresh()
        assert fresh.seed == 7
        rng = np.random.default_rng(11)
        obs = rng.normal(size=(20, adapter.size))
        for node in net.node_names:
            original = coordinator.agents[node]
            rebuilt = fresh.agents[node]
            assert not rebuilt.deterministic
            actions_a = [
                original.policy.act_single(
                    o, rng=original.rng, deterministic=False
                )
                for o in obs
            ]
            actions_b = [
                rebuilt.policy.act_single(
                    o, rng=rebuilt.rng, deterministic=False
                )
                for o in obs
            ]
            assert actions_a == actions_b

    def test_deterministic_agents_repeatable(self):
        net, catalog, adapter, policy = setup()
        a = DistributedCoordinator(net, catalog, policy, deterministic=True)
        b = DistributedCoordinator(net, catalog, policy, deterministic=True)
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
