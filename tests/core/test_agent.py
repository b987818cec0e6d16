"""Tests for distributed inference (one agent per node, one snapshot)."""

import pickle
from functools import partial

import numpy as np
import pytest

from repro.core.agent import DistributedCoordinator
from repro.core.observations import ObservationAdapter
from repro.eval.scenarios import base_scenario
from repro.rl.policy import ActorCriticPolicy
from repro.sim.simulator import Simulator

from tests.conftest import make_flow_specs, make_simple_catalog, make_simulator
from tests.topology.networks import line_network


def setup():
    net = line_network(3, node_capacity=10.0, link_capacity=10.0)
    catalog = make_simple_catalog()
    adapter = ObservationAdapter(net, catalog)
    policy = ActorCriticPolicy(adapter.size, net.degree + 1, hidden=(8,), rng=0)
    return net, catalog, adapter, policy


def _deployed_actions(coordinator, observations):
    """The deployed snapshot's actions on an observation batch."""
    return [coordinator.policy.act_single(o) for o in observations]


class TestDistributedCoordinator:
    def test_one_agent_per_node(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        assert coordinator.decision_counts() == {"v1": 0, "v2": 0, "v3": 0}
        # A decision at one node moves no other node's counter.
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        coordinator(sim.next_decision(), sim)  # at v1
        assert coordinator.decision_counts() == {"v1": 1, "v2": 0, "v3": 0}

    def test_counts_decisions(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 5.0]))
        actions = [coordinator(sim.next_decision(), sim)]
        sim.apply_action(actions[0])
        actions.append(coordinator(sim.next_decision(), sim))
        assert all(0 <= action <= net.degree for action in actions)
        assert sum(coordinator.decision_counts().values()) == 2

    def test_acts_only_for_its_nodes(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        bigger = line_network(4, node_capacity=10.0, link_capacity=10.0)
        sim = make_simulator(
            bigger, catalog, make_flow_specs([1.0], ingress="v4", egress="v1")
        )
        with pytest.raises(KeyError, match="v4"):
            coordinator(sim.next_decision(), sim)
        assert sum(coordinator.decision_counts().values()) == 0

    def test_deployment_is_decoupled_from_the_source_policy(self):
        """Each node decides from the network *as deployed* (Fig. 4b):
        later in-place changes to the trainer's weights reach no node."""
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        obs = np.random.default_rng(3).normal(size=(12, adapter.size))
        before = _deployed_actions(coordinator, obs)
        assert before == [policy.act_single(o) for o in obs]
        for weight in policy.actor.parameters + policy.critic.parameters:
            weight += 1.0
        assert [policy.act_single(o) for o in obs] != before
        assert _deployed_actions(coordinator, obs) == before

    def test_deployed_weights_are_read_only(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        deployed = coordinator.policy
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
        assert len(coordinator.decision_counts()) == 24
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
        assert len(payload) < 1.1 * len(pickle.dumps(policy))
        restored = pickle.loads(payload)
        assert _deployed_actions(restored, obs) == _deployed_actions(coordinator, obs)
        # What the pool actually calls on the far side: the CLI's factory.
        factory = partial(DistributedCoordinator, net, catalog, policy)
        rebuilt = pickle.loads(pickle.dumps(factory))()
        assert _deployed_actions(rebuilt, obs) == _deployed_actions(factory(), obs)

    def test_f32_agents_share_one_cast_and_workspace(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        shared = coordinator.policy.certified_workspace
        assert shared is not None
        assert shared._weights[0].dtype == np.float32
        # A writable policy has no cast: it could go stale.
        assert policy.certified_workspace is None
        sims = [
            make_simulator(net, catalog, make_flow_specs([1.0, 5.0]))
            for _ in range(2)
        ]
        decision = sims[0].next_decision()
        obs = adapter.build(decision, sims[0]).copy()
        assert coordinator(sims[1].next_decision(), sims[1]) == policy.act_single(obs)
        # The observation's floats went straight into the float32
        # forward's input row; a certified decision builds no float64 row
        # (the float64 workspace is made on its first use, a decline).
        assert np.array_equal(shared.input_rows(1)[0], obs.astype(np.float32))
        assert shared.fallbacks == 0
        assert coordinator.policy._workspace is None

    def test_agent_act_equals_act_single_on_a_built_observation(self):
        """A full Abilene episode: deciding on the observation's floats
        in the shared snapshot (certified float32, else float64) equals
        the exact float64 decision on a private copy."""
        scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=1000.0)
        net, catalog = scenario.network, scenario.catalog
        adapter = ObservationAdapter(net, catalog)
        policy = ActorCriticPolicy(adapter.size, net.degree + 1, rng=3)
        coordinator = DistributedCoordinator(net, catalog, policy)
        seen = []

        def checked(decision, sim):
            action = coordinator(decision, sim)
            assert action == policy.act_single(adapter.build(decision, sim))
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
        assert coordinator.policy.certified_workspace.fallbacks < len(seen)

    def test_pickled_coordinator_leaves_the_workspace_behind(self):
        net, catalog, adapter, policy = setup()
        coordinator = DistributedCoordinator(net, catalog, policy)
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        coordinator(sim.next_decision(), sim)
        assert coordinator.policy.workspace is not None  # made on first use
        restored = pickle.loads(pickle.dumps(coordinator))
        assert restored.policy._workspace is None
        assert restored.decision_counts() == coordinator.decision_counts()

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
        fresh = DistributedCoordinator(net, catalog, coordinator.policy)
        assert sum(fresh.decision_counts().values()) == 0
        obs = np.zeros((1, adapter.size))
        assert fresh.policy is not coordinator.policy
        assert np.array_equal(
            coordinator.policy.actor.forward(obs), fresh.policy.actor.forward(obs)
        )

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
