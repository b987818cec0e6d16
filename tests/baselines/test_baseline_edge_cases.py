"""Additional behavioural tests for the baseline policies."""

import pytest

from repro.baselines.central_drl import CentralDRLConfig, CentralDRLPolicy, RuleExecutor
from repro.baselines.gcasp import GCASPPolicy
from repro.rl.policy import ActorCriticPolicy
from repro.topology import Link, Network, Node, line_network

from tests.conftest import make_flow_specs, make_simple_catalog, make_simulator


class TestGCASPLoopAvoidance:
    def test_does_not_bounce_back_when_alternative_exists(self):
        """After moving v1 -> v2, GCASP prefers progress over returning to
        v1 even if v1 ranks equal otherwise."""
        # v1 - v2 - v3 (egress), nothing processable at v1 or v2.
        net = Network(
            "line",
            [Node("v1", 0.1), Node("v2", 0.1), Node("v3", 5.0)],
            [Link("v1", "v2", capacity=5.0), Link("v2", "v3", capacity=5.0)],
            ingress=["v1"], egress=["v3"],
        )
        catalog = make_simple_catalog(processing_delay=1.0)
        sim = make_simulator(net, catalog, make_flow_specs([1.0], egress="v3"))
        policy = GCASPPolicy(net, catalog)
        decision = sim.next_decision()
        sim.apply_action(policy(decision, sim))  # v1 -> v2
        decision = sim.next_decision()
        assert decision.node == "v2"
        action = policy(decision, sim)
        # v2's neighbors are [v1, v3]: must pick v3 (action 2), not bounce.
        assert action == 2

    def test_completes_flow_end_to_end(self):
        net = line_network(4, node_capacity=2.0, link_capacity=2.0)
        catalog = make_simple_catalog(num_components=3, processing_delay=1.0)
        flows = make_flow_specs([1.0, 4.0], ingress="v1", egress="v4",
                                deadline=60.0)
        sim = make_simulator(net, catalog, flows)
        metrics = sim.run(GCASPPolicy(net, catalog))
        assert metrics.flows_succeeded == 2


class TestCentralStochasticRules:
    def make_parts(self):
        net = line_network(3, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog(processing_delay=1.0)
        policy_net = ActorCriticPolicy(2 * 3 + 1 + 1, 3, hidden=(8,), rng=0)
        return net, catalog, policy_net

    def test_deterministic_rules_install_targets(self):
        net, catalog, policy_net = self.make_parts()
        policy = CentralDRLPolicy(
            net, catalog, policy_net, CentralDRLConfig(update_interval=50.0)
        )
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        sim.run(policy)
        assert set(policy.executor.targets) == {"c1"}
        assert policy.executor.targets["c1"] in net.node_names
        assert len(policy.rule_update_seconds) >= 1

    def test_invalid_update_interval(self):
        with pytest.raises(ValueError):
            CentralDRLConfig(update_interval=0.0)


class TestRuleExecutorSpillMemory:
    def test_spilled_flow_processes_downstream_greedily(self):
        net = Network(
            "t",
            [Node("v1", 0.5), Node("v2", 5.0), Node("v3", 5.0)],
            [Link("v1", "v2", capacity=5.0), Link("v2", "v3", capacity=5.0)],
            ingress=["v1"], egress=["v3"],
        )
        catalog = make_simple_catalog(processing_delay=1.0)
        executor = RuleExecutor(net, catalog)
        executor.set_targets({"c1": "v1"})  # target cannot host anything
        sim = make_simulator(net, catalog, make_flow_specs([1.0], egress="v3"))
        metrics = sim.run(executor)
        assert metrics.flows_succeeded == 1
        assert sim.state.peak_node_load["v2"] > 0.0
