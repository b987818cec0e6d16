"""Edge-case behavioural tests for the simulator."""


from repro.services import Component, Service, ServiceCatalog
from repro.sim.metrics import DropReason
from repro.sim.simulator import ACTION_PROCESS_LOCALLY, OutcomeKind
from repro.topology import Link, Network, Node
from repro.traffic import FlowSpec

from tests.conftest import (
    link_load,
    make_flow_specs,
    make_simple_catalog,
    make_simulator,
)
from tests.topology.networks import line_network


class TestMultiService:
    def make_two_service_catalog(self):
        return ServiceCatalog([
            Service("short", [Component("s1", processing_delay=1.0)]),
            Service("long", [
                Component("l1", processing_delay=1.0),
                Component("l2", processing_delay=1.0),
            ]),
        ])

    def test_interleaved_services_share_the_substrate(self):
        net = line_network(3, node_capacity=10.0, link_capacity=10.0)
        catalog = self.make_two_service_catalog()
        flows = [
            FlowSpec(service="short", ingress="v1", egress="v3", arrival_time=1.0),
            FlowSpec(service="long", ingress="v1", egress="v3", arrival_time=2.0),
        ]
        # Short horizon: the run ends before the idle timeout removes the
        # instances, so the placement is still inspectable afterwards.
        sim = make_simulator(net, catalog, flows, horizon=30.0)

        def policy(decision, s):
            if not decision.flow.fully_processed:
                return ACTION_PROCESS_LOCALLY
            if decision.node == decision.flow.egress:
                return ACTION_PROCESS_LOCALLY
            nxt = net.next_hop(decision.node, decision.flow.egress)
            return net.neighbors(decision.node).index(nxt) + 1

        metrics = sim.run(policy)
        assert metrics.flows_succeeded == 2
        # Both services' instances were placed at v1.
        placed = {i.component for i in sim.state.placed_instances}
        assert {"s1", "l1", "l2"} <= placed

    def test_per_service_chain_lengths_in_outcomes(self):
        net = line_network(2, node_capacity=10.0, link_capacity=10.0)
        catalog = self.make_two_service_catalog()
        flows = [
            FlowSpec(service="long", ingress="v1", egress="v1", arrival_time=1.0),
        ]
        sim = make_simulator(net, catalog, flows)
        while (d := sim.next_decision()) is not None:
            sim.apply_action(ACTION_PROCESS_LOCALLY)
        traversals = [
            o for o in sim.drain_outcomes()
            if o.kind is OutcomeKind.INSTANCE_TRAVERSED
        ]
        assert len(traversals) == 2
        assert all(o.chain_length == 2 for o in traversals)


class TestDegenerateTopology:
    def test_ingress_equals_egress(self):
        net = line_network(2, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog(processing_delay=1.0)
        flows = make_flow_specs([1.0], ingress="v1", egress="v1")
        sim = make_simulator(net, catalog, flows)
        sim.next_decision()
        sim.apply_action(ACTION_PROCESS_LOCALLY)
        assert sim.next_decision() is None
        assert sim.finalize().flows_succeeded == 1

    def test_zero_capacity_node_cannot_process(self):
        net = Network(
            "z",
            [Node("v1", 0.0), Node("v2", 10.0)],
            [Link("v1", "v2", capacity=10.0)],
            ingress=["v1"], egress=["v2"],
        )
        catalog = make_simple_catalog()
        sim = make_simulator(net, catalog, make_flow_specs([1.0], egress="v2"))
        sim.next_decision()
        sim.apply_action(ACTION_PROCESS_LOCALLY)
        metrics = sim.finalize()
        assert metrics.drop_reasons == {DropReason.NODE_CAPACITY: 1}


class TestDropCleanup:
    def test_link_arrival_of_dropped_flow_is_ignored(self):
        """A flow that expires mid-link must not produce decisions at the
        far end."""
        net = line_network(3, node_capacity=10.0, link_capacity=10.0,
                           link_delay=10.0)
        catalog = make_simple_catalog()
        flows = make_flow_specs([1.0], deadline=5.0)  # expires mid-link
        sim = make_simulator(net, catalog, flows)
        sim.next_decision()
        sim.apply_action(1)  # forward; arrival would be at t=11 > deadline 6
        assert sim.next_decision() is None
        metrics = sim.finalize()
        assert metrics.drop_reasons == {DropReason.DEADLINE_EXPIRED: 1}
        assert metrics.decisions == 1

    def test_expiry_mid_link_frees_link_rate(self):
        net = line_network(3, node_capacity=10.0, link_capacity=1.0,
                           link_delay=10.0)
        catalog = make_simple_catalog()
        flows = make_flow_specs([1.0], deadline=5.0)
        sim = make_simulator(net, catalog, flows)
        sim.next_decision()
        sim.apply_action(1)
        assert sim.next_decision() is None
        assert link_load(sim.state, "v1", "v2") == 0.0

    def test_instance_busy_count_clean_after_expiry_during_processing(self):
        net = line_network(2, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog(processing_delay=100.0, idle_timeout=5.0)
        flows = make_flow_specs([1.0], ingress="v1", egress="v2", deadline=10.0)
        sim = make_simulator(net, catalog, flows, horizon=400.0)
        sim.next_decision()
        sim.apply_action(ACTION_PROCESS_LOCALLY)
        assert sim.next_decision() is None
        instance = sim.state.instance("v1", "c1")
        # Either already timed out and removed, or idle with zero busy flows.
        if instance is not None:
            assert instance.busy_flows == 0


class TestInstanceTimeoutRearming:
    def test_timeout_timer_restarts_after_each_use(self):
        net = line_network(2, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog(processing_delay=1.0, idle_timeout=10.0)
        # Second flow at t=8 re-uses the instance (idle since ~3), pushing
        # the removal beyond t=13.
        flows = make_flow_specs([1.0, 8.0], ingress="v1", egress="v1")
        sim = make_simulator(net, catalog, flows, horizon=100.0)
        while (d := sim.next_decision()) is not None:
            sim.apply_action(ACTION_PROCESS_LOCALLY)
        # Instance last idle at t = 8 + 1 + 1 = 10; removed at t = 20.
        metrics = sim.finalize()
        assert metrics.flows_succeeded == 2
        assert sim.state.instance("v1", "c1") is None


class TestTriangleRouting:
    def test_two_hop_detour_possible(self, triangle):
        catalog = make_simple_catalog(processing_delay=1.0)
        sim = make_simulator(triangle, catalog, make_flow_specs([1.0]))
        # v1 -> v2 -> v3 (detour around the direct v1-v3 link).
        sim.next_decision()
        sim.apply_action(1)  # to v2
        d = sim.next_decision()
        assert d.node == "v2"
        sim.apply_action(ACTION_PROCESS_LOCALLY)
        d = sim.next_decision()
        sim.apply_action(2)  # v2's neighbors [v1, v3] -> v3
        assert sim.next_decision() is None
        metrics = sim.finalize()
        assert metrics.flows_succeeded == 1
        assert metrics.avg_hops == 2
