"""Edge-case behavioural tests for the simulator."""


from repro.faults import FaultKind, FaultScenarioConfig, FaultSpec
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


class TestLeftoverEvents:
    """A finished flow's queued events change nothing when they fire.

    Line v1 - v2 - v3, link delay 10, processing delay 10, flow duration 1:

    - t=1    A is processed at v1: PROCESSING_DONE@11, RELEASE_NODE@12.
    - t=2    B is forwarded from v1: LINK_ARRIVAL@12, RELEASE_LINK@13.
    - t=3    link v1-v2 fails under B's head: B dropped (FLOW_EXPIRY@22 left).
    - t=6    A's deadline expires while it is resident: A dropped.
    - t=6.5  C takes an action past v1's one neighbour: C dropped
             (FLOW_EXPIRY@36.5 left).

    Everything after t=6.5 up to the horizon belongs to a dropped flow, and
    the idle instance A left at v1 times out only at t=1006.
    """

    def play(self):
        net = line_network(3, node_capacity=10.0, link_capacity=10.0,
                           link_delay=10.0)
        catalog = make_simple_catalog(processing_delay=10.0, idle_timeout=1000.0)
        flows = [
            *make_flow_specs([1.0], deadline=5.0),
            *make_flow_specs([2.0], deadline=20.0),
            *make_flow_specs([6.5], deadline=30.0),
        ]
        link_failure = FaultSpec(FaultKind.LINK_FAILURE, ("v1", "v2"), 3.0, 1.0)
        sim = make_simulator(
            net, catalog, flows, horizon=100.0,
            faults=FaultScenarioConfig(specs=(link_failure,)),
        )
        for action in (ACTION_PROCESS_LOCALLY, 1, net.degree):
            sim.next_decision()
            sim.apply_action(action)
        return sim

    @staticmethod
    def snapshot(sim):
        instances = sorted(
            (i.node, i.component, i.busy_flows, i.idle_since)
            for i in sim.state.placed_instances
        )
        return sim.state.loads_vector.tolist(), instances, sim.finalize()

    def test_drops_free_everything_at_once(self):
        sim = self.play()
        loads, instances, metrics = self.snapshot(sim)
        assert sim.active_flow_count == 0
        assert loads == [0.0] * len(loads)
        assert instances == [("v1", "c1", 0, 6.0)]
        assert metrics.drop_reasons == {
            DropReason.NETWORK_FAILURE: 1,
            DropReason.DEADLINE_EXPIRED: 1,
            DropReason.INVALID_ACTION: 1,
        }
        drops = [
            (o.time, o.drop_reason) for o in sim.drain_outcomes()
            if o.kind is OutcomeKind.FLOW_DROP
        ]
        assert drops == [
            (3.0, DropReason.NETWORK_FAILURE),
            (6.0, DropReason.DEADLINE_EXPIRED),
            (6.5, DropReason.INVALID_ACTION),
        ]

    def test_leftover_events_change_nothing(self):
        sim = self.play()
        sim.drain_outcomes()
        before = self.snapshot(sim)
        # Runs through t=11, 12, 12, 13, 22 and 36.5 to the horizon.
        assert sim.next_decision() is None
        assert self.snapshot(sim) == before
        assert sim.drain_outcomes() == []
        assert sim.finalize().decisions == 3


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
