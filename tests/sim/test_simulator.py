"""Behavioural tests for the flow-level simulator.

Most tests run hand-computable scenarios on tiny networks and assert the
exact lifecycle: which decisions occur, when flows finish, what delays
accumulate, what gets dropped why, and which outcomes are emitted.
"""

import math

import pytest

from repro.sim.metrics import DropReason
from repro.sim.simulator import ACTION_PROCESS_LOCALLY, OutcomeKind
from repro.sim.config import SimulationConfig
from repro.traffic import FlowSpec

from tests.conftest import make_flow_specs, make_simple_catalog, make_simulator
from tests.topology.networks import line_network


def process_then_forward_policy(network, catalog):
    """Process the needed component locally, then hop along shortest path."""

    def policy(decision, sim):
        flow, node = decision.flow, decision.node
        if not flow.fully_processed:
            return ACTION_PROCESS_LOCALLY
        if node == flow.egress:
            return ACTION_PROCESS_LOCALLY
        nxt = network.next_hop(node, flow.egress)
        return network.neighbors(node).index(nxt) + 1

    return policy


class TestBasicLifecycle:
    def test_single_flow_succeeds(self, line3):
        catalog = make_simple_catalog(processing_delay=2.0)
        sim = make_simulator(line3, catalog, make_flow_specs([5.0]))
        metrics = sim.run(process_then_forward_policy(line3, catalog))
        assert metrics.flows_generated == 1
        assert metrics.flows_succeeded == 1
        assert metrics.flows_dropped == 0
        assert metrics.success_ratio == 1.0
        # e2e = processing 2 + two 1-delay links = 4.
        assert metrics.avg_end_to_end_delay == pytest.approx(4.0)
        assert metrics.avg_hops == 2

    def test_multi_component_chain(self, line3):
        catalog = make_simple_catalog(num_components=3, processing_delay=2.0)
        sim = make_simulator(line3, catalog, make_flow_specs([5.0]))
        metrics = sim.run(process_then_forward_policy(line3, catalog))
        assert metrics.flows_succeeded == 1
        # 3 x 2ms processing + 2 hops.
        assert metrics.avg_end_to_end_delay == pytest.approx(8.0)

    def test_decision_points_expose_flow_state(self, line3):
        catalog = make_simple_catalog(processing_delay=2.0)
        sim = make_simulator(line3, catalog, make_flow_specs([5.0]))
        first = sim.next_decision()
        assert first.time == 5.0
        assert first.node == "v1"
        assert first.flow.component_index == 0
        sim.apply_action(ACTION_PROCESS_LOCALLY)
        second = sim.next_decision()
        assert second.time == pytest.approx(7.0)  # after processing
        assert second.flow.fully_processed

    def test_flow_processed_at_egress_succeeds_without_extra_decision(self):
        net = line_network(2, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog(processing_delay=1.0)
        flows = make_flow_specs([1.0], ingress="v1", egress="v2")
        sim = make_simulator(net, catalog, flows)
        # Forward unprocessed to v2, process there; completion = arrival at
        # egress fully processed, no further decision needed.
        decision = sim.next_decision()
        sim.apply_action(1)  # forward to v2
        decision = sim.next_decision()
        assert decision.node == "v2"
        sim.apply_action(ACTION_PROCESS_LOCALLY)
        assert sim.next_decision() is None
        metrics = sim.finalize()
        assert metrics.flows_succeeded == 1

    def test_generated_equals_succeeded_plus_dropped_plus_active(self, line3):
        catalog = make_simple_catalog()
        sim = make_simulator(line3, catalog, make_flow_specs([5.0, 10.0, 190.0]),
                             horizon=195.0)
        metrics = sim.run(process_then_forward_policy(line3, catalog))
        assert (
            metrics.flows_generated
            == metrics.flows_succeeded + metrics.flows_dropped + sim.active_flow_count
        )


class TestActionSemantics:
    def test_invalid_dummy_neighbor_drops(self, triangle, simple_catalog):
        # Triangle degree is 2; a line's end node has only 1 neighbor.
        net = line_network(3, node_capacity=10.0, link_capacity=10.0)
        sim = make_simulator(net, simple_catalog, make_flow_specs([1.0]))
        sim.next_decision()
        sim.apply_action(2)  # v1 has one neighbor; 2 is a dummy
        metrics = sim.finalize()
        assert metrics.drop_reasons == {DropReason.INVALID_ACTION: 1}

    def test_action_out_of_space_raises(self, line3, simple_catalog):
        sim = make_simulator(line3, simple_catalog, make_flow_specs([1.0]))
        sim.next_decision()
        with pytest.raises(ValueError, match="action space"):
            sim.apply_action(5)
        with pytest.raises(ValueError, match="action space"):
            sim.apply_action(-1)

    def test_forward_to_specific_neighbor(self, triangle, simple_catalog):
        # v1's neighbors sorted: [v2, v3]; action 2 goes directly to v3.
        sim = make_simulator(triangle, simple_catalog, make_flow_specs([1.0]))
        sim.next_decision()
        sim.apply_action(2)
        decision = sim.next_decision()
        assert decision.node == "v3"
        assert decision.flow.hops == 1

    def test_protocol_misuse_raises(self, line3, simple_catalog):
        sim = make_simulator(line3, simple_catalog, make_flow_specs([1.0]))
        with pytest.raises(RuntimeError, match="no pending decision"):
            sim.apply_action(0)
        sim.next_decision()
        with pytest.raises(RuntimeError, match="not resolved"):
            sim.next_decision()


class TestCapacityDrops:
    def test_node_capacity_drop(self):
        net = line_network(3, node_capacity=1.0, link_capacity=10.0)
        catalog = make_simple_catalog(processing_delay=5.0)
        # Two flows 1 time unit apart; both try to process at v1 (demand 1
        # each against capacity 1): the second must drop.
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 2.0]))
        sim.next_decision()
        sim.apply_action(0)
        sim.next_decision()
        sim.apply_action(0)
        sim.finalize()
        assert sim.metrics.drop_reasons == {DropReason.NODE_CAPACITY: 1}

    def test_link_capacity_drop(self):
        net = line_network(3, node_capacity=10.0, link_capacity=1.0)
        catalog = make_simple_catalog()
        # Two simultaneous forwards over a capacity-1 link (rate 1 each,
        # held for delay 1 + duration 1 = 2): second drops.
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 1.5]))
        sim.next_decision()
        sim.apply_action(1)
        sim.next_decision()
        sim.apply_action(1)
        sim.finalize()
        assert sim.metrics.drop_reasons == {DropReason.LINK_CAPACITY: 1}

    def test_link_frees_after_tail_leaves(self):
        net = line_network(3, node_capacity=10.0, link_capacity=1.0)
        catalog = make_simple_catalog()
        # Flows 3 time units apart: link (held 2 units) is free again.
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 4.0]))
        decision = sim.next_decision()
        while decision is not None:
            flow, node = decision.flow, decision.node
            if not flow.fully_processed and node == "v2":
                sim.apply_action(0)
            else:
                nxt = net.next_hop(node, flow.egress)
                sim.apply_action(net.neighbors(node).index(nxt) + 1)
            decision = sim.next_decision()
        metrics = sim.finalize()
        assert metrics.drop_reasons.get(DropReason.LINK_CAPACITY, 0) == 0


class TestDeadlines:
    def test_expiry_drops_flow(self, line3, simple_catalog):
        flows = make_flow_specs([1.0], deadline=5.0)
        sim = make_simulator(line3, simple_catalog, flows)
        decision = sim.next_decision()
        # Forward back and forth (never processing) until the flow expires.
        while decision is not None:
            sim.apply_action(1)
            decision = sim.next_decision()
        metrics = sim.finalize()
        assert metrics.drop_reasons == {DropReason.DEADLINE_EXPIRED: 1}

    def test_expiry_frees_node_resources(self):
        net = line_network(2, node_capacity=1.0, link_capacity=10.0)
        # Processing takes 50 >> deadline 10: the flow expires while being
        # processed and must free the node's compute.
        catalog = make_simple_catalog(processing_delay=50.0)
        flows = make_flow_specs([1.0], ingress="v1", egress="v2", deadline=10.0)
        sim = make_simulator(net, catalog, flows)
        sim.next_decision()
        sim.apply_action(0)
        assert sim.next_decision() is None  # expiry handled internally
        assert sim.state.node_load("v1") == 0.0
        assert sim.metrics.drop_reasons == {DropReason.DEADLINE_EXPIRED: 1}

    def test_success_within_deadline_exact_timing(self, line3):
        catalog = make_simple_catalog(processing_delay=2.0)
        flows = make_flow_specs([1.0], deadline=4.001)
        sim = make_simulator(line3, catalog, flows)
        metrics = sim.run(process_then_forward_policy(line3, catalog))
        assert metrics.flows_succeeded == 1


class TestKeepBehaviour:
    def test_keeping_processed_flow_requeries_later(self, line3, simple_catalog):
        sim = make_simulator(line3, simple_catalog, make_flow_specs([1.0]))
        sim.next_decision()
        sim.apply_action(0)  # process c1 at v1
        decision = sim.next_decision()
        assert decision.flow.fully_processed
        t_first = decision.time
        sim.apply_action(0)  # keep (not at egress)
        decision = sim.next_decision()
        assert decision.time == pytest.approx(t_first + 1.0)
        outcomes = sim.drain_outcomes()
        assert any(o.kind is OutcomeKind.FLOW_KEPT for o in outcomes)


class TestScalingAndPlacement:
    def test_startup_delay_applies_once(self):
        net = line_network(2, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog(processing_delay=2.0, startup_delay=3.0)
        flows = make_flow_specs([1.0, 2.0], ingress="v1", egress="v1")
        sim = make_simulator(net, catalog, flows)
        sim.next_decision()
        sim.apply_action(0)  # starts a new instance: ready at 1+3
        sim.next_decision()
        sim.apply_action(0)  # instance exists (still starting)
        # First flow: decision at 1, ready 4, done 6. Flow 2: arrives 2,
        # starts at max(2, ready 4)=4, done 6.
        decision = sim.next_decision()
        assert decision is None  # both complete at egress v1
        metrics = sim.finalize()
        assert metrics.flows_succeeded == 2
        assert metrics.avg_end_to_end_delay == pytest.approx((5.0 + 4.0) / 2)

    def test_instance_removed_after_idle_timeout(self):
        net = line_network(2, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog(processing_delay=1.0, idle_timeout=5.0)
        flows = make_flow_specs([1.0, 30.0], ingress="v1", egress="v1")
        sim = make_simulator(net, catalog, flows, horizon=100.0)
        sim.next_decision()
        sim.apply_action(0)
        # Second flow arrives at t=30; instance idle since ~3, removed ~8.
        decision = sim.next_decision()
        assert decision.time == 30.0
        assert sim.state.instance("v1", "c1") is None
        sim.apply_action(0)
        sim.next_decision()
        metrics = sim.finalize()
        assert metrics.flows_succeeded == 2

    def test_instance_not_removed_while_busy(self):
        net = line_network(2, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog(processing_delay=20.0, idle_timeout=5.0)
        flows = make_flow_specs([1.0], ingress="v1", egress="v1", deadline=100.0)
        sim = make_simulator(net, catalog, flows, horizon=50.0)
        sim.next_decision()
        sim.apply_action(0)
        sim.next_decision()
        assert sim.metrics.flows_succeeded == 1


class TestOutcomes:
    def test_outcome_stream_for_successful_flow(self, line3):
        catalog = make_simple_catalog(processing_delay=2.0)
        sim = make_simulator(line3, catalog, make_flow_specs([5.0]))
        sim.run(process_then_forward_policy(line3, catalog))
        kinds = [o.kind for o in sim.drain_outcomes()]
        assert kinds.count(OutcomeKind.INSTANCE_TRAVERSED) == 1
        assert kinds.count(OutcomeKind.LINK_TRAVERSED) == 2
        assert kinds.count(OutcomeKind.FLOW_SUCCESS) == 1
        assert OutcomeKind.FLOW_DROP not in kinds

    def test_outcome_payloads(self, line3):
        catalog = make_simple_catalog(num_components=2, processing_delay=1.0)
        sim = make_simulator(line3, catalog, make_flow_specs([5.0]))
        sim.run(process_then_forward_policy(line3, catalog))
        outcomes = sim.drain_outcomes()
        traversals = [o for o in outcomes if o.kind is OutcomeKind.INSTANCE_TRAVERSED]
        assert all(o.chain_length == 2 for o in traversals)
        links = [o for o in outcomes if o.kind is OutcomeKind.LINK_TRAVERSED]
        assert all(o.link_delay == 1.0 for o in links)

    def test_drain_clears_buffer(self, line3, simple_catalog):
        sim = make_simulator(line3, simple_catalog, make_flow_specs([5.0]))
        sim.run(process_then_forward_policy(line3, simple_catalog))
        assert sim.drain_outcomes()
        assert sim.drain_outcomes() == []


class TestValidationAndConfig:
    def test_unknown_service_rejected(self, line3, simple_catalog):
        flows = [FlowSpec(service="nope", ingress="v1", egress="v3")]
        sim = make_simulator(line3, simple_catalog, flows)
        with pytest.raises(KeyError):
            sim.next_decision()

    def test_unknown_ingress_rejected(self, line3, simple_catalog):
        flows = [FlowSpec(service="svc", ingress="zz", egress="v3")]
        sim = make_simulator(line3, simple_catalog, flows)
        with pytest.raises(ValueError, match="ingress"):
            sim.next_decision()

    def test_out_of_order_traffic_rejected(self, line3, simple_catalog):
        flows = make_flow_specs([10.0, 5.0])
        sim = make_simulator(line3, simple_catalog, flows)
        with pytest.raises(ValueError, match="out of order"):
            # The second injection is scheduled lazily while handling the
            # first one, which is when the ordering violation surfaces.
            while sim.next_decision() is not None:
                sim.apply_action(0)

    @pytest.mark.parametrize("arrival", [math.nan, -math.inf])
    def test_unordered_arrival_time_rejected(self, line3, simple_catalog, arrival):
        flows = make_flow_specs([10.0, 15.0])
        # Bypass FlowSpec validation, as a hand-rolled trace loader could.
        # NaN is neither before nor after 10.0; a ``<`` guard accepted it.
        object.__setattr__(flows[1], "arrival_time", arrival)
        sim = make_simulator(line3, simple_catalog, flows)
        with pytest.raises(ValueError, match="out of order"):
            while sim.next_decision() is not None:
                sim.apply_action(0)

    def test_infinite_arrival_time_is_in_order_and_never_injected(
        self, line3, simple_catalog
    ):
        flows = make_flow_specs([10.0, math.inf])
        sim = make_simulator(line3, simple_catalog, flows)
        metrics = sim.run(process_then_forward_policy(line3, simple_catalog))
        assert metrics.flows_generated == 1

    def test_horizon_cuts_late_flows(self, line3, simple_catalog):
        flows = make_flow_specs([5.0, 150.0])
        sim = make_simulator(line3, simple_catalog, flows, horizon=100.0)
        metrics = sim.run(process_then_forward_policy(line3, simple_catalog))
        assert metrics.flows_generated == 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimulationConfig(horizon=0.0)

    def test_run_times_decisions(self, line3, simple_catalog):
        sim = make_simulator(line3, simple_catalog, make_flow_specs([5.0]))
        sim.run(process_then_forward_policy(line3, simple_catalog),
                time_decisions=True)
        assert sim.mean_decision_seconds > 0.0
