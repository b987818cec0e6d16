"""Tests for the POMDP observation adapter (Sec. IV-B1).

Each part is checked against the paper's formula on hand-built scenarios
where every quantity is computable by hand.
"""

import numpy as np
import pytest

from repro.core.observations import ObservationAdapter
from repro.topology import Link, Network, Node
from tests.core.reference_observation import build_parts

from tests.conftest import make_flow_specs, make_simple_catalog, make_simulator
from tests.topology.networks import line_network, star_network


def setup_line(num_components=1, node_capacity=4.0, link_capacity=8.0,
               deadline=100.0, arrival=1.0):
    net = line_network(3, node_capacity=node_capacity,
                       link_capacity=link_capacity, link_delay=1.0)
    catalog = make_simple_catalog(num_components=num_components,
                                  processing_delay=2.0)
    sim = make_simulator(net, catalog, make_flow_specs([arrival], deadline=deadline))
    adapter = ObservationAdapter(net, catalog)
    decision = sim.next_decision()
    return net, catalog, sim, adapter, decision


class TestSizesAndSpaces:
    def test_observation_size_formula(self):
        net = line_network(3)
        adapter = ObservationAdapter(net, make_simple_catalog())
        assert adapter.size == 4 * net.degree + 4

    def test_size_invariant_to_node_count(self):
        """The paper's key property: observation size depends on Δ_G only."""
        catalog = make_simple_catalog()
        small = ObservationAdapter(line_network(3), catalog)
        large = ObservationAdapter(line_network(50), catalog)
        assert small.size == large.size

    def test_part_slices_cover_vector(self):
        net = line_network(3)
        adapter = ObservationAdapter(net, make_simple_catalog())
        slices = adapter.part_slices
        covered = sorted(
            i for s in slices.values() for i in range(s.start, s.stop)
        )
        assert covered == list(range(adapter.size))


class TestFlowAttributes:
    def test_initial_flow(self):
        net, catalog, sim, adapter, decision = setup_line(num_components=2)
        parts = build_parts(adapter, decision, sim)
        assert parts.flow_attributes[0] == 0.0  # no progress yet
        assert parts.flow_attributes[1] == pytest.approx(1.0)  # full deadline

    def test_progress_after_component(self):
        net, catalog, sim, adapter, decision = setup_line(num_components=2)
        sim.apply_action(0)
        decision = sim.next_decision()
        parts = build_parts(adapter, decision, sim)
        assert parts.flow_attributes[0] == pytest.approx(0.5)

    def test_deadline_decreases(self):
        net, catalog, sim, adapter, decision = setup_line(deadline=10.0)
        sim.apply_action(0)  # processing takes 2
        decision = sim.next_decision()
        parts = build_parts(adapter, decision, sim)
        assert parts.flow_attributes[1] == pytest.approx(0.8)


class TestLinkUtilization:
    def test_free_link_observation(self):
        net, catalog, sim, adapter, decision = setup_line(link_capacity=8.0)
        parts = build_parts(adapter, decision, sim)
        # v1 has one neighbor (v2): (free 8 - rate 1)/max_cap 8 = 0.875.
        assert parts.link_utilization[0] == pytest.approx(7.0 / 8.0)
        # Padded to degree 2 with -1.
        assert parts.link_utilization[1] == -1.0

    def test_negative_when_link_cannot_carry(self):
        net = line_network(3, node_capacity=4.0, link_capacity=1.0)
        catalog = make_simple_catalog()
        # Two flows: the first occupies the link, the second observes it full.
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 1.2]))
        adapter = ObservationAdapter(net, catalog)
        sim.next_decision()
        sim.apply_action(1)  # forward flow 1 over the only link
        decision = sim.next_decision()
        parts = build_parts(adapter, decision, sim)
        assert parts.link_utilization[0] < 0.0


class TestNodeUtilization:
    def test_self_first_then_neighbors(self):
        net, catalog, sim, adapter, decision = setup_line(node_capacity=4.0)
        parts = build_parts(adapter, decision, sim)
        # All nodes free: (4 - 1)/4 = 0.75 for self and the one neighbor.
        assert parts.node_utilization[0] == pytest.approx(0.75)
        assert parts.node_utilization[1] == pytest.approx(0.75)
        assert parts.node_utilization[2] == -1.0  # dummy

    def test_normalised_by_network_max(self):
        """Division is by max capacity over *all* nodes (Sec. IV-B1c)."""
        net = Network(
            "t",
            [Node("a", 2.0), Node("b", 2.0), Node("huge", 10.0)],
            [Link("a", "b"), Link("b", "huge")],
            ingress=["a"], egress=["huge"],
        )
        catalog = make_simple_catalog()
        sim = make_simulator(net, catalog, make_flow_specs([1.0], ingress="a", egress="huge"))
        adapter = ObservationAdapter(net, catalog)
        decision = sim.next_decision()
        parts = build_parts(adapter, decision, sim)
        # At node a: (2 - 1)/10 = 0.1.
        assert parts.node_utilization[0] == pytest.approx(0.1)

    def test_zero_demand_when_fully_processed(self):
        net, catalog, sim, adapter, decision = setup_line(node_capacity=4.0)
        sim.apply_action(0)
        decision = sim.next_decision()
        assert decision.flow.fully_processed
        parts = build_parts(adapter, decision, sim)
        # Demand 0; node a still holds the finished flow's resource (tail
        # has not left: release at done+duration), so free = 3 -> 0.75.
        assert parts.node_utilization[0] == pytest.approx(0.75)

    def test_negative_when_node_full(self):
        net = line_network(3, node_capacity=1.0, link_capacity=8.0)
        catalog = make_simple_catalog(processing_delay=5.0)
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 1.5]))
        adapter = ObservationAdapter(net, catalog)
        sim.next_decision()
        sim.apply_action(0)  # fills v1 entirely
        decision = sim.next_decision()
        parts = build_parts(adapter, decision, sim)
        assert parts.node_utilization[0] == pytest.approx(-1.0)


class TestDelaysToEgress:
    def test_positive_margin(self):
        net, catalog, sim, adapter, decision = setup_line(deadline=100.0)
        parts = build_parts(adapter, decision, sim)
        # Via v2: link 1 + shortest v2->v3 1 = 2; (100 - 2)/100 = 0.98.
        assert parts.delays_to_egress[0] == pytest.approx(0.98)
        assert parts.delays_to_egress[1] == -1.0

    def test_clamped_at_minus_one_when_hopeless(self):
        net, catalog, sim, adapter, decision = setup_line(deadline=100.0)
        # Burn the deadline by keeping the flow (process first).
        sim.apply_action(0)
        decision = sim.next_decision()
        flow = decision.flow
        # Manufacture a nearly expired flow observation.
        parts = build_parts(adapter, decision, sim)
        assert np.all(parts.delays_to_egress >= -1.0)

    def test_direction_signal(self):
        """A neighbor towards the egress scores higher than one away."""
        names = ["v1", "v2", "v3", "v4"]
        net = Network(
            "line-4",
            [Node(n, capacity=4.0) for n in names],
            [Link(u, v, capacity=8.0) for u, v in zip(names, names[1:])],
            ingress=["v2"],
            egress=["v4"],
        )
        catalog = make_simple_catalog()
        sim = make_simulator(
            net, catalog,
            make_flow_specs([1.0], ingress="v2", egress="v4", deadline=50.0),
        )
        adapter = ObservationAdapter(net, catalog)
        decision = sim.next_decision()
        parts = build_parts(adapter, decision, sim)
        neighbors = net.neighbors("v2")  # [v1, v3]
        towards = parts.delays_to_egress[neighbors.index("v3")]
        away = parts.delays_to_egress[neighbors.index("v1")]
        assert towards > away


class TestAvailableInstances:
    def test_zero_before_placement_one_after(self):
        net = line_network(3, node_capacity=4.0, link_capacity=8.0)
        catalog = make_simple_catalog(processing_delay=3.0)
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 1.5]))
        adapter = ObservationAdapter(net, catalog)
        decision = sim.next_decision()
        parts = build_parts(adapter, decision, sim)
        assert parts.available_instances[0] == 0.0
        sim.apply_action(0)  # places instance of c1 at v1
        decision = sim.next_decision()  # second flow at v1
        parts = build_parts(adapter, decision, sim)
        assert parts.available_instances[0] == 1.0

    def test_neighbor_instances_visible(self):
        net = line_network(3, node_capacity=4.0, link_capacity=8.0)
        catalog = make_simple_catalog(processing_delay=3.0)
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 1.5]))
        adapter = ObservationAdapter(net, catalog)
        sim.next_decision()
        sim.apply_action(1)  # forward first flow to v2
        decision = sim.next_decision()
        if decision.node == "v1":
            # Second flow's decision came first; answer it by forwarding too.
            sim.apply_action(1)
            decision = sim.next_decision()
        assert decision.node == "v2"
        sim.apply_action(0)  # instance of c1 now at v2
        decision = sim.next_decision()
        if decision.node == "v1":
            parts = build_parts(adapter, decision, sim)
            # v1's neighbor list is [v2]; slot 1 (after self) is v2.
            assert parts.available_instances[1] == 1.0

    def test_always_zero_when_fully_processed(self):
        net, catalog, sim, adapter, decision = setup_line()
        sim.apply_action(0)
        decision = sim.next_decision()
        parts = build_parts(adapter, decision, sim)
        assert parts.available_instances[0] == 0.0


class TestRangesAndPadding:
    def test_all_values_in_unit_range(self):
        net, catalog, sim, adapter, decision = setup_line()
        obs = adapter.build(decision, sim)
        assert np.all(obs >= -1.0 - 1e-9)
        assert np.all(obs <= 1.0 + 1e-9)

    def test_hub_node_unpadded_leaf_padded(self):
        net = star_network(4, node_capacity=4.0, link_capacity=8.0)
        catalog = make_simple_catalog()
        sim = make_simulator(
            net, catalog,
            make_flow_specs([1.0], ingress="v2", egress="v5"),
        )
        adapter = ObservationAdapter(net, catalog)
        decision = sim.next_decision()  # at leaf v2 (1 neighbor, degree 4)
        parts = build_parts(adapter, decision, sim)
        assert np.sum(parts.link_utilization == -1.0) == 3
        assert np.sum(parts.delays_to_egress == -1.0) == 3


class TestBuildOutputModes:
    """`out=` semantics of build(): drivers write observations into rows
    they own; without `out=` the result is a fresh, caller-owned array."""

    def test_default_returns_independent_copy(self):
        net, catalog, sim, adapter, decision = setup_line()
        first = adapter.build(decision, sim)
        snapshot = first.copy()
        second = adapter.build(decision, sim)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, snapshot)
        assert np.array_equal(first, second)
        first[:] = -99.0
        assert not np.array_equal(first, adapter.build(decision, sim))

    def test_out_writes_into_caller_row(self):
        net, catalog, sim, adapter, decision = setup_line()
        expected = adapter.build(decision, sim)
        matrix = np.full((3, adapter.size), np.nan)
        returned = adapter.build(decision, sim, out=matrix[1])
        assert returned.base is matrix
        assert np.array_equal(matrix[1], expected)
        assert np.all(np.isnan(matrix[0])) and np.all(np.isnan(matrix[2]))

    def test_out_shape_checked(self):
        net, catalog, sim, adapter, decision = setup_line()
        with pytest.raises(ValueError):
            adapter.build(decision, sim, out=np.zeros(adapter.size + 1))

    def test_vectorized_delay_part_bitwise_equal(self):
        """The cached per-(node, egress) delay arrays must reproduce the
        scalar formula bit for bit, including the -1 clamps."""
        net, catalog, sim, adapter, decision = setup_line(deadline=7.0)
        fresh = ObservationAdapter(net, catalog)
        expected = build_parts(fresh, decision, sim).delays_to_egress
        sl = adapter.part_slices["delays"]
        assert np.array_equal(adapter.build(decision, sim)[sl], expected)
