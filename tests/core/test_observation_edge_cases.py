"""Observation adapter behaviour in degenerate situations."""


import numpy as np

from repro.core.observations import ObservationAdapter
from repro.topology import Link, Network, Node
from tests.core.reference_observation import build_parts

from tests.conftest import make_flow_specs, make_simple_catalog, make_simulator
from tests.topology.networks import line_network


class TestUnreachableEgress:
    def test_delay_hint_is_minus_one_when_disconnected(self):
        """Forwarding toward an unreachable egress is hopeless; D_{v,f}
        must say so with -1 rather than NaN/inf."""
        net = Network(
            "split",
            [Node("v1", 5.0), Node("v2", 5.0), Node("island", 5.0)],
            [Link("v1", "v2", capacity=5.0)],
            ingress=["v1"], egress=["island"],
        )
        catalog = make_simple_catalog()
        sim = make_simulator(
            net, catalog, make_flow_specs([1.0], egress="island")
        )
        adapter = ObservationAdapter(net, catalog)
        decision = sim.next_decision()
        parts = build_parts(adapter, decision, sim)
        # v1's one real neighbor (v2) cannot reach the island.
        assert parts.delays_to_egress[0] == -1.0
        assert np.all(np.isfinite(parts.concatenate()))


class TestNearDeadline:
    def test_observation_stays_bounded_at_expiry_edge(self):
        net = line_network(3, node_capacity=5.0, link_capacity=5.0)
        catalog = make_simple_catalog(processing_delay=4.0)
        sim = make_simulator(net, catalog, make_flow_specs([1.0], deadline=4.5))
        adapter = ObservationAdapter(net, catalog)
        decision = sim.next_decision()
        sim.apply_action(0)  # processing eats nearly the whole deadline
        decision = sim.next_decision()
        if decision is not None:
            obs = adapter.build(decision, sim)
            assert np.all(obs >= -1.0 - 1e-9)
            assert np.all(obs <= 1.0 + 1e-9)


class TestTinyCapacities:
    def test_zero_capacity_network_normalisation(self):
        """All-zero node capacities must not divide by zero."""
        net = Network(
            "zero",
            [Node("v1", 0.0), Node("v2", 0.0)],
            [Link("v1", "v2", capacity=1.0)],
            ingress=["v1"], egress=["v2"],
        )
        catalog = make_simple_catalog()
        sim = make_simulator(net, catalog, make_flow_specs([1.0], egress="v2"))
        adapter = ObservationAdapter(net, catalog)
        decision = sim.next_decision()
        obs = adapter.build(decision, sim)
        assert np.all(np.isfinite(obs))
        # Node utilisation: free(0) - demand(1) normalised -> clipped to -1.
        assert build_parts(adapter, decision, sim).node_utilization[0] == -1.0


class TestObservationPartOrdering:
    def test_concatenation_matches_part_slices(self):
        net = line_network(3, node_capacity=5.0, link_capacity=5.0)
        catalog = make_simple_catalog()
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        adapter = ObservationAdapter(net, catalog)
        decision = sim.next_decision()
        parts = build_parts(adapter, decision, sim)
        obs = adapter.build(decision, sim)
        slices = adapter.part_slices
        assert np.array_equal(obs[slices["flow"]], parts.flow_attributes)
        assert np.array_equal(obs[slices["links"]], parts.link_utilization)
        assert np.array_equal(obs[slices["nodes"]], parts.node_utilization)
        assert np.array_equal(obs[slices["delays"]], parts.delays_to_egress)
        assert np.array_equal(obs[slices["instances"]], parts.available_instances)
