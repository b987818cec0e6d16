"""Tests for the SP greedy baseline."""

import pytest

from repro.baselines.shortest_path import ShortestPathPolicy
from repro.topology import Link, Network, Node

from tests.conftest import (
    make_flow_specs,
    make_simple_catalog,
    make_simulator,
    record_peaks,
)
from tests.topology.networks import line_network


class TestShortestPathPolicy:
    def test_processes_on_path_when_capacity(self):
        net = line_network(3, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog(num_components=2, processing_delay=1.0)
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        metrics = sim.run(ShortestPathPolicy(net, catalog))
        assert metrics.flows_succeeded == 1
        # Both components processed at v1 (first node with capacity).
        assert metrics.avg_hops == 2

    def test_spills_processing_downstream(self):
        # v1 has no usable capacity; processing must happen at v2.
        net = Network(
            "t",
            [Node("v1", 0.5), Node("v2", 5.0), Node("v3", 5.0)],
            [Link("v1", "v2"), Link("v2", "v3")],
            ingress=["v1"], egress=["v3"],
        )
        catalog = make_simple_catalog(processing_delay=1.0)
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        peaks = record_peaks(sim.state)
        metrics = sim.run(ShortestPathPolicy(net, catalog))
        assert metrics.flows_succeeded == 1
        assert peaks.node["v2"] > 0.0
        assert peaks.node["v1"] == 0.0

    def test_drops_when_no_capacity_anywhere_on_path(self):
        net = Network(
            "t",
            [Node("v1", 0.5), Node("v2", 0.5), Node("v3", 0.5)],
            [Link("v1", "v2"), Link("v2", "v3")],
            ingress=["v1"], egress=["v3"],
        )
        catalog = make_simple_catalog()
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        metrics = sim.run(ShortestPathPolicy(net, catalog))
        assert metrics.flows_dropped == 1
        assert metrics.drop_reasons == {"node_capacity": 1}

    def test_never_deviates_from_shortest_path(self):
        """SP on a diamond always takes the delay-shortest branch, so its
        completed-flow delay is pinned to the shortest path."""
        nodes = [Node(n, 10.0) for n in ("s", "fast", "slow", "t")]
        links = [
            Link("s", "fast", delay=1.0, capacity=10.0),
            Link("fast", "t", delay=1.0, capacity=10.0),
            Link("s", "slow", delay=5.0, capacity=10.0),
            Link("slow", "t", delay=5.0, capacity=10.0),
        ]
        net = Network("diamond", nodes, links, ingress=["s"], egress=["t"])
        catalog = make_simple_catalog(processing_delay=1.0)
        flows = make_flow_specs([1.0, 3.0, 5.0], ingress="s", egress="t")
        sim = make_simulator(net, catalog, flows)
        peaks = record_peaks(sim.state)
        metrics = sim.run(ShortestPathPolicy(net, catalog))
        assert metrics.flows_succeeded == 3
        assert peaks.link[("s", "slow")] == 0.0
        assert metrics.avg_end_to_end_delay == pytest.approx(3.0)  # 1 + 1 + 1

    def test_stateless_across_flows(self):
        net = line_network(3, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog()
        policy = ShortestPathPolicy(net, catalog)
        sim = make_simulator(net, catalog, make_flow_specs([1.0, 20.0, 40.0]))
        metrics = sim.run(policy)
        assert metrics.flows_succeeded == 3
