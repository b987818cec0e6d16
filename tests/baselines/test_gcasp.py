"""Tests for the GCASP distributed heuristic."""


from repro.baselines.gcasp import GCASPPolicy
from repro.topology import Link, Network, Node

from tests.conftest import (
    make_flow_specs,
    make_simple_catalog,
    make_simulator,
    record_peaks,
)
from tests.topology.networks import line_network


def diamond(fast_capacity=10.0, node_caps=None):
    """s -(fast)- t and s -(slow)- t via distinct middle nodes."""
    caps = node_caps or {}
    nodes = [
        Node("s", caps.get("s", 10.0)),
        Node("fast", caps.get("fast", 10.0)),
        Node("slow", caps.get("slow", 10.0)),
        Node("t", caps.get("t", 10.0)),
    ]
    links = [
        Link("s", "fast", delay=1.0, capacity=fast_capacity),
        Link("fast", "t", delay=1.0, capacity=10.0),
        Link("s", "slow", delay=3.0, capacity=10.0),
        Link("slow", "t", delay=3.0, capacity=10.0),
    ]
    return Network("diamond", nodes, links, ingress=["s"], egress=["t"])


class TestGCASP:
    def test_processes_locally_when_possible(self):
        net = line_network(3, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog()
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        peaks = record_peaks(sim.state)
        metrics = sim.run(GCASPPolicy(net, catalog))
        assert metrics.flows_succeeded == 1
        assert peaks.node["v1"] > 0.0  # processed at ingress

    def test_prefers_shortest_path_when_clear(self):
        net = diamond()
        catalog = make_simple_catalog(processing_delay=1.0)
        sim = make_simulator(net, catalog,
                             make_flow_specs([1.0], ingress="s", egress="t"))
        peaks = record_peaks(sim.state)
        metrics = sim.run(GCASPPolicy(net, catalog))
        assert metrics.flows_succeeded == 1
        assert peaks.link[("s", "slow")] == 0.0

    def test_reroutes_around_full_link(self):
        """The defining GCASP behaviour: when the shortest path's link is
        saturated, flows dynamically take the longer path instead of
        dropping (unlike SP)."""
        net = diamond(fast_capacity=1.0)
        # Ingress s cannot process (tiny capacity) so flows must move.
        net = Network(
            "diamond",
            [Node("s", 0.1), Node("fast", 10.0), Node("slow", 10.0), Node("t", 10.0)],
            [
                Link("s", "fast", delay=1.0, capacity=1.0),
                Link("fast", "t", delay=1.0, capacity=10.0),
                Link("s", "slow", delay=3.0, capacity=10.0),
                Link("slow", "t", delay=3.0, capacity=10.0),
            ],
            ingress=["s"], egress=["t"],
        )
        catalog = make_simple_catalog(processing_delay=1.0)
        # Two near-simultaneous flows: the fast link (capacity 1) carries
        # only one; the second must be rerouted via `slow`.
        flows = make_flow_specs([1.0, 1.2], ingress="s", egress="t")
        sim = make_simulator(net, catalog, flows)
        peaks = record_peaks(sim.state)
        metrics = sim.run(GCASPPolicy(net, catalog))
        assert metrics.flows_succeeded == 2
        assert peaks.link[("s", "slow")] > 0.0

    def test_searches_for_compute_off_path(self):
        """With no compute on the shortest path but plenty one hop off it,
        GCASP detours to the capable neighbor."""
        nodes = [Node("s", 0.1), Node("mid", 0.1), Node("side", 10.0), Node("t", 0.1)]
        links = [
            Link("s", "mid", delay=1.0, capacity=10.0),
            Link("mid", "t", delay=1.0, capacity=10.0),
            Link("mid", "side", delay=1.0, capacity=10.0),
            Link("side", "t", delay=1.0, capacity=10.0),
        ]
        net = Network("detour", nodes, links, ingress=["s"], egress=["t"])
        catalog = make_simple_catalog(processing_delay=1.0)
        sim = make_simulator(net, catalog,
                             make_flow_specs([1.0], ingress="s", egress="t"))
        peaks = record_peaks(sim.state)
        metrics = sim.run(GCASPPolicy(net, catalog))
        assert metrics.flows_succeeded == 1
        assert peaks.node["side"] > 0.0

    def test_respects_deadline_feasibility(self):
        """Neighbors whose detour cannot meet the deadline are skipped."""
        net = diamond()
        catalog = make_simple_catalog(processing_delay=1.0)
        # Deadline 5: via slow (3+3+1) = 7 infeasible; fast path feasible.
        flows = make_flow_specs([1.0], ingress="s", egress="t", deadline=5.0)
        sim = make_simulator(net, catalog, flows)
        peaks = record_peaks(sim.state)
        metrics = sim.run(GCASPPolicy(net, catalog))
        assert metrics.flows_succeeded == 1
        assert peaks.link[("s", "slow")] == 0.0

    def test_fresh_policy_per_run_is_stateless(self):
        net = line_network(3, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog()
        m1 = make_simulator(net, catalog, make_flow_specs([1.0])).run(
            GCASPPolicy(net, catalog)
        )
        m2 = make_simulator(net, catalog, make_flow_specs([1.0])).run(
            GCASPPolicy(net, catalog)
        )
        assert m1.success_ratio == m2.success_ratio
