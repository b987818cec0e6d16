"""Tests for scenario construction."""

import numpy as np
import pytest

from repro.eval.scenarios import (
    SERVICE_NAME,
    TRAFFIC_PATTERNS,
    base_scenario,
    build_network,
    make_traffic_factory,
)


class TestBuildNetwork:
    def test_paper_capacity_ranges(self):
        net = build_network(capacity_seed=0)
        assert all(0.0 <= net.node(n).capacity <= 2.0 for n in net.node_names)
        assert all(1.0 <= l.capacity <= 5.0 for l in net.links)

    def test_reproducible_per_seed(self):
        a = build_network(capacity_seed=5)
        b = build_network(capacity_seed=5)
        assert [a.node(n).capacity for n in a.node_names] == [
            b.node(n).capacity for n in b.node_names
        ]
        c = build_network(capacity_seed=6)
        assert [a.node(n).capacity for n in a.node_names] != [
            c.node(n).capacity for n in c.node_names
        ]

    def test_ingress_count(self):
        for k in range(1, 6):
            net = build_network(num_ingress=k)
            assert net.ingress == tuple(f"v{i + 1}" for i in range(k))
            assert net.egress == ("v8",)

    def test_capacity_independent_of_ingress_count(self):
        """Fig. 8b relies on the 2-ingress and 4-ingress scenarios sharing
        the exact same capacity assignment."""
        two = build_network(num_ingress=2, capacity_seed=0)
        four = build_network(num_ingress=4, capacity_seed=0)
        assert [two.node(n).capacity for n in two.node_names] == [
            four.node(n).capacity for n in four.node_names
        ]

    def test_other_topologies(self):
        net = build_network(topology="BT Europe", num_ingress=2)
        assert net.num_nodes == 24

    def test_invalid_ingress_count(self):
        with pytest.raises(ValueError):
            build_network(num_ingress=0)


class TestTrafficFactory:
    @pytest.mark.parametrize("pattern", TRAFFIC_PATTERNS)
    def test_all_patterns_produce_flows(self, pattern):
        net = build_network(num_ingress=2)
        factory = make_traffic_factory(net, pattern=pattern, horizon=500.0)
        flows = list(factory(np.random.default_rng(0)))
        assert flows
        times = [f.arrival_time for f in flows]
        assert times == sorted(times)
        assert all(f.service == SERVICE_NAME for f in flows)
        assert {f.ingress for f in flows} <= set(net.ingress)
        assert all(f.egress == "v8" for f in flows)

    def test_fixed_pattern_is_deterministic(self):
        net = build_network(num_ingress=2)
        factory = make_traffic_factory(net, pattern="fixed", horizon=200.0)
        a = [f.arrival_time for f in factory(np.random.default_rng(0))]
        b = [f.arrival_time for f in factory(np.random.default_rng(99))]
        assert a == b  # fixed arrival ignores the rng

    def test_stochastic_patterns_vary_with_rng(self):
        net = build_network(num_ingress=1)
        factory = make_traffic_factory(net, pattern="poisson", horizon=500.0)
        a = [f.arrival_time for f in factory(np.random.default_rng(0))]
        b = [f.arrival_time for f in factory(np.random.default_rng(1))]
        assert a != b

    def test_deadline_applied(self):
        net = build_network(num_ingress=1)
        factory = make_traffic_factory(net, pattern="fixed", horizon=100.0,
                                       deadline=42.0)
        assert all(f.deadline == 42.0 for f in factory(np.random.default_rng(0)))

    def test_unknown_pattern_rejected(self):
        net = build_network()
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            make_traffic_factory(net, pattern="bursty")


class TestBaseScenario:
    def test_defaults(self):
        scenario = base_scenario()
        assert scenario.network.name == "Abilene"
        assert scenario.catalog.service(SERVICE_NAME).length == 3
        assert scenario.sim_config.horizon == 2000.0

    def test_traffic_within_horizon(self):
        scenario = base_scenario(horizon=300.0)
        flows = list(scenario.traffic_factory(np.random.default_rng(0)))
        assert all(f.arrival_time <= 300.0 for f in flows)
