"""Tests for synthetic topology generators."""

import pytest

from repro.topology.generators import grid_network, random_geometric_network

from tests.topology.networks import line_network, ring_network, star_network, triangle_network
from tests.topology.reference_paths import is_connected, shortest_path


class TestLine:
    def test_structure(self):
        net = line_network(4)
        assert net.num_nodes == 4
        assert net.num_links == 3
        assert net.degree == 2
        assert net.ingress == ("v1",)
        assert net.egress == ("v4",)
        assert shortest_path(net, "v1", "v4") == ["v1", "v2", "v3", "v4"]

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            line_network(1)


class TestRing:
    def test_structure(self):
        net = ring_network(6)
        assert net.num_nodes == 6
        assert net.num_links == 6
        assert all(len(net.neighbors(n)) == 2 for n in net.node_names)

    def test_two_disjoint_routes(self):
        net = ring_network(6)
        # v1 to the opposite node v4: both directions have length 3.
        assert net.shortest_path_delay("v1", "v4") == pytest.approx(3.0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ring_network(2)


class TestStar:
    def test_structure(self):
        net = star_network(5)
        assert net.num_nodes == 6
        assert net.degree == 5
        assert len(net.neighbors("v1")) == 5
        assert all(len(net.neighbors(f"v{i}")) == 1 for i in range(2, 7))

    def test_leaf_to_leaf_via_hub(self):
        net = star_network(4)
        assert shortest_path(net, "v2", "v5") == ["v2", "v1", "v5"]


class TestTriangle:
    def test_structure(self):
        net = triangle_network()
        assert net.num_nodes == 3
        assert net.num_links == 3
        assert net.degree == 2


class TestGrid:
    def test_structure(self):
        net = grid_network(3, 4)
        assert net.num_nodes == 12
        # 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8 = 17
        assert net.num_links == 17
        assert net.degree == 4

    def test_corner_degree(self):
        net = grid_network(2, 2)
        assert all(len(net.neighbors(n)) == 2 for n in net.node_names)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            grid_network(1, 1)


class TestRandomGeometric:
    def test_connected_for_various_seeds(self):
        for seed in range(5):
            net = random_geometric_network(20, radius=25.0, seed=seed)
            assert is_connected(net), f"seed {seed} disconnected"

    def test_deterministic(self):
        a = random_geometric_network(15, seed=3)
        b = random_geometric_network(15, seed=3)
        assert {l.key for l in a.links} == {l.key for l in b.links}
        assert [a.node(n).capacity for n in a.node_names] == [
            b.node(n).capacity for n in b.node_names
        ]

    def test_capacity_ranges_respected(self):
        net = random_geometric_network(
            30, seed=1, node_capacity_range=(1.0, 2.0), link_capacity_range=(3.0, 4.0)
        )
        assert all(1.0 <= net.node(n).capacity <= 2.0 for n in net.node_names)
        assert all(3.0 <= l.capacity <= 4.0 for l in net.links)

    def test_custom_endpoints(self):
        net = random_geometric_network(10, seed=0, ingress=["v2"], egress=["v9"])
        assert net.ingress == ("v2",)
        assert net.egress == ("v9",)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_geometric_network(1)
