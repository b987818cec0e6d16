"""Unit tests for the substrate network model."""

import math

import pytest

from repro.topology.network import (
    Link,
    Network,
    Node,
    euclidean_delay,
    link_key,
)


def small_net(**kwargs) -> Network:
    nodes = [Node("a", 1.0), Node("b", 2.0), Node("c", 3.0)]
    links = [Link("a", "b", delay=1.0, capacity=2.0), Link("b", "c", delay=2.0, capacity=4.0)]
    return Network("small", nodes, links, **kwargs)


class TestNodeAndLink:
    def test_node_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Node("x", capacity=-1.0)

    def test_link_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Link("a", "a")

    def test_link_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay"):
            Link("a", "b", delay=-0.1)

    def test_link_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Link("a", "b", capacity=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_node_rejects_non_finite_capacity(self, bad):
        with pytest.raises(ValueError, match="node 'x': capacity"):
            Node("x", capacity=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_link_rejects_non_finite_delay(self, bad):
        with pytest.raises(ValueError, match=r"link \(a,b\): delay"):
            Link("a", "b", delay=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_link_rejects_non_finite_capacity(self, bad):
        with pytest.raises(ValueError, match=r"link \(a,b\): capacity"):
            Link("a", "b", capacity=bad)

    def test_link_key_is_canonical(self):
        assert link_key("b", "a") == ("a", "b")
        assert Link("b", "a").key == ("a", "b")

    def test_link_other_endpoint(self):
        link = Link("a", "b")
        assert link.other("a") == "b"
        assert link.other("b") == "a"
        with pytest.raises(KeyError):
            link.other("c")


class TestNetworkConstruction:
    def test_basic_accessors(self):
        net = small_net()
        assert net.num_nodes == 3
        assert net.num_links == 2
        assert net.node("b").capacity == 2.0
        assert net.has_node("a") and not net.has_node("z")
        assert net.has_link("b", "a")
        assert net.link("c", "b").delay == 2.0

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError, match="duplicate node"):
            Network("bad", [Node("a"), Node("a")], [])

    def test_duplicate_link_rejected(self):
        with pytest.raises(ValueError, match="duplicate link"):
            Network(
                "bad",
                [Node("a"), Node("b")],
                [Link("a", "b"), Link("b", "a")],
            )

    def test_link_with_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            Network("bad", [Node("a")], [Link("a", "b")])

    def test_unknown_ingress_rejected(self):
        with pytest.raises(ValueError, match="ingress"):
            small_net(ingress=["nope"])

    def test_unknown_egress_rejected(self):
        with pytest.raises(ValueError, match="egress"):
            small_net(egress=["nope"])

    def test_neighbors_sorted_deterministically(self):
        nodes = [Node(n) for n in ("m", "z", "a", "k")]
        links = [Link("m", "z"), Link("m", "a"), Link("m", "k")]
        net = Network("star", nodes, links)
        assert net.neighbors("m") == ["a", "k", "z"]

    def test_hop_table_is_aligned_with_the_sorted_neighbors(self):
        net = small_net()
        assert set(net.hop_table) == {"a", "b", "c"}
        for name, (names, delays, link_ids) in net.hop_table.items():
            assert list(names) == net.neighbors(name)
            assert list(delays) == [net.link(name, nb).delay for nb in names]
            assert list(link_ids) == net.neighbor_link_ids(name).tolist()
            assert [net.link_key_at(i) for i in link_ids] == [
                link_key(name, nb) for nb in names
            ]
        assert net.hop_table["b"] == (("a", "c"), (1.0, 2.0), (0, 1))

    def test_degree_metrics(self):
        net = small_net()
        assert net.degree == 2  # node b
        assert net.min_degree == 1
        assert net.avg_degree == pytest.approx(4 / 3)
        assert net.degree_of("b") == 2


class TestShortestPaths:
    def test_shortest_path_delay(self):
        net = small_net()
        assert net.shortest_path_delay("a", "c") == pytest.approx(3.0)
        assert net.shortest_path_delay("a", "a") == 0.0

    def test_next_hop(self):
        net = small_net()
        assert net.next_hop("a", "c") == "b"
        assert net.next_hop("a", "a") is None

    def test_shortest_path_nodes(self):
        net = small_net()
        assert net.shortest_path("a", "c") == ["a", "b", "c"]
        assert net.shortest_path("a", "a") == ["a"]

    def test_unreachable_returns_inf(self):
        net = Network("split", [Node("a"), Node("b"), Node("c")], [Link("a", "b")])
        assert math.isinf(net.shortest_path_delay("a", "c"))
        assert net.next_hop("a", "c") is None
        with pytest.raises(ValueError, match="unreachable"):
            net.shortest_path("a", "c")
        assert not net.is_connected()

    def test_dijkstra_picks_lower_delay_route(self):
        # a-b-c with a direct (but slow) a-c link: path via b wins.
        nodes = [Node(n) for n in "abc"]
        links = [
            Link("a", "b", delay=1.0),
            Link("b", "c", delay=1.0),
            Link("a", "c", delay=5.0),
        ]
        net = Network("tri", nodes, links)
        assert net.shortest_path("a", "c") == ["a", "b", "c"]
        assert net.diameter == pytest.approx(2.0)

    def test_deterministic_tie_break(self):
        # Two equal-delay routes: x settles before y (same delay, smaller
        # name), so x relaxes t first and y's equal route does not replace it.
        nodes = [Node(n) for n in ("s", "x", "y", "t")]
        links = [
            Link("s", "x", delay=1.0),
            Link("s", "y", delay=1.0),
            Link("x", "t", delay=1.0),
            Link("y", "t", delay=1.0),
        ]
        net = Network("diamond", nodes, links)
        assert net.next_hop("s", "t") == "x"

    def test_tie_goes_to_the_first_settled_last_predecessor(self):
        # Both routes to t cost 4.0.  The first hops a < b would pick a,
        # but t's predecessors settle in (delay, name) order: q at 1.5
        # before p at 3.0, so the route through q, and first hop b, wins.
        nodes = [Node(n) for n in ("s", "a", "b", "p", "q", "t")]
        links = [
            Link("s", "a", delay=1.0),
            Link("s", "b", delay=1.0),
            Link("a", "p", delay=2.0),
            Link("b", "q", delay=0.5),
            Link("p", "t", delay=1.0),
            Link("q", "t", delay=2.5),
        ]
        net = Network("two-routes", nodes, links)
        assert net.shortest_path_delay("s", "t") == 4.0
        assert net.next_hop("s", "t") == "b"
        assert net.shortest_path("s", "t") == ["s", "b", "q", "t"]


class TestDerivedQuantities:
    def test_max_node_capacity(self):
        assert small_net().max_node_capacity == 3.0

    def test_max_link_capacity_at(self):
        net = small_net()
        assert net.max_link_capacity_at("b") == 4.0
        assert net.max_link_capacity_at("a") == 2.0

    def test_stats_row(self):
        stats = small_net().stats()
        assert stats.nodes == 3
        assert stats.edges == 2
        name, nodes, edges, degrees = stats.as_row()
        assert name == "small" and nodes == 3 and edges == 2
        assert degrees == "1 / 2 / 1.33"


class TestEuclideanDelay:
    def test_scales_with_distance(self):
        assert euclidean_delay((0, 0), (3, 4), delay_per_unit=2.0, minimum=0.0) == 10.0

    def test_minimum_floor(self):
        assert euclidean_delay((0, 0), (0.1, 0), minimum=1.0) == 1.0
