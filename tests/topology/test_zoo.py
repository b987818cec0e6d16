"""Tests for the real-world topology zoo (Table I)."""

import pytest

from repro.topology.zoo import (
    TOPOLOGY_NAMES,
    abilene,
    bt_europe,
    china_telecom,
    interroute,
    table1_stats,
    topology_by_name,
    topology_layout,
)

PAPER_TABLE1 = {
    "Abilene": (11, 14, 2, 3, 2.55),
    "BT Europe": (24, 37, 1, 13, 3.08),
    "China Telecom": (42, 66, 1, 20, 3.14),
    "Interroute": (110, 158, 1, 7, 2.87),
}


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
def test_table1_statistics_match_paper(name):
    net = topology_by_name(name)
    nodes, edges, dmin, dmax, davg = PAPER_TABLE1[name]
    assert net.num_nodes == nodes
    assert net.num_links == edges
    assert net.min_degree == dmin
    assert net.degree == dmax
    assert net.avg_degree == pytest.approx(davg, abs=0.005)


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
def test_topologies_are_connected(name):
    assert topology_by_name(name).is_connected()


@pytest.mark.parametrize("factory", [abilene, bt_europe, china_telecom, interroute])
def test_reconstruction_is_deterministic(factory):
    first, second = factory(), factory()
    assert first.node_names == second.node_names
    assert {l.key for l in first.links} == {l.key for l in second.links}
    assert [l.delay for l in first.links] == [l.delay for l in second.links]


def test_table1_stats_helper_covers_all():
    stats = table1_stats()
    assert [s.name for s in stats] == list(TOPOLOGY_NAMES)


def test_topology_by_name_rejects_unknown():
    with pytest.raises(KeyError, match="available"):
        topology_by_name("Sprint")


def test_topology_layout_rejects_unknown():
    with pytest.raises(KeyError, match="available"):
        topology_layout("Sprint")


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
def test_layout_is_the_factory_network_without_capacities(name):
    layout, net = topology_layout(name), topology_by_name(name)
    assert layout.name == net.name
    assert layout.node_names == net.node_names
    assert [net.node(n).position for n in net.node_names] == [p for _, p in layout.nodes]
    assert layout.link_keys == [link.key for link in net.links]
    assert [delay for _, _, delay in layout.links] == [link.delay for link in net.links]


class TestAbilene:
    def test_deadline_regime(self):
        """Fig. 7 calibration: with 3x 5ms components, the best case from
        either base ingress exceeds 20ms but stays under 30ms."""
        net = abilene(ingress=["v1", "v2"], egress=["v8"])
        for ingress in ("v1", "v2"):
            path_delay = net.shortest_path_delay(ingress, "v8")
            assert 5.0 < path_delay < 15.0
            assert path_delay + 15.0 > 20.0  # deadline 20 infeasible
            assert path_delay + 15.0 < 30.0  # deadline 30 feasible

    def test_colocated_ingresses_share_path_segments(self):
        """Sec. V-B: v1-v3's shortest paths to the egress overlap; v4 and
        v5 use disjoint routes."""
        net = abilene()
        paths = {v: set(net.shortest_path(v, "v8")) for v in
                 ("v1", "v2", "v3", "v4", "v5")}
        west = paths["v2"] & paths["v3"] - {"v8"}
        assert west, "west-coast ingresses should share path segments"
        assert paths["v4"] & paths["v5"] == {"v8"}
        assert (paths["v4"] - {"v8"}).isdisjoint(paths["v2"] - {"v8"})

    def test_capacity_callables_applied(self):
        net = abilene(
            node_capacity=lambda n: 7.0,
            link_capacity=lambda u, v: 3.0,
        )
        assert all(net.node(n).capacity == 7.0 for n in net.node_names)
        assert all(l.capacity == 3.0 for l in net.links)

    def test_positions_present(self):
        net = abilene()
        assert all(net.node(n).position is not None for n in net.node_names)

    def test_custom_endpoints(self):
        net = abilene(ingress=["v1", "v2", "v3"], egress=["v8"])
        assert net.ingress == ("v1", "v2", "v3")
        assert net.egress == ("v8",)


class TestReconstructions:
    def test_china_telecom_is_skewed(self):
        """The paper highlights this network's degree skew: a 20-neighbor
        hub in a 42-node graph."""
        net = china_telecom()
        assert net.degree == 20
        assert net.avg_degree < 3.2

    def test_reconstruction_has_leaf(self):
        for factory in (bt_europe, china_telecom, interroute):
            assert factory().min_degree == 1

    def test_distinct_seeds_give_distinct_graphs(self):
        bt = bt_europe()
        ct = china_telecom()
        assert {l.key for l in bt.links} != {l.key for l in ct.links}
