"""The id-ordered all-pairs tables against the reference Dijkstra.

``Network`` builds its shortest-path tables in one Dijkstra pass per
source over node ids, inheriting first hops on relaxation.  The reference
in ``reference_paths`` is the string-keyed search with a parent-chain
walk.  Every table entry must be equal, tie-breaking included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.scenarios import build_network
from repro.topology import (
    Link,
    Network,
    Node,
    grid_network,
)
from repro.topology.zoo import TOPOLOGY_NAMES

from tests.topology.networks import line_network, ring_network, star_network, triangle_network
from tests.topology.reference_paths import assert_tables_match, network_digest

#: Few distinct delays, so equal-delay routes and zero-delay links are common.
DELAYS = (0.0, 0.5, 1.0, 2.0)


@st.composite
def graphs(draw):
    """Small graphs with ``v1..vn`` inserted in a drawn order (so sorted
    order, ``v10 < v2``, differs from insertion order) and sparse enough
    links that many are disconnected."""
    n = draw(st.integers(1, 12))
    names = [f"v{i}" for i in draw(st.permutations(range(1, n + 1)))]
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(DELAYS)),
            max_size=2 * n,
            unique_by=lambda e: frozenset(e[:2]),
        )
    )
    links = [Link(names[i], names[j], delay=d) for i, j, d in edges if i != j]
    return Network("random", [Node(name) for name in names], links)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_random_graphs_match_reference(network):
    assert_tables_match(network)


@pytest.mark.parametrize("capacity_seed", [0, 1, 2])
@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_table1_topologies_match_reference(topology, capacity_seed):
    assert_tables_match(build_network(topology, capacity_seed=capacity_seed))


@pytest.mark.parametrize("side", [2, 3, 8, 16])
def test_grids_match_reference(side):
    assert_tables_match(grid_network(side, side))


@pytest.mark.parametrize(
    "network",
    [line_network(12), ring_network(11), star_network(10), triangle_network()],
    ids=["line", "ring", "star", "triangle"],
)
def test_generators_match_reference(network):
    assert_tables_match(network)


@pytest.mark.slow
def test_large_grid_matches_reference():
    assert_tables_match(grid_network(32, 32))


#: ``network_digest(build_network(topology))`` at capacity seed 0 with the
#: default two ingresses: capacities, delays, endpoints and both tables,
#: as the string-keyed builder produced them.
BUILD_NETWORK_DIGESTS = {
    "Abilene": "ecde6d4145dbf7a8",
    "BT Europe": "81c0341098ee7ae6",
    "China Telecom": "45643c691db7c66c",
    "Interroute": "39e7db2a8f30c1a1",
}


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
def test_build_network_digest_is_unchanged(topology):
    assert network_digest(build_network(topology)) == BUILD_NETWORK_DIGESTS[topology]
