"""Property-based tests: observation vectors are always well-formed.

The paper's generalization argument rests on all observations being
normalised into [-1, 1] with a fixed size of 4Δ_G + 4 — for *any* network,
any flow state, and any point of a simulation.  These tests drive random
simulations and check every observation the adapter ever produces.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.observations import ObservationAdapter
from repro.topology import random_geometric_network
from tests.core.reference_observation import build_parts

from tests.conftest import make_flow_specs, make_simple_catalog, make_simulator
from tests.topology.networks import ring_network, star_network


def observe_through_random_run(network, catalog, flows, action_seed, horizon=200.0):
    """Yield every observation produced during a random-action run."""
    sim = make_simulator(network, catalog, flows, horizon=horizon)
    adapter = ObservationAdapter(network, catalog)
    rng = np.random.default_rng(action_seed)
    observations = []
    while (decision := sim.next_decision()) is not None:
        observations.append(adapter.build(decision, sim))
        sim.apply_action(int(rng.integers(network.degree + 1)))
    return adapter, observations


@settings(max_examples=15, deadline=None)
@given(
    action_seed=st.integers(0, 2**31 - 1),
    deadline=st.floats(min_value=5.0, max_value=60.0),
)
def test_observations_bounded_on_ring(action_seed, deadline):
    network = ring_network(6, node_capacity=2.0, link_capacity=2.0)
    catalog = make_simple_catalog(num_components=2)
    flows = make_flow_specs(
        [float(t) * 1.5 for t in range(1, 15)],
        ingress="v1", egress="v4", deadline=deadline,
    )
    adapter, observations = observe_through_random_run(
        network, catalog, flows, action_seed
    )
    assert observations
    for obs in observations:
        assert obs.shape == (adapter.size,)
        assert np.all(obs >= -1.0 - 1e-9), obs
        assert np.all(obs <= 1.0 + 1e-9), obs
        assert np.all(np.isfinite(obs))


@settings(max_examples=10, deadline=None)
@given(
    topo_seed=st.integers(0, 50),
    action_seed=st.integers(0, 2**31 - 1),
)
def test_observations_bounded_on_random_topologies(topo_seed, action_seed):
    network = random_geometric_network(10, radius=45.0, seed=topo_seed)
    catalog = make_simple_catalog(num_components=3)
    flows = make_flow_specs(
        [float(t) * 3 for t in range(1, 10)],
        ingress=network.ingress[0], egress=network.egress[0], deadline=50.0,
    )
    adapter, observations = observe_through_random_run(
        network, catalog, flows, action_seed
    )
    expected = 4 * network.degree + 4
    for obs in observations:
        assert obs.shape == (expected,)
        assert np.all((obs >= -1.0 - 1e-9) & (obs <= 1.0 + 1e-9))


@settings(max_examples=10, deadline=None)
@given(action_seed=st.integers(0, 2**31 - 1))
def test_padding_consistent_at_every_node(action_seed):
    """At a leaf of a star, exactly degree-1 slots of each padded part are
    dummy (-1), at the hub none are."""
    network = star_network(4, node_capacity=2.0, link_capacity=2.0)
    catalog = make_simple_catalog()
    flows = make_flow_specs(
        [float(t) * 2 for t in range(1, 10)],
        ingress="v2", egress="v5", deadline=30.0,
    )
    sim = make_simulator(network, catalog, flows, horizon=100.0)
    adapter = ObservationAdapter(network, catalog)
    rng = np.random.default_rng(action_seed)
    while (decision := sim.next_decision()) is not None:
        parts = build_parts(adapter, decision, sim)
        n_neighbors = len(network.neighbors(decision.node))
        pad = network.degree - n_neighbors
        assert np.sum(parts.link_utilization == -1.0) >= pad
        assert list(parts.delays_to_egress[n_neighbors:]) == [-1.0] * pad
        sim.apply_action(int(rng.integers(network.degree + 1)))
