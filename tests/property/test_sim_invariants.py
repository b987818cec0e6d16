"""Property-based tests: simulator invariants under arbitrary policies.

Whatever a policy does — including adversarially bad action sequences —
the simulator must never corrupt its state: loads stay within [0,
capacity], every flow ends in exactly one bucket, time never goes
backwards, and all resources eventually drain, with or without faults.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults import FaultKind, FaultScenarioConfig, FaultSpec
from repro.services import Component, Service, ServiceCatalog
from repro.sim.metrics import DropReason
from repro.topology import random_geometric_network
from repro.traffic import FlowSpec

from tests.conftest import (
    link_load,
    make_flow_specs,
    make_simple_catalog,
    make_simulator,
)
from tests.topology.networks import ring_network, star_network


def run_with_random_actions(network, catalog, flows, action_seed, horizon=300.0):
    """Drive a simulation with uniformly random (often invalid) actions."""
    sim = make_simulator(network, catalog, flows, horizon=horizon)
    rng = np.random.default_rng(action_seed)
    times = []
    while (decision := sim.next_decision()) is not None:
        times.append(decision.time)
        sim.apply_action(int(rng.integers(network.degree + 1)))
    metrics = sim.finalize()
    return sim, metrics, times


@st.composite
def flow_batches(draw):
    count = draw(st.integers(min_value=1, max_value=25))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
            min_size=count, max_size=count,
        )
    )
    times = np.cumsum(np.array(gaps) + 0.1)
    deadline = draw(st.floats(min_value=5.0, max_value=80.0))
    return list(times), deadline


class TestRandomPolicyInvariants:
    @settings(max_examples=25, deadline=None)
    @given(batch=flow_batches(), action_seed=st.integers(0, 2**31 - 1))
    def test_state_never_corrupts_on_ring(self, batch, action_seed):
        times, deadline = batch
        network = ring_network(5, node_capacity=2.0, link_capacity=2.0)
        catalog = make_simple_catalog(num_components=2, processing_delay=3.0)
        flows = make_flow_specs(
            times, ingress="v1", egress="v3", deadline=deadline
        )
        # make_simulator builds the simulator with the sanitizer on: it
        # asserts the invariants after every event.
        sim, metrics, decision_times = run_with_random_actions(
            network, catalog, flows, action_seed
        )
        assert metrics.flows_generated == len(times)
        assert (
            metrics.flows_succeeded + metrics.flows_dropped + sim.active_flow_count
            == metrics.flows_generated
        )
        # Decision times are monotone (event order respected).
        assert all(b >= a for a, b in zip(decision_times, decision_times[1:]))

    @settings(max_examples=15, deadline=None)
    @given(action_seed=st.integers(0, 2**31 - 1))
    def test_star_hub_contention(self, action_seed):
        network = star_network(5, node_capacity=1.0, link_capacity=1.0)
        catalog = make_simple_catalog(processing_delay=2.0)
        flows = make_flow_specs(
            [float(t) for t in range(1, 30)],
            ingress="v2", egress="v6", deadline=25.0,
        )
        sim, metrics, _ = run_with_random_actions(network, catalog, flows, action_seed)
        # With a deadline every flow must resolve within it; no flow can be
        # active long after the last arrival + deadline.
        assert sim.active_flow_count == 0
        assert metrics.flows_succeeded + metrics.flows_dropped == 29

    @settings(max_examples=10, deadline=None)
    @given(
        topo_seed=st.integers(0, 100),
        action_seed=st.integers(0, 2**31 - 1),
    )
    def test_random_topologies(self, topo_seed, action_seed):
        network = random_geometric_network(12, radius=40.0, seed=topo_seed)
        catalog = make_simple_catalog(num_components=3, processing_delay=2.0)
        ingress, egress = network.ingress[0], network.egress[0]
        flows = make_flow_specs(
            [float(t) * 2 for t in range(1, 20)],
            ingress=ingress, egress=egress, deadline=40.0,
        )
        sim, metrics, _ = run_with_random_actions(network, catalog, flows, action_seed)
        assert 0.0 <= metrics.success_ratio <= 1.0
        for reason in metrics.drop_reasons:
            assert reason in DropReason.ALL


class TestResourceDrainage:
    @settings(max_examples=15, deadline=None)
    @given(action_seed=st.integers(0, 2**31 - 1))
    def test_all_resources_released_after_quiescence(self, action_seed):
        """Once every flow finished, no node/link holds any resources."""
        network = ring_network(4, node_capacity=3.0, link_capacity=3.0)
        catalog = make_simple_catalog(num_components=2, processing_delay=2.0,
                                      idle_timeout=5.0)
        flows = make_flow_specs([1.0, 3.0, 5.0], ingress="v1", egress="v3",
                                deadline=30.0)
        sim, metrics, _ = run_with_random_actions(
            network, catalog, flows, action_seed, horizon=500.0
        )
        assert sim.active_flow_count == 0
        for node in network.node_names:
            assert sim.state.node_load(node) == 0.0
        for link in network.links:
            assert link_load(sim.state, link.u, link.v) == 0.0


RING = ring_network(5, node_capacity=2.0, link_capacity=2.0)
TWO_SERVICES = ServiceCatalog([
    Service("short", [Component("s1", processing_delay=2.0, idle_timeout=5.0)]),
    Service("long", [
        Component("l1", processing_delay=1.0, idle_timeout=5.0),
        Component("l2", processing_delay=3.0, idle_timeout=5.0),
    ]),
])


@st.composite
def faulted_two_service_runs(draw):
    """Two-service traffic on a five-node ring, plus one link failure, one
    outage of a node that is neither ingress nor egress, and one
    degradation, each over a window drawn across the traffic."""
    count = draw(st.integers(min_value=1, max_value=20))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
            min_size=count, max_size=count,
        )
    )
    times = np.cumsum(np.array(gaps) + 0.1)
    deadline = draw(st.floats(min_value=5.0, max_value=60.0))
    flows = [
        FlowSpec(
            service=draw(st.sampled_from(["short", "long"])),
            ingress="v1", egress="v3", data_rate=1.0,
            arrival_time=float(t), duration=1.0, deadline=deadline,
        )
        for t in times
    ]
    links = sorted(link.key for link in RING.links)

    def window():
        start = draw(st.floats(min_value=0.0, max_value=float(times[-1]) + 10.0))
        return start, draw(st.floats(min_value=1.0, max_value=40.0))

    specs = (
        FaultSpec(FaultKind.LINK_FAILURE, draw(st.sampled_from(links)), *window()),
        FaultSpec(FaultKind.NODE_OUTAGE, draw(st.sampled_from(["v2", "v4", "v5"])),
                  *window()),
        FaultSpec(FaultKind.CAPACITY_DEGRADATION,
                  draw(st.sampled_from(list(RING.node_names) + links)),
                  *window(), factor=0.5),
    )
    return flows, specs


class TestRandomPolicyUnderFaults:
    @settings(max_examples=30, deadline=None)
    @given(run=faulted_two_service_runs(), action_seed=st.integers(0, 2**31 - 1))
    def test_accounting_holds_and_loads_drain(self, run, action_seed):
        flows, specs = run
        # Past every deadline and every fault window: the run quiesces.
        sim = make_simulator(
            RING, TWO_SERVICES, flows, horizon=500.0,
            faults=FaultScenarioConfig(specs=specs),
        )
        rng = np.random.default_rng(action_seed)
        while sim.next_decision() is not None:
            sim.apply_action(int(rng.integers(RING.degree + 1)))
        metrics = sim.finalize()
        assert len(sim.faults.log) == 2 * len(specs)
        assert set(metrics.drop_reasons) <= set(DropReason.ALL)
        assert sum(metrics.drop_reasons.values()) == metrics.flows_dropped
        assert metrics.flows_generated == len(flows)
        assert (
            metrics.flows_succeeded
            + sum(metrics.drop_reasons.values())
            + sim.active_flow_count
            == metrics.flows_generated
        )
        assert sim.active_flow_count == 0
        loads = sim.state.loads_vector.tolist()
        assert loads == [0.0] * len(loads)
