"""Tests for mutable network runtime state."""

import pickle

import numpy as np
import pytest

from repro.sim.state import CapacityError, NetworkState
from repro.topology import Link, Network, Node
from repro.topology.network import link_key

from tests.conftest import link_load


def allocate_node(state, node, amount, flow_id):
    return state.allocate_node_id(state.network.node_index[node], amount, flow_id)


def allocate_link(state, u, v, rate, flow_id):
    return state.allocate_link_id(state.network.link_index[link_key(u, v)], rate, flow_id)


@pytest.fixture
def state() -> NetworkState:
    net = Network(
        "t",
        [Node("a", 2.0), Node("b", 1.0)],
        [Link("a", "b", delay=1.0, capacity=3.0)],
    )
    return NetworkState(net)


class TestNodeAllocation:
    def test_allocate_and_release(self, state):
        alloc = allocate_node(state, "a", 1.5, flow_id=1)
        assert state.node_load("a") == 1.5
        assert state.node_free("a") == 0.5
        state.release(alloc)
        assert state.node_load("a") == 0.0

    def test_over_capacity_rejected(self, state):
        allocate_node(state, "a", 1.5, 1)
        with pytest.raises(CapacityError):
            allocate_node(state, "a", 0.6, 2)
        # Failed allocation must not change the load.
        assert state.node_load("a") == 1.5

    def test_exact_capacity_allowed(self, state):
        allocate_node(state, "b", 1.0, 1)
        assert state.node_free("b") == pytest.approx(0.0)

    def test_release_idempotent(self, state):
        alloc = allocate_node(state, "a", 1.0, 1)
        state.release(alloc)
        state.release(alloc)
        assert state.node_load("a") == 0.0

    def test_float_accumulation_tolerated(self, state):
        """Many allocate/release cycles must not fail on float dust."""
        for i in range(1000):
            alloc = allocate_node(state, "b", 1.0 / 3.0, i)
            alloc2 = allocate_node(state, "b", 1.0 / 3.0, i)
            state.release(alloc)
            state.release(alloc2)
        allocate_node(state, "b", 1.0, 9999)


class TestScalarAccountingIsTheArrayArithmetic:
    """allocate/release read a slot with ``.item()``, compute on Python
    floats and write back; the reference below is the in-place ndarray
    arithmetic (``+=``, ``-=``, clamp).  Loads must agree byte for byte
    over a long random sequence, refusals included."""

    def test_bitwise_equal_to_inplace_ndarray_updates(self):
        nodes = [Node(f"n{i}", capacity=c) for i, c in enumerate((2.0, 1.0, 3.5))]
        links = [Link("n0", "n1", capacity=1.5), Link("n1", "n2", capacity=2.25)]
        state = NetworkState(Network("t", nodes, links))
        caps = {"node": np.array([2.0, 1.0, 3.5]), "link": np.array([1.5, 2.25])}
        loads = {"node": np.zeros(3), "link": np.zeros(2)}
        allocate = {"node": state.allocate_node_id, "link": state.allocate_link_id}
        rng = np.random.default_rng(7)
        held, refused = [], 0
        for step in range(4000):
            if held and rng.random() < 0.4:
                kind, i, amount, allocation = held.pop(int(rng.integers(len(held))))
                state.release(allocation)
                loads[kind][i] -= amount
                if -1e-9 < loads[kind][i] < 0:
                    loads[kind][i] = 0.0
            else:
                kind = "node" if rng.random() < 0.5 else "link"
                i = int(rng.integers(len(loads[kind])))
                amount = float(rng.uniform(0.0, 1.0)) / 3.0
                if loads[kind][i] + amount > caps[kind][i] + 1e-9:
                    refused += 1
                    with pytest.raises(CapacityError):
                        allocate[kind](i, amount, step)
                else:
                    held.append((kind, i, amount, allocate[kind](i, amount, step)))
                    loads[kind][i] += amount
            assert state._node_loads.tobytes() == loads["node"].tobytes()
            assert state._link_loads.tobytes() == loads["link"].tobytes()
        assert refused > 100 and held

    def test_allocation_record_names_the_slot(self, state):
        node = state.allocate_node_id(1, 0.5, flow_id=3)
        link = state.allocate_link_id(0, 0.5, flow_id=4)
        assert (node.kind, node.key, node.index, node.flow_id) == ("node", "b", 1, 3)
        assert (link.kind, link.key, link.index, link.flow_id) == ("link", ("a", "b"), 0, 4)
        assert not node.released and not link.released


class TestLinkAllocation:
    def test_allocate_and_release(self, state):
        alloc = allocate_link(state, "a", "b", 2.0, 1)
        assert link_load(state, "a", "b") == 2.0
        assert link_load(state, "b", "a") == 2.0  # shared both directions
        assert state.link_free("a", "b") == 1.0
        state.release(alloc)
        assert link_load(state, "a", "b") == 0.0

    def test_shared_capacity_across_directions(self, state):
        allocate_link(state, "a", "b", 2.0, 1)
        with pytest.raises(CapacityError):
            allocate_link(state, "b", "a", 1.5, 2)


class TestInstances:
    def test_place_and_query(self, state):
        assert state.instance("a", "c1") is None
        inst = state.place_instance("a", "c1", now=5.0, startup_delay=2.0)
        assert state.instance("a", "c1") is not None
        assert inst.ready_at == 7.0
        assert inst.idle_since == 7.0

    def test_duplicate_placement_rejected(self, state):
        state.place_instance("a", "c1", 0.0, 0.0)
        with pytest.raises(ValueError, match="already placed"):
            state.place_instance("a", "c1", 1.0, 0.0)

    def test_busy_idle_transitions(self, state):
        state.place_instance("a", "c1", 0.0, 0.0)
        state.instance_begin_flow("a", "c1")
        inst = state.instance("a", "c1")
        assert inst.busy_flows == 1
        assert inst.idle_since is None
        state.instance_begin_flow("a", "c1")
        state.instance_end_flow("a", "c1", now=10.0)
        assert inst.busy_flows == 1
        assert inst.idle_since is None
        state.instance_end_flow("a", "c1", now=12.0)
        assert inst.busy_flows == 0
        assert inst.idle_since == 12.0

    def test_remove_busy_instance_rejected(self, state):
        state.place_instance("a", "c1", 0.0, 0.0)
        state.instance_begin_flow("a", "c1")
        with pytest.raises(ValueError, match="busy"):
            state.remove_instance("a", "c1")

    def test_remove_idle_instance(self, state):
        state.place_instance("a", "c1", 0.0, 0.0)
        state.remove_instance("a", "c1")
        assert state.instance("a", "c1") is None

    def test_remove_missing_instance_rejected(self, state):
        with pytest.raises(KeyError):
            state.remove_instance("a", "c1")

    def test_end_flow_on_removed_instance_tolerated(self, state):
        # A dropped flow may try to end residence after force-removal.
        state.instance_end_flow("a", "ghost", now=1.0)

    def test_instances_at(self, state):
        state.place_instance("a", "c1", 0.0, 0.0)
        state.place_instance("a", "c2", 0.0, 0.0)
        state.place_instance("b", "c1", 0.0, 0.0)
        assert len(state.instances_at("a")) == 2
        assert len(state.placed_instances) == 3


class TestInvariants:
    def test_check_passes_on_fresh_state(self, state):
        state.check_invariants()

    def test_check_detects_corruption(self, state):
        state._node_loads[state.network.node_index["a"]] = 99.0
        with pytest.raises(AssertionError):
            state.check_invariants()

    def test_check_detects_presence_desync(self, state):
        state.place_instance("a", "c1", 0.0, 0.0)
        state.instance_presence("c1")[state.network.node_index["b"]] = 1.0
        with pytest.raises(AssertionError):
            state.check_invariants()


class TestPresence:
    def test_presence_follows_placements(self, state):
        assert state.instance_presence("c1") is None
        state.place_instance("a", "c1", 0.0, 0.0)
        presence = state.instance_presence("c1")
        assert presence is not None
        assert presence[state.network.node_index["a"]] == 1.0
        assert presence[state.network.node_index["b"]] == 0.0
        state.remove_instance("a", "c1")
        assert presence[state.network.node_index["a"]] == 0.0


class TestCapacityVector:
    """Effective capacities live in one links-then-nodes vector, laid out
    like ``loads_vector``, with the per-kind arrays as views of it."""

    def test_fault_free_state_aliases_the_network(self, state):
        net = state.network
        assert state.capacities_vector is net.capacities_vector
        assert np.shares_memory(state._node_caps, net.node_capacities)
        assert np.shares_memory(state._link_caps, net.link_capacities)
        np.testing.assert_array_equal(state.capacities_vector, [3.0, 2.0, 1.0])

    def test_a_pickled_network_keeps_one_capacity_buffer(self, state):
        net = pickle.loads(pickle.dumps(state.network))
        fresh = NetworkState(net)
        assert np.shares_memory(fresh._node_caps, net.node_capacities)
        assert np.shares_memory(net.link_capacities, net.capacities_vector)

    def test_overrides_copy_once_and_re_point_both_views(self, state):
        net = state.network
        state.enable_capacity_overrides()
        caps = state.capacities_vector
        assert not np.shares_memory(caps, net.capacities_vector)
        for view in (state._node_caps, state._link_caps):
            assert np.shares_memory(view, caps)
        state.enable_capacity_overrides()  # idempotent: no second copy
        assert state.capacities_vector is caps

    def test_setters_write_through_to_the_vector_and_both_views(self, state):
        net = state.network
        state.enable_capacity_overrides()
        b, ab = net.node_index["b"], net.link_index[link_key("a", "b")]
        state.set_node_capacity_id(b, 0.25)
        state.set_link_capacity_id(ab, 0.5)
        assert state.capacities_vector[net.num_links + b] == 0.25
        assert state.capacities_vector[ab] == 0.5
        assert state._node_caps[b] == 0.25
        assert state._link_caps[ab] == 0.5
        assert state.node_free("b") == 0.25 and state.link_free("a", "b") == 0.5
        # The network's own capacities are untouched.
        np.testing.assert_array_equal(net.capacities_vector, [3.0, 2.0, 1.0])

    def test_setters_refuse_before_overrides(self, state):
        with pytest.raises(AssertionError, match="enable_capacity_overrides"):
            state.set_node_capacity_id(0, 0.0)
        with pytest.raises(AssertionError, match="enable_capacity_overrides"):
            state.set_link_capacity_id(0, 0.0)

    def test_invariants_compare_against_the_base_capacities(self, state):
        """A degradation may strand admitted load above the effective
        capacity (it drains); load above the physical one is a bug."""
        state.enable_capacity_overrides()
        allocate_node(state, "a", 1.5, flow_id=1)
        state.set_node_capacity_id(state.network.node_index["a"], 0.5)
        state.check_invariants()
        state._node_loads[state.network.node_index["a"]] = 2.5
        with pytest.raises(AssertionError, match="capacity bounds"):
            state.check_invariants()
