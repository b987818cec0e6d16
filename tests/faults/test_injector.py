"""Simulator-level fault-injection behaviour.

Scenarios on the tiny line network where every outcome is
hand-computable: what a link failure drops, what a node outage evicts,
what a degradation does (and does not) do, and how all of it surfaces in
metrics, telemetry, and observations.
"""

import numpy as np
import pytest

from repro.baselines import GCASPPolicy
from repro.core.observations import ObservationAdapter
from repro.eval.scenarios import base_scenario, fault_preset
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultScenarioConfig,
    FaultSchedule,
    FaultSpec,
)
from repro.sim.metrics import DropReason
from repro.sim.simulator import ACTION_PROCESS_LOCALLY, Simulator
from repro.sim.state import NetworkState
from repro.telemetry import Recorder, validate_record
from tests.core.reference_observation import build_parts

from tests.conftest import make_flow_specs, make_simple_catalog, make_simulator
from tests.topology.networks import line_network


def sp_policy(network):
    """Process at the current node, then hop along the shortest path."""

    def policy(decision, sim):
        flow, node = decision.flow, decision.node
        if not flow.fully_processed:
            return ACTION_PROCESS_LOCALLY
        if node == flow.egress:
            return ACTION_PROCESS_LOCALLY
        nxt = network.next_hop(node, flow.egress)
        return network.neighbors(node).index(nxt) + 1

    return policy


def process_at_policy(network, where):
    """Forward along the shortest path; process only at ``where``."""

    def policy(decision, sim):
        flow, node = decision.flow, decision.node
        if node == where and not flow.fully_processed:
            return ACTION_PROCESS_LOCALLY
        if node == flow.egress:
            return ACTION_PROCESS_LOCALLY
        nxt = network.next_hop(node, flow.egress)
        return network.neighbors(node).index(nxt) + 1

    return policy


def faults_for(*specs):
    return FaultScenarioConfig(specs=tuple(specs))


class _CaptureRecorder(Recorder):
    enabled = True

    def __init__(self):
        self.records = []

    def emit(self, kind, **fields):
        self.records.append({"kind": kind, **fields})


LINK_FAIL = FaultSpec(FaultKind.LINK_FAILURE, ("v1", "v2"), 5.0, 15.0)


class TestLinkFailure:
    def run_smoke(self, line3, recorder=None):
        catalog = make_simple_catalog(processing_delay=2.0)
        sim = make_simulator(
            line3,
            catalog,
            make_flow_specs([1.0, 10.0, 30.0]),
            faults=faults_for(LINK_FAIL),
        )
        kwargs = {"recorder": recorder} if recorder is not None else {}
        return sim, sim.run(sp_policy(line3), **kwargs)

    def test_drops_flows_on_and_onto_failed_link(self, line3):
        sim, metrics = self.run_smoke(line3)
        # Flow @1 still holds transmission rate on v1-v2 at onset (t=5);
        # flow @10 tries to forward onto the dead link; flow @30 sees the
        # recovered network.
        assert metrics.flows_succeeded == 1
        assert metrics.flows_dropped == 2
        assert metrics.drop_reasons == {DropReason.NETWORK_FAILURE: 2}

    def test_phase_split(self, line3):
        sim, metrics = self.run_smoke(line3)
        phases = metrics.phase_success
        assert phases is not None
        assert phases["during_failure"]["dropped"] == 2.0
        assert phases["during_failure"]["ratio"] == 0.0
        assert phases["post_recovery"]["succeeded"] == 1.0
        assert phases["post_recovery"]["ratio"] == 1.0

    def test_capacity_restored_after_recovery(self, line3):
        sim, _ = self.run_smoke(line3)
        np.testing.assert_array_equal(
            sim.state.capacities_vector, line3.capacities_vector
        )
        assert not sim.faults.link_is_failed(line3.link_index[("v1", "v2")])

    def test_injector_log(self, line3):
        sim, _ = self.run_smoke(line3)
        onset, recovery = sim.faults.log
        assert onset["phase"] == "onset"
        assert onset["fault"] == "link_failure"
        assert onset["target"] == "v1-v2"
        assert onset["time"] == pytest.approx(5.0)
        assert onset["flows_dropped"] == 1
        assert recovery["phase"] == "recovery"
        assert recovery["time"] == pytest.approx(20.0)
        assert recovery["flows_dropped"] == 0

    def test_phase_boundaries_match_schedule_window(self, line3):
        sim, _ = self.run_smoke(line3)
        assert sim.faults.phase_boundaries == (5.0, 20.0)
        assert sim.metrics.phase_boundaries == (5.0, 20.0)

    def test_telemetry_records_validate(self, line3):
        recorder = _CaptureRecorder()
        self.run_smoke(line3, recorder=recorder)
        for record in recorder.records:
            validate_record(record)
        faults = [r for r in recorder.records if r["kind"] == "fault_event"]
        assert [r["phase"] for r in faults] == ["onset", "recovery"]
        [run] = [r for r in recorder.records if r["kind"] == "sim_run"]
        assert set(run["fault_phases"]) == {
            "pre_failure", "during_failure", "post_recovery",
        }

    def test_repeated_runs_identical(self, line3):
        _, first = self.run_smoke(line3)
        _, second = self.run_smoke(line3)
        assert first == second


class TestNodeOutage:
    def test_outage_evicts_instances_and_drops_residents(self, line3):
        catalog = make_simple_catalog(processing_delay=2.0, idle_timeout=50.0)
        outage = FaultSpec(FaultKind.NODE_OUTAGE, "v2", 10.0, 10.0)
        # @1 finishes pre-failure; @8 is resident (processing) at v2 at
        # onset; @12 arrives at the dead node; @25 sees recovery and
        # re-places the evicted instance.
        sim = make_simulator(
            line3,
            catalog,
            make_flow_specs([1.0, 8.0, 12.0, 25.0]),
            faults=faults_for(outage),
        )
        metrics = sim.run(process_at_policy(line3, "v2"))
        assert metrics.flows_succeeded == 2
        assert metrics.drop_reasons == {DropReason.NETWORK_FAILURE: 2}
        onset = sim.faults.log[0]
        assert onset["fault"] == "node_outage"
        assert onset["instances_evicted"] == 1
        assert metrics.phase_success["pre_failure"]["succeeded"] == 1.0
        assert metrics.phase_success["post_recovery"]["succeeded"] == 1.0

    def test_outage_drops_a_flow_whose_tail_holds_compute_there(self, line3):
        # Processed at v1 over [1, 3], it holds v1's compute until its
        # tail leaves at 3 + 5 = 8; at the onset (4.5) its head is on the
        # v2 -> v3 link, so only that held allocation ties it to v1.
        catalog = make_simple_catalog(processing_delay=2.0)
        outage = FaultSpec(FaultKind.NODE_OUTAGE, "v1", 4.5, 10.0)
        sim = make_simulator(
            line3,
            catalog,
            make_flow_specs([1.0], duration=5.0),
            faults=faults_for(outage),
        )
        metrics = sim.run(process_at_policy(line3, "v1"))
        assert metrics.flows_succeeded == 0
        assert metrics.drop_reasons == {DropReason.NETWORK_FAILURE: 1}
        assert sim.faults.log[0]["flows_dropped"] == 1

    def test_outage_drops_a_flow_whose_head_waits_there(self, line3):
        # Processed at v1, the flow reaches v2 at 4 and keeps waiting
        # there; its v1 compute and v1-v2 link holds end at 4 and 5, so
        # at the onset (6) only its head ties it to v2.
        catalog = make_simple_catalog(processing_delay=2.0)
        outage = FaultSpec(FaultKind.NODE_OUTAGE, "v2", 6.0, 10.0)

        def policy(decision, sim):
            if decision.node == "v1":
                if not decision.flow.fully_processed:
                    return ACTION_PROCESS_LOCALLY
                return line3.neighbors("v1").index("v2") + 1
            return ACTION_PROCESS_LOCALLY  # keep: processed, not at egress

        sim = make_simulator(
            line3, catalog, make_flow_specs([1.0]), faults=faults_for(outage)
        )
        metrics = sim.run(policy)
        assert metrics.drop_reasons == {DropReason.NETWORK_FAILURE: 1}
        assert sim.faults.log[0]["flows_dropped"] == 1

    def test_injection_at_failed_ingress_drops(self, line3):
        catalog = make_simple_catalog(processing_delay=2.0)
        outage = FaultSpec(FaultKind.NODE_OUTAGE, "v1", 5.0, 10.0)
        sim = make_simulator(
            line3,
            catalog,
            make_flow_specs([10.0, 20.0]),
            faults=faults_for(outage),
        )
        metrics = sim.run(sp_policy(line3))
        assert metrics.flows_generated == 2
        assert metrics.flows_succeeded == 1
        assert metrics.drop_reasons == {DropReason.NETWORK_FAILURE: 1}


class TestCapacityDegradation:
    def test_node_degradation_drops_via_capacity(self):
        net = line_network(3, node_capacity=1.0, link_capacity=10.0, link_delay=1.0)
        catalog = make_simple_catalog(processing_delay=2.0)
        # 1.0 demand fits the full 1.0 capacity but not the degraded 0.5.
        degrade = FaultSpec(
            FaultKind.CAPACITY_DEGRADATION, "v1", 5.0, 15.0, factor=0.5
        )
        sim = make_simulator(
            net, catalog, make_flow_specs([10.0, 30.0]), faults=faults_for(degrade)
        )
        metrics = sim.run(sp_policy(net))
        assert metrics.flows_succeeded == 1
        assert metrics.drop_reasons == {DropReason.NODE_CAPACITY: 1}

    def test_link_degradation_drops_via_capacity(self):
        net = line_network(3, node_capacity=10.0, link_capacity=1.0, link_delay=1.0)
        catalog = make_simple_catalog(processing_delay=2.0)
        degrade = FaultSpec(
            FaultKind.CAPACITY_DEGRADATION, ("v1", "v2"), 5.0, 15.0, factor=0.5
        )
        sim = make_simulator(
            net, catalog, make_flow_specs([10.0, 30.0]), faults=faults_for(degrade)
        )
        metrics = sim.run(sp_policy(net))
        assert metrics.flows_succeeded == 1
        assert metrics.drop_reasons == {DropReason.LINK_CAPACITY: 1}
        # Nothing evicted, nothing hard-dropped.
        assert DropReason.NETWORK_FAILURE not in metrics.drop_reasons


class TestInjectorComposition:
    """Unit-level onset/recovery bookkeeping, no simulator run."""

    def setup_method(self):
        self.net = line_network(3, node_capacity=10.0, link_capacity=10.0)
        self.state = NetworkState(self.net)
        self.link_id = self.net.link_index[("v1", "v2")]
        self.node_id = self.net.node_index["v2"]

    def injector(self, *specs):
        return FaultInjector(self.net, self.state, FaultSchedule(tuple(specs)))

    def node_capacity(self):
        return self.state.capacities_vector[self.net.num_links + self.node_id]

    def test_overlapping_failures_compose(self):
        a = FaultSpec(FaultKind.LINK_FAILURE, ("v1", "v2"), 5.0, 20.0)
        b = FaultSpec(FaultKind.LINK_FAILURE, ("v1", "v2"), 10.0, 30.0)
        inj = self.injector(a, b)
        inj.apply(a, True)
        inj.apply(b, True)
        inj.apply(a, False)
        # Still failed: b's window is open.
        assert inj.link_is_failed(self.link_id)
        assert self.state.capacities_vector[self.link_id] == 0.0
        inj.apply(b, False)
        assert not inj.link_is_failed(self.link_id)
        assert self.state.capacities_vector[self.link_id] == 10.0

    def test_degradation_factors_multiply(self):
        a = FaultSpec(
            FaultKind.CAPACITY_DEGRADATION, "v2", 5.0, 20.0, factor=0.5
        )
        b = FaultSpec(
            FaultKind.CAPACITY_DEGRADATION, "v2", 10.0, 30.0, factor=0.5
        )
        inj = self.injector(a, b)
        inj.apply(a, True)
        assert self.node_capacity() == pytest.approx(5.0)
        inj.apply(b, True)
        assert self.node_capacity() == pytest.approx(2.5)
        inj.apply(a, False)
        assert self.node_capacity() == pytest.approx(5.0)
        inj.apply(b, False)
        assert self.node_capacity() == pytest.approx(10.0)

    def test_failure_wins_over_degradation(self):
        fail = FaultSpec(FaultKind.NODE_OUTAGE, "v2", 5.0, 10.0)
        degrade = FaultSpec(
            FaultKind.CAPACITY_DEGRADATION, "v2", 5.0, 30.0, factor=0.5
        )
        inj = self.injector(fail, degrade)
        inj.apply(degrade, True)
        inj.apply(fail, True)
        assert self.node_capacity() == 0.0
        inj.apply(fail, False)
        # Outage over, degradation still active.
        assert self.node_capacity() == pytest.approx(5.0)


class TestObservationsUnderFaults:
    def test_failed_link_reads_fully_utilised(self, line3):
        catalog = make_simple_catalog(processing_delay=2.0)
        fail = FaultSpec(FaultKind.LINK_FAILURE, ("v1", "v2"), 0.5, 100.0)
        sim = make_simulator(
            line3, catalog, make_flow_specs([1.0]), faults=faults_for(fail)
        )
        adapter = ObservationAdapter(line3, catalog)
        decision = sim.next_decision()
        assert decision.time == 1.0  # fault onset at 0.5 already applied

        parts = build_parts(adapter, decision, sim)
        obs = adapter.build(decision, sim)
        # Hot path and scalar reference agree under faults.
        np.testing.assert_array_equal(obs, parts.concatenate())
        # v1's only neighbor link is dead: free 0 minus the flow's rate.
        assert parts.link_utilization[0] < 0.0

    @pytest.mark.parametrize(
        "topology,fault_seed", [("Abilene", 0), ("Abilene", 5), ("BT Europe", 3)]
    )
    def test_generated_schedule_observations_equal_the_reference(
        self, topology, fault_seed
    ):
        """A generated churn schedule (link failures, a node outage,
        degradations): at every decision the list ``values`` hands a
        deployed agent, and the row ``build`` writes, are bitwise the
        scalar reference, which reads each effective capacity on its own
        (``link_free`` / ``node_free``) where the adapter gathers them
        all from ``capacities_vector`` at once."""
        scenario = base_scenario(
            topology=topology, horizon=600.0, faults=fault_preset("churn", fault_seed)
        )
        net = scenario.network
        adapter = ObservationAdapter(net, scenario.catalog)
        gcasp = GCASPPolicy(net, scenario.catalog)
        masked = []

        def checked(decision, sim):
            expected = build_parts(adapter, decision, sim).concatenate().view(np.uint64)
            values = np.array(adapter.values(decision, sim)).view(np.uint64)
            row = adapter.build(decision, sim).view(np.uint64)
            assert values.tolist() == expected.tolist() == row.tolist()
            masked.append(
                not np.array_equal(sim.state.capacities_vector, net.capacities_vector)
            )
            return gcasp(decision, sim)

        sim = Simulator(
            net,
            scenario.catalog,
            scenario.traffic_factory(np.random.default_rng(fault_seed)),
            scenario.sim_config,
        )
        metrics = sim.run(checked)
        assert len(masked) == metrics.decisions > 100
        # Decisions were taken both under a fault and without one.
        assert any(masked) and not all(masked)

    def test_fault_free_simulator_has_no_injector(self, line3):
        catalog = make_simple_catalog()
        assert make_simulator(line3, catalog, []).faults is None
        empty = make_simulator(
            line3, catalog, [], faults=FaultScenarioConfig()
        )
        assert empty.faults is None
        metrics = empty.run(sp_policy(line3))
        assert metrics.phase_success is None
