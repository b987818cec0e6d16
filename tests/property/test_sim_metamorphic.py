"""Metamorphic relations of the simulator's event core (ROADMAP item 6).

Relations that must hold independent of any golden snapshot: a fault
configuration that schedules nothing is the same as no configuration, a
link failure that nothing touches changes no flow's fate, scaling every
capacity and every flow's data rate by one factor changes nothing for
the learned agents or the heuristics, with or without churn, and the
per-event records stay plain immutable values.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import GCASPPolicy
from repro.baselines.shortest_path import ShortestPathPolicy
from repro.core.agent import DistributedCoordinator
from repro.eval.scenarios import base_scenario
from repro.faults import FaultKind, FaultScenarioConfig, FaultSpec
from repro.rl.policy import ActorCriticPolicy
from repro.sim.config import SimulationConfig
from repro.sim.metrics import DropReason
from repro.sim.simulator import DecisionPoint, Outcome, OutcomeKind, Simulator
from repro.topology.network import Network
from repro.traffic.flows import Flow

from tests.conftest import make_flow_specs, make_simple_catalog, sanitizer_on
from tests.topology.networks import line_network


def play(scenario, traffic_seed, faults):
    """One shortest-path run; returns metrics, success series and the
    decision sequence with flow ids rebased to the run's first flow."""
    sim = Simulator(
        scenario.network,
        scenario.catalog,
        scenario.traffic_factory(np.random.default_rng(traffic_seed)),
        SimulationConfig(horizon=scenario.sim_config.horizon, faults=faults),
    )
    policy = ShortestPathPolicy(scenario.network, scenario.catalog)
    decisions = []
    while (decision := sim.next_decision()) is not None:
        decisions.append((decision.time, decision.flow.flow_id, decision.node))
        sim.apply_action(policy(decision, sim))
    base = min((fid for _, fid, _ in decisions), default=0)
    return (
        sim.finalize(),
        list(sim.metrics.success_series),
        [(t, fid - base, node) for t, fid, node in decisions],
        sim,
    )


class TestEmptyFaultConfig:
    @pytest.mark.parametrize("traffic_seed", [0, 1, 2])
    def test_equals_no_schedule(self, traffic_seed):
        scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=400.0)
        assert FaultScenarioConfig().empty
        plain = play(scenario, traffic_seed, None)
        empty = play(scenario, traffic_seed, FaultScenarioConfig())
        assert empty[3].faults is None
        assert plain[0] == empty[0]
        assert plain[1] == empty[1]
        assert plain[2] == empty[2]
        assert plain[0].decisions > 100  # the comparison is not vacuous


class TestVanishingLinkFailure:
    """A failure window of zero length is not expressible (a FaultSpec's
    duration must be positive); the relation is pinned at its limit — a
    window that no forward, hold or arrival overlaps drops nothing."""

    def test_zero_duration_is_not_a_schedule(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(FaultKind.LINK_FAILURE, ("v1", "v2"), 50.0, 0.0)

    def test_untouched_window_drops_nothing(self):
        # v1 - v2 - v3, one flow before and one after t=50: link v1-v2 is
        # busy on both sides of the window and idle inside it.
        network = line_network(3, node_capacity=5.0, link_capacity=5.0)
        catalog = make_simple_catalog(processing_delay=2.0)
        flows = make_flow_specs([1.0, 100.0], deadline=40.0)

        def run(faults):
            with sanitizer_on():
                sim = Simulator(
                    network, catalog, list(flows),
                    SimulationConfig(horizon=200.0, faults=faults),
                )
            policy = ShortestPathPolicy(network, catalog)
            decisions = []
            while (decision := sim.next_decision()) is not None:
                decisions.append((decision.time, decision.node))
                sim.apply_action(policy(decision, sim))
            return sim.finalize(), decisions, sim

        plain, plain_decisions, _ = run(None)
        blip = FaultScenarioConfig(
            specs=(FaultSpec(FaultKind.LINK_FAILURE, ("v1", "v2"), 50.0, 1e-9),)
        )
        failed, failed_decisions, sim = run(blip)
        assert sim.faults is not None and len(sim.faults.log) == 2  # onset + recovery
        assert [entry["flows_dropped"] for entry in sim.faults.log] == [0, 0]
        assert failed_decisions == plain_decisions
        assert failed.flows_succeeded == plain.flows_succeeded == 2
        assert DropReason.NETWORK_FAILURE not in failed.drop_reasons
        for field in ("flows_generated", "flows_dropped", "drop_reasons",
                      "success_ratio", "avg_end_to_end_delay", "avg_hops",
                      "decisions", "flows_active"):
            assert getattr(failed, field) == getattr(plain, field), field


FIXTURE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "perf" / "fixtures" / "abilene_acktr.npz"
)


def scaled(scenario, node_factor, rate_factor):
    """``scenario`` with every node and link capacity times
    ``node_factor`` and every flow's data rate times ``rate_factor``.

    Powers of two keep every product, and so every load and every
    remaining capacity the simulator derives from them, exact."""
    net = scenario.network
    twin = Network(
        net.name,
        [dataclasses.replace(n, capacity=n.capacity * node_factor)
         for n in map(net.node, net.node_names)],
        [dataclasses.replace(link, capacity=link.capacity * node_factor)
         for link in net.links],
        net.ingress,
        net.egress,
    )
    traffic = scenario.traffic_factory
    template = dataclasses.replace(
        traffic.template, data_rate=traffic.template.data_rate * rate_factor
    )
    return dataclasses.replace(
        scenario,
        network=twin,
        traffic_factory=dataclasses.replace(traffic, template=template),
    )


@pytest.fixture(scope="module")
def algorithms():
    """Each algorithm as a ``(network, catalog) -> simulator policy``
    builder; the learned one deploys the committed Abilene fixture."""
    policy = ActorCriticPolicy.load(FIXTURE)
    return {
        "DRL": lambda net, catalog: DistributedCoordinator(net, catalog, policy),
        "GCASP": GCASPPolicy,
        "SP": ShortestPathPolicy,
    }


def run_metrics(scenario, build_policy, seed):
    sim = Simulator(
        scenario.network,
        scenario.catalog,
        scenario.traffic_factory(np.random.default_rng(seed)),
        scenario.sim_config,
    )
    return sim.run(build_policy(scenario.network, scenario.catalog))


class TestCapacityAndRateScaling:
    """``r_c(λ)`` is linear, and every capacity check and observation
    compares a load with a capacity, so capacities and data rates scaled
    together decide every flow alike (ROADMAP item 6)."""

    @pytest.mark.parametrize("faults", [None, "churn"])
    @pytest.mark.parametrize("algorithm", ["DRL", "GCASP", "SP"])
    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_scaled_twin_gives_equal_metrics(self, algorithms, algorithm,
                                             faults, factor):
        scenario = base_scenario(pattern="poisson", num_ingress=2,
                                 horizon=2000.0, faults=faults)
        twin = scaled(scenario, factor, factor)
        for seed in (0, 1, 2):
            plain = run_metrics(scenario, algorithms[algorithm], seed)
            scaled_run = run_metrics(twin, algorithms[algorithm], seed)
            assert scaled_run == plain, (algorithm, faults, factor, seed)
            assert plain.flows_dropped > 0  # capacity decides some flows
            if faults:
                assert plain.drop_reasons.get(DropReason.NETWORK_FAILURE, 0) > 0

    @pytest.mark.parametrize("algorithm", ["DRL", "GCASP", "SP"])
    def test_scaling_capacities_alone_changes_the_run(self, algorithms, algorithm):
        """The relation has teeth: doubled capacities under unchanged
        data rates change the run."""
        scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=2000.0)
        plain = run_metrics(scenario, algorithms[algorithm], 0)
        roomy = run_metrics(scaled(scenario, 2.0, 1.0), algorithms[algorithm], 0)
        assert roomy != plain


class TestEventRecordsAreValues:
    """``DecisionPoint`` and ``Outcome`` are built once per decision /
    outcome on the hot path; whatever their representation, callers rely
    on keyword construction, immutability and equality by value."""

    def test_outcome(self):
        outcome = Outcome(kind=OutcomeKind.LINK_TRAVERSED, time=2.0, flow_id=7,
                          link_delay=1.5)
        assert outcome.chain_length is None and outcome.drop_reason is None
        assert outcome == Outcome(OutcomeKind.LINK_TRAVERSED, 2.0, 7, None, 1.5)
        assert outcome != outcome._replace(link_delay=2.5)
        assert hash(outcome) == hash(outcome._replace())
        with pytest.raises(AttributeError):
            outcome.time = 3.0
        with pytest.raises(TypeError):
            Outcome(kind=OutcomeKind.FLOW_KEPT)  # time and flow_id are required

    def test_decision_point(self):
        flow = Flow(make_flow_specs([0.0])[0], chain_length=1)
        decision = DecisionPoint(time=1.0, flow=flow, node="v1")
        assert decision == DecisionPoint(1.0, flow, "v1")
        assert decision != DecisionPoint(1.0, flow, "v2")
        assert (decision.time, decision.flow, decision.node) == (1.0, flow, "v1")
        with pytest.raises(AttributeError):
            decision.node = "v2"

    def test_simulator_emits_them(self):
        network = line_network(3, node_capacity=5.0, link_capacity=5.0)
        sim = Simulator(
            network, make_simple_catalog(), make_flow_specs([1.0]),
            SimulationConfig(horizon=50.0),
        )
        decision = sim.next_decision()
        assert isinstance(decision, DecisionPoint)
        sim.apply_action(1)
        (outcome,) = sim.drain_outcomes()
        assert outcome == Outcome(
            kind=OutcomeKind.LINK_TRAVERSED, time=1.0,
            flow_id=decision.flow.flow_id, link_delay=1.0,
        )
