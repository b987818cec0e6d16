"""Tests for the fault data model and seed-driven schedule generation."""

import pytest

from repro.eval.scenarios import build_network
from repro.faults import FaultKind, FaultScenarioConfig, FaultSchedule, FaultSpec
from repro.faults.schedule import DEGRADATION_FACTOR, ONSET_WINDOW

from tests.topology.networks import line_network


def link_failure(u="v1", v="v2", start=10.0, duration=5.0):
    return FaultSpec(FaultKind.LINK_FAILURE, (u, v), start, duration)


class TestFaultSpec:
    def test_link_target_canonicalised(self):
        spec = FaultSpec(FaultKind.LINK_FAILURE, ("v2", "v1"), 1.0, 2.0)
        assert spec.target == ("v1", "v2")
        assert spec.target_label == "v1-v2"

    def test_end_is_start_plus_duration(self):
        assert link_failure(start=10.0, duration=5.0).end == 15.0

    @pytest.mark.parametrize("kwargs", [
        {"start": -1.0},
        {"duration": 0.0},
    ])
    def test_window_validation(self, kwargs):
        with pytest.raises(ValueError):
            link_failure(**kwargs)

    def test_node_outage_rejects_link_target(self):
        with pytest.raises(ValueError, match="node name"):
            FaultSpec(FaultKind.NODE_OUTAGE, ("v1", "v2"), 1.0, 2.0)

    def test_link_failure_rejects_node_target(self):
        with pytest.raises(ValueError, match="link tuple"):
            FaultSpec(FaultKind.LINK_FAILURE, "v1", 1.0, 2.0)

    def test_hard_faults_reject_factor(self):
        with pytest.raises(ValueError, match="hard fault"):
            FaultSpec(FaultKind.NODE_OUTAGE, "v2", 1.0, 2.0, factor=0.5)

    def test_degradation_factor_range(self):
        with pytest.raises(ValueError, match="factor"):
            FaultSpec(FaultKind.CAPACITY_DEGRADATION, "v2", 1.0, 2.0, factor=1.0)
        FaultSpec(FaultKind.CAPACITY_DEGRADATION, "v2", 1.0, 2.0, factor=0.0)


class TestFaultSchedule:
    def test_specs_sorted_by_start(self):
        late = link_failure(start=50.0)
        early = FaultSpec(FaultKind.NODE_OUTAGE, "v2", 5.0, 3.0)
        schedule = FaultSchedule((late, early))
        assert schedule.specs == (early, late)
        assert len(schedule) == 2
        assert bool(schedule)

    def test_window_spans_all_faults(self):
        schedule = FaultSchedule((
            link_failure(start=10.0, duration=5.0),
            FaultSpec(FaultKind.NODE_OUTAGE, "v2", 12.0, 30.0),
        ))
        assert schedule.window == (10.0, 42.0)

    def test_empty_schedule(self):
        schedule = FaultSchedule()
        assert schedule.window is None
        assert not schedule
        assert len(schedule) == 0

    def test_validate_rejects_unknown_targets(self):
        net = line_network(3)
        with pytest.raises(ValueError, match="unknown node"):
            FaultSchedule(
                (FaultSpec(FaultKind.NODE_OUTAGE, "v9", 1.0, 2.0),)
            ).validate(net)
        with pytest.raises(ValueError, match="unknown link"):
            FaultSchedule(
                (FaultSpec(FaultKind.LINK_FAILURE, ("v1", "v3"), 1.0, 2.0),)
            ).validate(net)


class TestFaultScenarioConfig:
    @pytest.mark.parametrize("kwargs", [
        {"link_failures": -1},
        {"node_outages": -1},
        {"degradations": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultScenarioConfig(**kwargs)

    def test_empty_property(self):
        assert FaultScenarioConfig().empty
        assert not FaultScenarioConfig(link_failures=1).empty
        assert not FaultScenarioConfig(specs=(link_failure(),)).empty

    def test_build_schedule_is_deterministic(self):
        net = build_network(num_ingress=2)
        config = FaultScenarioConfig(
            seed=3, link_failures=2, node_outages=1, degradations=2
        )
        a = config.build_schedule(net, horizon=1000.0)
        b = config.build_schedule(net, horizon=1000.0)
        assert a.specs == b.specs
        assert len(a) == 5

    def test_different_seed_different_schedule(self):
        net = build_network(num_ingress=2)
        a = FaultScenarioConfig(seed=0, link_failures=3).build_schedule(net, 1000.0)
        b = FaultScenarioConfig(seed=1, link_failures=3).build_schedule(net, 1000.0)
        assert a.specs != b.specs

    def test_outages_never_target_ingress_or_egress(self):
        net = build_network(num_ingress=2)  # ingress v1, v2; egress v8
        config = FaultScenarioConfig(seed=0, node_outages=20)
        schedule = config.build_schedule(net, horizon=1000.0)
        targets = {s.target for s in schedule.specs}
        assert targets
        assert not targets & {"v1", "v2", "v8"}

    def test_onsets_inside_window_fractions(self):
        net = build_network(num_ingress=2)
        config = FaultScenarioConfig(seed=0, link_failures=10)
        assert ONSET_WINDOW == (0.25, 0.6)
        for spec in config.build_schedule(net, horizon=1000.0).specs:
            assert 250.0 <= spec.start <= 600.0

    def test_explicit_specs_merged_and_validated(self):
        net = line_network(3)
        config = FaultScenarioConfig(specs=(link_failure(),))
        schedule = config.build_schedule(net, horizon=100.0)
        assert schedule.specs == (link_failure(),)
        bad = FaultScenarioConfig(
            specs=(FaultSpec(FaultKind.NODE_OUTAGE, "v9", 1.0, 2.0),)
        )
        with pytest.raises(ValueError, match="unknown node"):
            bad.build_schedule(net, horizon=100.0)

    def test_degradations_carry_factor(self):
        net = build_network(num_ingress=2)
        config = FaultScenarioConfig(seed=0, degradations=4)
        specs = config.build_schedule(net, horizon=1000.0).specs
        assert len(specs) == 4
        assert all(s.kind is FaultKind.CAPACITY_DEGRADATION for s in specs)
        assert all(s.factor == DEGRADATION_FACTOR == 0.5 for s in specs)
        # Alternating node and link targets.
        assert any(isinstance(s.target, str) for s in specs)
        assert any(isinstance(s.target, tuple) for s in specs)
