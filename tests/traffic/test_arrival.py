"""Tests for flow arrival processes."""

import numpy as np
import pytest

from repro.traffic.arrival import (
    FixedArrival,
    FlowTemplate,
    MMPPArrival,
    PoissonArrival,
    RateFunctionArrival,
    TrafficSource,
)
from tests.traffic.arrival_times import arrivals_until


class TestFixedArrival:
    def test_regular_spacing(self):
        proc = FixedArrival(10.0)
        assert arrivals_until(proc, 35.0) == [10.0, 20.0, 30.0]

    def test_custom_offset(self):
        proc = FixedArrival(10.0, offset=3.0)
        assert arrivals_until(proc, 25.0) == [3.0, 13.0, 23.0]

    def test_next_arrival_strictly_after(self):
        proc = FixedArrival(10.0)
        assert proc.next_arrival(10.0) == 20.0
        assert proc.next_arrival(10.5) == 20.0
        assert proc.next_arrival(0.0) == 10.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            FixedArrival(0.0)


class TestPoissonArrival:
    def test_mean_interarrival(self):
        proc = PoissonArrival(10.0, rng=0)
        times = arrivals_until(proc, 50000.0)
        gaps = np.diff([0.0] + times)
        assert np.mean(gaps) == pytest.approx(10.0, rel=0.1)

    def test_strictly_increasing(self):
        proc = PoissonArrival(5.0, rng=1)
        times = arrivals_until(proc, 1000.0)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_reproducible_with_seed(self):
        a = arrivals_until(PoissonArrival(10.0, rng=42), 500.0)
        b = arrivals_until(PoissonArrival(10.0, rng=42), 500.0)
        assert a == b

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            PoissonArrival(-1.0)


class TestMMPPArrival:
    def test_rate_between_states(self):
        """Long-run mean inter-arrival lies between the two state means."""
        proc = MMPPArrival(12.0, 8.0, switch_interval=100.0,
                           switch_probability=0.5, rng=0)
        times = arrivals_until(proc, 100000.0)
        mean_gap = np.mean(np.diff([0.0] + times))
        assert 8.0 * 0.9 < mean_gap < 12.0 * 1.1

    def test_zero_switch_probability_stays_slow(self):
        proc = MMPPArrival(12.0, 8.0, switch_probability=0.0, rng=0)
        times = arrivals_until(proc, 50000.0)
        mean_gap = np.mean(np.diff([0.0] + times))
        assert mean_gap == pytest.approx(12.0, rel=0.1)

    def test_strictly_increasing(self):
        proc = MMPPArrival(rng=3)
        times = arrivals_until(proc, 3000.0)
        assert all(b > a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mean_interval_slow": 0.0},
            {"mean_interval_fast": -1.0},
            {"switch_interval": 0.0},
            {"switch_probability": 1.5},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MMPPArrival(**kwargs)


class TestRateFunctionArrival:
    def test_constant_rate_matches_poisson(self):
        proc = RateFunctionArrival(lambda t: 0.1, max_rate=0.1, rng=0)
        times = arrivals_until(proc, 50000.0)
        assert np.mean(np.diff([0.0] + times)) == pytest.approx(10.0, rel=0.1)

    def test_zero_rate_period_has_no_arrivals(self):
        # Rate zero in [100, 200); thinning must produce nothing there.
        proc = RateFunctionArrival(
            lambda t: 0.0 if 100 <= t < 200 else 0.5, max_rate=0.5, rng=0
        )
        times = arrivals_until(proc, 1000.0)
        assert not [t for t in times if 100 <= t < 200]

    def test_rate_above_bound_rejected(self):
        proc = RateFunctionArrival(lambda t: 2.0, max_rate=1.0, rng=0)
        with pytest.raises(ValueError, match="outside"):
            proc.next_arrival(0.0)


class TestTrafficSource:
    def test_merges_in_time_order(self):
        source = TrafficSource(
            {"v1": FixedArrival(10.0), "v2": FixedArrival(7.0)},
            FlowTemplate(service="svc", egress="v9"),
        )
        flows = list(source.flows_until(30.0))
        times = [f.arrival_time for f in flows]
        assert times == sorted(times)
        assert {f.ingress for f in flows} == {"v1", "v2"}

    def test_template_attributes_applied(self):
        source = TrafficSource(
            {"v1": FixedArrival(10.0)},
            FlowTemplate(service="svc", egress="v9", data_rate=2.0,
                         duration=3.0, deadline=42.0),
        )
        flow = next(iter(source.flows_until(15.0)))
        assert flow.service == "svc"
        assert flow.egress == "v9"
        assert flow.data_rate == 2.0
        assert flow.duration == 3.0
        assert flow.deadline == 42.0

    def test_per_ingress_templates(self):
        source = TrafficSource(
            {"v1": FixedArrival(10.0), "v2": FixedArrival(10.0)},
            {
                "v1": FlowTemplate(service="svc", egress="v9", deadline=10.0),
                "v2": FlowTemplate(service="svc", egress="v8", deadline=20.0),
            },
        )
        flows = list(source.flows_until(15.0))
        by_ingress = {f.ingress: f for f in flows}
        assert by_ingress["v1"].egress == "v9"
        assert by_ingress["v2"].deadline == 20.0

    def test_missing_template_rejected(self):
        with pytest.raises(ValueError, match="missing templates"):
            TrafficSource(
                {"v1": FixedArrival(10.0)},
                {"v2": FlowTemplate(service="svc", egress="v9")},
            )

    def test_empty_processes_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TrafficSource({}, FlowTemplate(service="svc", egress="v9"))

    def test_horizon_respected(self):
        source = TrafficSource(
            {"v1": FixedArrival(10.0)}, FlowTemplate(service="svc", egress="v9")
        )
        assert all(f.arrival_time <= 45.0 for f in source.flows_until(45.0))
