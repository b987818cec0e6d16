"""Property-based tests for traffic generation."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.traffic.arrival import (
    FixedArrival,
    FlowTemplate,
    MMPPArrival,
    PoissonArrival,
    TrafficSource,
)
from repro.traffic.traces import RateTrace, TraceArrival
from tests.traffic.arrival_times import arrivals_until


class TestArrivalProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        interval=st.floats(min_value=0.1, max_value=50.0),
        horizon=st.floats(min_value=1.0, max_value=500.0),
    )
    def test_fixed_arrivals_regular_and_bounded(self, interval, horizon):
        times = arrivals_until(FixedArrival(interval), horizon)
        # Count matches horizon/interval up to float rounding at the edges.
        assert abs(len(times) - horizon / interval) <= 1.0
        assert all(0 < t <= horizon for t in times)
        # Strictly increasing with ~interval spacing (never loops in place).
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g > 0 for g in gaps)
        assert all(abs(g - interval) < 1e-6 * max(1.0, times[-1]) for g in gaps)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), mean=st.floats(0.5, 20.0))
    def test_poisson_strictly_increasing(self, seed, mean):
        times = arrivals_until(PoissonArrival(mean, rng=seed), 300.0)
        assert all(b > a for a, b in zip(times, times[1:]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_mmpp_strictly_increasing(self, seed):
        proc = MMPPArrival(rng=seed)
        times = arrivals_until(proc, 1000.0)
        assert all(b > a for a, b in zip(times, times[1:]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_next_arrival_is_strictly_after(self, seed):
        proc = PoissonArrival(5.0, rng=seed)
        t = 0.0
        for _ in range(30):
            nxt = proc.next_arrival(t)
            assert nxt > t
            t = nxt


class TestTrafficSourceProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_ingress=st.integers(1, 5),
        horizon=st.floats(min_value=10.0, max_value=300.0),
    )
    def test_merged_stream_sorted_and_complete(self, seed, num_ingress, horizon):
        rng = np.random.default_rng(seed)
        processes = {
            f"v{i}": PoissonArrival(8.0, rng=rng.integers(2**31))
            for i in range(num_ingress)
        }
        template = FlowTemplate(service="s", egress="eg")
        flows = list(TrafficSource(processes, template).flows_until(horizon))
        times = [f.arrival_time for f in flows]
        assert times == sorted(times)
        assert all(t <= horizon for t in times)
        assert {f.ingress for f in flows} <= set(processes)


class TestTraceProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        rates=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_trace_arrivals_increase(self, rates, seed):
        times = tuple(float(i) * 10 for i in range(len(rates)))
        trace = RateTrace(times, tuple(rates))
        arrivals = arrivals_until(TraceArrival(trace, rng=seed), 200.0)
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    @settings(max_examples=30, deadline=None)
    @given(
        rates=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12),
        query=st.floats(-10.0, 200.0),
    )
    def test_rate_at_returns_sampled_value(self, rates, query):
        times = tuple(float(i) * 7 for i in range(len(rates)))
        trace = RateTrace(times, tuple(rates))
        assert trace.rate_at(query) in rates
