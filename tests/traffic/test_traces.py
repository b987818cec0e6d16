"""Tests for trace-driven traffic."""

import pytest

from repro.traffic import traces
from repro.traffic.traces import (
    RateTrace,
    TraceArrival,
    synthetic_abilene_trace,
)
from tests.traffic.arrival_times import arrivals_until


def mean_rate(trace):
    """Time-weighted mean rate over the trace's sampled span."""
    if len(trace.times) == 1:
        return trace.rates[0]
    total = 0.0
    for i in range(len(trace.times) - 1):
        total += trace.rates[i] * (trace.times[i + 1] - trace.times[i])
    return total / (trace.times[-1] - trace.times[0])


class TestRateTrace:
    def test_piecewise_lookup(self):
        trace = RateTrace((0.0, 10.0, 20.0), (1.0, 2.0, 3.0))
        assert trace.rate_at(-5.0) == 1.0
        assert trace.rate_at(0.0) == 1.0
        assert trace.rate_at(9.99) == 1.0
        assert trace.rate_at(10.0) == 2.0
        assert trace.rate_at(15.0) == 2.0
        assert trace.rate_at(25.0) == 3.0

    def test_max_and_mean(self):
        trace = RateTrace((0.0, 10.0), (1.0, 3.0))
        assert trace.max_rate == 3.0
        # Only [0, 10) is sampled span; mean over it is rate[0].
        assert mean_rate(trace) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RateTrace((), ())
        with pytest.raises(ValueError, match="strictly increasing"):
            RateTrace((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match=">= 0"):
            RateTrace((0.0,), (-1.0,))
        with pytest.raises(ValueError, match="equal-length"):
            RateTrace((0.0, 1.0), (1.0,))


class TestSyntheticTrace:
    def test_deterministic(self):
        a = synthetic_abilene_trace(horizon=1000.0)
        b = synthetic_abilene_trace(horizon=1000.0)
        assert a.times == b.times
        assert a.rates == b.rates

    def test_different_seeds_differ(self, monkeypatch):
        monkeypatch.setattr(traces, "TRACE_SEED", 1)
        a = synthetic_abilene_trace(horizon=1000.0)
        monkeypatch.setattr(traces, "TRACE_SEED", 2)
        b = synthetic_abilene_trace(horizon=1000.0)
        assert a.rates != b.rates

    def test_mean_rate_near_target(self):
        trace = synthetic_abilene_trace(horizon=50000.0, mean_rate=0.1)
        # Diurnal + bursts + noise average out near (slightly above, because
        # bursts only multiply upward) the configured mean.
        assert 0.08 < mean_rate(trace) < 0.16

    def test_rates_nonnegative(self, monkeypatch):
        monkeypatch.setattr(traces, "NOISE_STD", 1.0)
        trace = synthetic_abilene_trace(horizon=5000.0)
        assert all(r >= 0.0 for r in trace.rates)

    def test_has_bursts(self, monkeypatch):
        monkeypatch.setattr(traces, "BURST_PROBABILITY", 0.1)
        monkeypatch.setattr(traces, "BURST_MULTIPLIER", 3.0)
        trace = synthetic_abilene_trace(horizon=20000.0)
        assert trace.max_rate > 2.0 * mean_rate(trace)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            synthetic_abilene_trace(horizon=0.0)


class TestTraceArrival:
    def test_arrival_rate_tracks_trace(self):
        trace = RateTrace((0.0,), (0.2,))
        proc = TraceArrival(trace, rng=0)
        times = arrivals_until(proc, 20000.0)
        assert len(times) == pytest.approx(0.2 * 20000, rel=0.1)

    def test_zero_trace_rejected(self):
        with pytest.raises(ValueError, match="zero rate"):
            TraceArrival(RateTrace((0.0,), (0.0,)))

    def test_time_varying_density(self):
        # Rate 0.5 in the first half, 0.05 in the second.
        trace = RateTrace((0.0, 1000.0), (0.5, 0.05))
        proc = TraceArrival(trace, rng=0)
        times = arrivals_until(proc, 2000.0)
        first = sum(1 for t in times if t <= 1000.0)
        second = len(times) - first
        assert first > 4 * second
