"""Trace-driven traffic.

The paper's Fig. 6d and Fig. 8a drive the simulation with real-world
traffic traces for the Abilene network (SNDlib [52]).  Those traces are not
redistributable in this offline environment, so this module provides:

1. :func:`synthetic_abilene_trace` — a deterministic synthetic trace with
   the qualitative structure of measured backbone demand: a diurnal
   (sinusoidal) base load, slow random drift, and short demand bursts.
   What matters for the experiments is *non-stationarity and burstiness* —
   traffic that no single fixed rule set fits — and the synthetic trace
   preserves exactly that (see DESIGN.md, "Substitutions").
2. :class:`TraceArrival` — an arrival process replaying any
   :class:`RateTrace` through non-homogeneous Poisson thinning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.traffic.arrival import ArrivalProcess, RateFunctionArrival

__all__ = [
    "RateTrace",
    "synthetic_abilene_trace",
    "TraceArrival",
]

# The synthetic trace's shape, read by :func:`synthetic_abilene_trace`: a
# rate sample every SAMPLE_INTERVAL time units; a diurnal sine of period
# DIURNAL_PERIOD and relative amplitude DIURNAL_AMPLITUDE; a burst of
# BURST_MULTIPLIER times the rate with probability BURST_PROBABILITY per
# sample; Gaussian noise of relative std NOISE_STD; the rng seeded with
# TRACE_SEED.
SAMPLE_INTERVAL = 50.0
DIURNAL_PERIOD = 4000.0
DIURNAL_AMPLITUDE = 0.5
BURST_PROBABILITY = 0.05
BURST_MULTIPLIER = 2.5
NOISE_STD = 0.1
TRACE_SEED = 0


@dataclass(frozen=True)
class RateTrace:
    """A piecewise-constant arrival-rate trace.

    Attributes:
        times: Strictly increasing sample times; ``rates[i]`` applies on
            ``[times[i], times[i+1])`` and ``rates[-1]`` from ``times[-1]``
            onward.  Before ``times[0]`` the rate is ``rates[0]``.
        rates: Non-negative arrival rates (flows per time unit).
    """

    times: Tuple[float, ...]
    rates: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.rates) or not self.times:
            raise ValueError("times and rates must be equal-length and non-empty")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be >= 0")

    def rate_at(self, t: float) -> float:
        """Rate in effect at time ``t`` (piecewise-constant interpolation)."""
        if t <= self.times[0]:
            return self.rates[0]
        # Binary search for the last sample time <= t.
        lo, hi = 0, len(self.times) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.times[mid] <= t:
                lo = mid
            else:
                hi = mid - 1
        return self.rates[lo]

    @property
    def max_rate(self) -> float:
        return max(self.rates)


def synthetic_abilene_trace(horizon: float = 20000.0, mean_rate: float = 0.1) -> RateTrace:
    """Deterministic synthetic trace shaped like measured backbone demand.

    The rate at sample ``i`` (every :data:`SAMPLE_INTERVAL`) is::

        rate_i = mean_rate * (1 + DIURNAL_AMPLITUDE * sin(2π t_i / DIURNAL_PERIOD))
                           * burst_i * (1 + noise_i)

    where ``burst_i`` is :data:`BURST_MULTIPLIER` with probability
    :data:`BURST_PROBABILITY` (demand spikes) and 1 otherwise, and
    ``noise_i`` is zero-mean Gaussian measurement noise of std
    :data:`NOISE_STD`.  Rates are clipped at 0.

    The default ``mean_rate`` gives a mean inter-arrival time of ~10 time
    steps per ingress, matching the load level of the paper's other
    traffic patterns.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    rng = np.random.default_rng(TRACE_SEED)
    times: List[float] = []
    rates: List[float] = []
    t = 0.0
    while t <= horizon:
        diurnal = 1.0 + DIURNAL_AMPLITUDE * math.sin(2 * math.pi * t / DIURNAL_PERIOD)
        burst = BURST_MULTIPLIER if rng.random() < BURST_PROBABILITY else 1.0
        noise = 1.0 + rng.normal(0.0, NOISE_STD)
        rates.append(max(0.0, mean_rate * diurnal * burst * noise))
        times.append(t)
        t += SAMPLE_INTERVAL
    return RateTrace(tuple(times), tuple(rates))


class TraceArrival(ArrivalProcess):
    """Arrival process replaying a :class:`RateTrace`.

    Thin wrapper over :class:`~repro.traffic.arrival.RateFunctionArrival`
    with the trace's piecewise-constant rate as the intensity function.

    Args:
        trace: The rate trace to replay.
        rng: Numpy random generator (or seed) for the thinning draws.

    The replay has no end: the trace's last rate extends forever.
    """

    def __init__(self, trace: RateTrace, rng=None) -> None:
        self.trace = trace
        max_rate = trace.max_rate
        if max_rate <= 0:
            raise ValueError("trace has zero rate everywhere; no arrivals possible")
        self._inner = RateFunctionArrival(trace.rate_at, max_rate=max_rate, rng=rng)

    def next_arrival(self, after: float) -> Optional[float]:
        return self._inner.next_arrival(after)
