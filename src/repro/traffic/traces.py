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

    @property
    def mean_rate(self) -> float:
        """Time-weighted mean rate over the trace's sampled span."""
        if len(self.times) == 1:
            return self.rates[0]
        total = 0.0
        for i in range(len(self.times) - 1):
            total += self.rates[i] * (self.times[i + 1] - self.times[i])
        return total / (self.times[-1] - self.times[0])


def synthetic_abilene_trace(
    horizon: float = 20000.0,
    mean_rate: float = 0.1,
    sample_interval: float = 50.0,
    diurnal_period: float = 4000.0,
    diurnal_amplitude: float = 0.5,
    burst_probability: float = 0.05,
    burst_multiplier: float = 2.5,
    noise_std: float = 0.1,
    seed: int = 0,
) -> RateTrace:
    """Deterministic synthetic trace shaped like measured backbone demand.

    The rate at sample ``i`` is::

        rate_i = mean_rate * (1 + diurnal_amplitude * sin(2π t_i / period))
                           * burst_i * (1 + noise_i)

    where ``burst_i`` is ``burst_multiplier`` with probability
    ``burst_probability`` (demand spikes) and 1 otherwise, and ``noise_i``
    is zero-mean Gaussian measurement noise.  Rates are clipped at 0.

    Defaults give a mean inter-arrival time of ~10 time steps per ingress,
    matching the load level of the paper's other traffic patterns.
    """
    if horizon <= 0 or sample_interval <= 0:
        raise ValueError("horizon and sample_interval must be > 0")
    rng = np.random.default_rng(seed)
    times: List[float] = []
    rates: List[float] = []
    t = 0.0
    while t <= horizon:
        diurnal = 1.0 + diurnal_amplitude * math.sin(2 * math.pi * t / diurnal_period)
        burst = burst_multiplier if rng.random() < burst_probability else 1.0
        noise = 1.0 + rng.normal(0.0, noise_std)
        rates.append(max(0.0, mean_rate * diurnal * burst * noise))
        times.append(t)
        t += sample_interval
    return RateTrace(tuple(times), tuple(rates))


class TraceArrival(ArrivalProcess):
    """Arrival process replaying a :class:`RateTrace`.

    Thin wrapper over :class:`~repro.traffic.arrival.RateFunctionArrival`
    with the trace's piecewise-constant rate as the intensity function.

    Args:
        trace: The rate trace to replay.
        rng: Numpy random generator (or seed) for the thinning draws.
        horizon: Optional hard stop; defaults to unbounded (the trace's
            last rate extends forever).
    """

    def __init__(self, trace: RateTrace, rng=None, horizon: Optional[float] = None) -> None:
        self.trace = trace
        max_rate = trace.max_rate
        if max_rate <= 0:
            raise ValueError("trace has zero rate everywhere; no arrivals possible")
        self._inner = RateFunctionArrival(
            trace.rate_at, max_rate=max_rate, rng=rng, horizon=horizon
        )

    def next_arrival(self, after: float) -> Optional[float]:
        return self._inner.next_arrival(after)
