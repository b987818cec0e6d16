"""Flow arrival processes.

The paper evaluates four traffic patterns (Sec. V-B):

- **fixed** — deterministic arrival every ``interval`` time steps,
- **Poisson** — exponentially distributed inter-arrival times,
- **MMPP** — a Markov-modulated Poisson process alternating between a slow
  and a fast Poisson state,
- **trace-driven** — arrival rates following real-world (here: synthetic
  diurnal) traffic traces, see :mod:`repro.traffic.traces`.

Every process implements :class:`ArrivalProcess`: a stateful iterator of
arrival times for a *single* ingress node.  A :class:`TrafficSource`
combines one process per ingress with flow attributes (service, egress,
rate, duration, deadline) and yields :class:`~repro.traffic.flows.FlowSpec`
objects in global time order, which is exactly what the simulator consumes.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.traffic.flows import FlowSpec

__all__ = [
    "ArrivalProcess",
    "FixedArrival",
    "PoissonArrival",
    "MMPPArrival",
    "RateFunctionArrival",
    "FlowTemplate",
    "TrafficSource",
]


class ArrivalProcess(ABC):
    """Generator of arrival times for one ingress node.

    Subclasses implement :meth:`next_arrival`, returning the absolute time
    of the next arrival after ``after`` (or ``None`` when the process is
    exhausted).  Processes own their random state so that different
    ingresses and different experiment seeds are independent.
    """

    @abstractmethod
    def next_arrival(self, after: float) -> Optional[float]:
        """Absolute time of the next arrival strictly after ``after``."""


class FixedArrival(ArrivalProcess):
    """Deterministic arrivals every ``interval`` time steps.

    The paper's simplest pattern: one flow every 10 time steps per ingress.

    Args:
        interval: Spacing between consecutive arrivals (> 0).
        offset: Time of the first arrival (defaults to ``interval``).
    """

    def __init__(self, interval: float = 10.0, offset: Optional[float] = None) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = interval
        self.offset = interval if offset is None else offset

    def next_arrival(self, after: float) -> Optional[float]:
        if after < self.offset:
            return self.offset
        # Smallest offset + k*interval strictly greater than `after`.
        k = math.floor((after - self.offset) / self.interval) + 1
        candidate = self.offset + k * self.interval
        while candidate <= after:
            # Float rounding can land exactly on (or before) `after` for
            # tiny intervals at large times; force strict progress so
            # callers iterating arrivals can never loop in place.
            k += 1
            candidate = self.offset + k * self.interval
        return candidate


class PoissonArrival(ArrivalProcess):
    """Poisson arrivals: i.i.d. exponential inter-arrival times.

    Args:
        mean_interval: Mean inter-arrival time (paper: 10 time steps).
        rng: Numpy random generator (or seed) for reproducibility.
    """

    def __init__(self, mean_interval: float = 10.0, rng=None) -> None:
        if mean_interval <= 0:
            raise ValueError(f"mean_interval must be > 0, got {mean_interval}")
        self.mean_interval = mean_interval
        self._rng = np.random.default_rng(rng)
        self._next: float = 0.0
        self._advance()

    def _advance(self) -> None:
        self._next += self._rng.exponential(self.mean_interval)

    def next_arrival(self, after: float) -> Optional[float]:
        while self._next <= after:
            self._advance()
        return self._next


class MMPPArrival(ArrivalProcess):
    """Markov-modulated Poisson process with two states.

    A background two-state Markov chain is evaluated every
    ``switch_interval`` time steps; with probability ``switch_probability``
    it toggles between a *slow* state (mean inter-arrival
    ``mean_interval_slow``) and a *fast* state (``mean_interval_fast``).
    The paper uses mean inter-arrivals 12 and 8 with a 5 % switch chance
    every 100 time steps.

    Args:
        mean_interval_slow: Mean inter-arrival time in the slow state.
        mean_interval_fast: Mean inter-arrival time in the fast state.
        switch_interval: How often the chain considers switching.
        switch_probability: Per-consideration switch probability.
        rng: Numpy random generator (or seed).
    """

    def __init__(
        self,
        mean_interval_slow: float = 12.0,
        mean_interval_fast: float = 8.0,
        switch_interval: float = 100.0,
        switch_probability: float = 0.05,
        rng=None,
    ) -> None:
        for label, value in (
            ("mean_interval_slow", mean_interval_slow),
            ("mean_interval_fast", mean_interval_fast),
            ("switch_interval", switch_interval),
        ):
            if value <= 0:
                raise ValueError(f"{label} must be > 0, got {value}")
        if not 0.0 <= switch_probability <= 1.0:
            raise ValueError(
                f"switch_probability must be in [0, 1], got {switch_probability}"
            )
        self.mean_interval_slow = mean_interval_slow
        self.mean_interval_fast = mean_interval_fast
        self.switch_interval = switch_interval
        self.switch_probability = switch_probability
        self._rng = np.random.default_rng(rng)
        self._fast = False
        self._next_switch_check = switch_interval
        self._next = 0.0
        self._advance()

    @property
    def current_mean_interval(self) -> float:
        return self.mean_interval_fast if self._fast else self.mean_interval_slow

    def _advance(self) -> None:
        # Advance the modulating chain up to the tentative next arrival:
        # switching changes the rate of the *subsequent* exponential draw.
        candidate = self._next + self._rng.exponential(self.current_mean_interval)
        while self._next_switch_check <= candidate:
            if self._rng.random() < self.switch_probability:
                self._fast = not self._fast
                # Redraw the residual inter-arrival at the new rate from the
                # switch point (memorylessness of the exponential).
                candidate = self._next_switch_check + self._rng.exponential(
                    self.current_mean_interval
                )
            self._next_switch_check += self.switch_interval
        self._next = candidate

    def next_arrival(self, after: float) -> Optional[float]:
        while self._next <= after:
            self._advance()
        return self._next


class RateFunctionArrival(ArrivalProcess):
    """Non-homogeneous Poisson arrivals driven by a rate function ``λ(t)``.

    Uses thinning (Lewis & Shedler): candidate arrivals are drawn at the
    supplied ``max_rate`` and accepted with probability ``λ(t)/max_rate``.
    This is the engine behind trace-driven traffic
    (:mod:`repro.traffic.traces` supplies the rate function).

    Args:
        rate_fn: Instantaneous arrival rate at time ``t`` (flows per time
            unit); must satisfy ``0 <= rate_fn(t) <= max_rate``.
        max_rate: Upper bound on ``rate_fn`` (> 0).
        rng: Numpy random generator (or seed).

    The process has no end of its own: a :class:`TrafficSource` stops at
    its horizon.
    """

    def __init__(
        self,
        rate_fn: Callable[[float], float],
        max_rate: float,
        rng=None,
    ) -> None:
        if max_rate <= 0:
            raise ValueError(f"max_rate must be > 0, got {max_rate}")
        self.rate_fn = rate_fn
        self.max_rate = max_rate
        self._rng = np.random.default_rng(rng)

    def next_arrival(self, after: float) -> Optional[float]:
        t = after
        while True:
            t += self._rng.exponential(1.0 / self.max_rate)
            rate = self.rate_fn(t)
            if rate < 0 or rate > self.max_rate * (1 + 1e-9):
                raise ValueError(
                    f"rate_fn({t}) = {rate} outside [0, max_rate={self.max_rate}]"
                )
            if self._rng.random() < rate / self.max_rate:
                return t


@dataclass(frozen=True)
class FlowTemplate:
    """Attributes shared by all flows of one ingress (everything but timing)."""

    service: str
    egress: str
    data_rate: float = 1.0
    duration: float = 1.0
    deadline: float = 100.0

    def spec_at(self, ingress: str, arrival_time: float) -> FlowSpec:
        return FlowSpec(
            service=self.service,
            ingress=ingress,
            egress=self.egress,
            data_rate=self.data_rate,
            arrival_time=arrival_time,
            duration=self.duration,
            deadline=self.deadline,
        )


class TrafficSource:
    """Merges per-ingress arrival processes into one time-ordered flow stream.

    Args:
        processes: Mapping from ingress node name to its arrival process.
        template: Flow attributes; either one shared
            :class:`FlowTemplate` or a per-ingress mapping.
    """

    def __init__(
        self,
        processes: Dict[str, ArrivalProcess],
        template,
    ) -> None:
        if not processes:
            raise ValueError("TrafficSource needs at least one ingress process")
        self._processes = dict(processes)
        if isinstance(template, FlowTemplate):
            self._templates = {ingress: template for ingress in processes}
        else:
            missing = set(processes) - set(template)
            if missing:
                raise ValueError(f"missing templates for ingresses: {sorted(missing)}")
            self._templates = dict(template)

    def flows_until(self, horizon: float) -> Iterator[FlowSpec]:
        """Yield all flows with ``arrival_time <= horizon`` in time order.

        Lazy merge over the per-ingress processes with a heap, so very long
        horizons do not require materialising all arrivals up front.
        """
        heap: List[Tuple[float, str]] = []
        for ingress, proc in self._processes.items():
            first = proc.next_arrival(0.0)
            if first is not None and first <= horizon:
                heapq.heappush(heap, (first, ingress))
        while heap:
            time, ingress = heapq.heappop(heap)
            yield self._templates[ingress].spec_at(ingress, time)
            nxt = self._processes[ingress].next_arrival(time)
            if nxt is not None and nxt <= horizon:
                heapq.heappush(heap, (nxt, ingress))
