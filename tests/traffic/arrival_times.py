"""Arrival times of a process up to a horizon — how the tests read an
:class:`~repro.traffic.arrival.ArrivalProcess` (the simulator pulls one
arrival at a time and never needs the list)."""

from __future__ import annotations

from typing import List

from repro.traffic.arrival import ArrivalProcess


def arrivals_until(process: ArrivalProcess, horizon: float) -> List[float]:
    """All arrival times of ``process`` in ``(0, horizon]``."""
    times: List[float] = []
    t = 0.0
    while True:
        nxt = process.next_arrival(t)
        if nxt is None or nxt > horizon:
            break
        times.append(nxt)
        t = nxt
    return times
