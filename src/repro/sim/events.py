"""Discrete-event machinery for the flow-level simulator.

The simulator (Sec. III's model) is event-driven over continuous time.
This module provides the event taxonomy and a stable priority queue:
events fire in time order, with FIFO tie-breaking for simultaneous events
so that simulation runs are fully deterministic given the same inputs.

An entry is a plain ``(time, seq, kind, payload, node)`` tuple, and
every entry is popped in its turn: nothing is taken out early.  An event
left over by a finished flow reaches a handler that ignores it (the flow
is no longer active, the allocation is already released).

``payload`` is event-kind specific:

- FLOW_INJECTION: :class:`~repro.traffic.flows.FlowSpec`
- DECISION, PROCESSING_DONE, LINK_ARRIVAL, FLOW_EXPIRY:
  :class:`~repro.traffic.flows.Flow`
- RELEASE_NODE / RELEASE_LINK: an allocation record
  (:class:`repro.sim.state.Allocation`)
- INSTANCE_TIMEOUT: ``(node_name, component_name, due_time)``
- FAULT: ``(FaultSpec, is_onset)`` — see :mod:`repro.faults`

``node`` is extra context: the destination of a LINK_ARRIVAL, else None.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum, auto
from typing import Any, List, Optional, Tuple

__all__ = [
    "EventKind",
    "EventQueue",
]


class EventKind(Enum):
    """All event types the simulator processes."""

    #: A new flow enters the network at its ingress node.
    FLOW_INJECTION = auto()
    #: A flow's head is at a node and the coordination policy must act.
    DECISION = auto()
    #: A component instance finished processing a flow's head.
    PROCESSING_DONE = auto()
    #: A flow's head arrives at the far end of a link.
    LINK_ARRIVAL = auto()
    #: A node-resource allocation ends (flow tail left the instance).
    RELEASE_NODE = auto()
    #: A link-rate allocation ends (flow tail left the link).
    RELEASE_LINK = auto()
    #: Check whether an idle instance should be removed (scale-in).
    INSTANCE_TIMEOUT = auto()
    #: A flow's deadline τ_f elapsed; drop it if still active.
    FLOW_EXPIRY = auto()
    #: A scheduled fault changes state (onset or recovery).
    FAULT = auto()


#: One queued event: ``(time, seq, kind, payload, node)``.  ``seq`` is
#: unique, so two entries never compare beyond it.
Entry = Tuple[float, int, EventKind, Any, Optional[str]]


class EventQueue:
    """Time-ordered event queue with deterministic FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._counter = itertools.count()

    def push(
        self, time: float, kind: EventKind, payload: Any,
        node: Optional[str] = None,
    ) -> None:
        """Schedule an event of ``kind`` at ``time``."""
        # ``not (t >= 0)`` rather than ``t < 0``: NaN fails every ordering
        # comparison, so it would pass a ``<`` guard and then sit in the
        # heap unordered.  ``+inf`` is admitted and sorts last.
        if not (time >= 0):
            raise ValueError(
                f"cannot schedule event at negative or NaN time: {time}"
            )
        heapq.heappush(
            self._heap, (time, next(self._counter), kind, payload, node)
        )

    def has_due(self, now: float) -> bool:
        """True when an entry is queued at or before ``now``.

        Reads the heap's head only.  The simulator asks this before
        handing a decision straight to its caller: a yes sends the
        decision through the heap instead, which is always correct.
        """
        heap = self._heap
        if not heap:
            return False
        return heap[0][0] <= now

    def pop_due(self, horizon: float) -> Optional[Entry]:
        """Pop the earliest entry with ``time <= horizon``, or None.

        An entry beyond the horizon stays queued.
        """
        heap = self._heap
        if heap and heap[0][0] <= horizon:
            return heapq.heappop(heap)
        return None
