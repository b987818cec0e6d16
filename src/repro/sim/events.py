"""Discrete-event machinery for the flow-level simulator.

The simulator (Sec. III's model) is event-driven over continuous time.
This module provides the event taxonomy and a stable priority queue:
events fire in time order, with FIFO tie-breaking for simultaneous events
so that simulation runs are fully deterministic given the same inputs.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum, auto
from typing import Any, List, Optional, Tuple

from repro.analysis.invariants import InvariantViolation

__all__ = [
    "EventKind",
    "Event",
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


class Event:
    """One scheduled event.

    ``payload`` is event-kind specific:

    - FLOW_INJECTION: :class:`~repro.traffic.flows.FlowSpec`
    - DECISION, PROCESSING_DONE, LINK_ARRIVAL, FLOW_EXPIRY:
      :class:`~repro.traffic.flows.Flow`
    - RELEASE_NODE / RELEASE_LINK: an allocation record
      (:class:`repro.sim.state.Allocation`)
    - INSTANCE_TIMEOUT: ``(node_name, component_name, due_time)``
    - FAULT: ``(FaultSpec, is_onset)`` — see :mod:`repro.faults`

    ``cancelled`` is a property rather than a plain attribute: flipping it
    while the event sits in an :class:`EventQueue` keeps the queue's live
    count exact, so ``len(queue)`` stays O(1) no matter how many lazy
    cancellations pile up in the heap.
    """

    __slots__ = ("time", "kind", "payload", "node", "_cancelled", "_queue")

    def __init__(
        self,
        time: float,
        kind: EventKind,
        payload: Any = None,
        node: Optional[str] = None,
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.kind = kind
        self.payload = payload
        #: Extra context (e.g. the node for PROCESSING_DONE / LINK_ARRIVAL).
        self.node = node
        self._cancelled = bool(cancelled)
        self._queue: Optional["EventQueue"] = None

    @property
    def cancelled(self) -> bool:
        """Set to True to make the event a no-op when popped (cheap cancel)."""
        return self._cancelled

    @cancelled.setter
    def cancelled(self, value: bool) -> None:
        value = bool(value)
        if value != self._cancelled and self._queue is not None:
            self._queue._live += -1 if value else 1
        self._cancelled = value

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, kind={self.kind!r}, "
            f"payload={self.payload!r}, node={self.node!r}, "
            f"cancelled={self._cancelled!r})"
        )


class EventQueue:
    """Time-ordered event queue with deterministic FIFO tie-breaking.

    Cancelled entries stay in the heap (lazy deletion) but a live-event
    counter — updated on push/pop and by the :attr:`Event.cancelled`
    setter — keeps ``len()`` and ``bool()`` O(1).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def push(self, event: Event) -> Event:
        """Schedule ``event``; returns it (handy for keeping cancel handles)."""
        # ``not (t >= 0)`` rather than ``t < 0``: NaN fails every ordering
        # comparison, so it would pass a ``<`` guard and then sit in the
        # heap unordered.
        if not (event.time >= 0):
            raise ValueError(
                f"cannot schedule event at negative or NaN time: {event.time}"
            )
        if event._queue is not None:
            raise ValueError("event is already scheduled in a queue")
        event._queue = self
        if not event._cancelled:
            self._live += 1
        heapq.heappush(self._heap, (event.time, next(self._counter), event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or None."""
        while self._heap:
            _, _, event = heapq.heappop(self._heap)
            event._queue = None
            if not event._cancelled:
                self._live -= 1
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest non-cancelled event, or None when empty."""
        while self._heap and self._heap[0][2]._cancelled:
            _, _, event = heapq.heappop(self._heap)
            event._queue = None
        return self._heap[0][0] if self._heap else None

    def has_due(self, now: float) -> bool:
        """True when an entry is queued at or before ``now``.

        Reads the heap's head only, so a cancelled entry still waiting
        for lazy deletion counts as due.  The simulator asks this before
        handing a decision straight to its caller: a yes sends the
        decision through the heap instead, which is always correct.
        """
        heap = self._heap
        if not heap:
            return False
        return heap[0][0] <= now

    def pop_due(self, horizon: float) -> Optional[Event]:
        """Pop the earliest live event with ``time <= horizon``, or None.

        Equivalent to ``peek_time()`` followed by ``pop()`` but in a
        single heap pass; an event beyond the horizon stays queued.  This
        is the simulator's per-event fast path.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2]._cancelled:
                _, _, event = heapq.heappop(heap)
                event._queue = None
                continue
            if head[0] > horizon:
                return None
            _, _, event = heapq.heappop(heap)
            event._queue = None
            self._live -= 1
            return event
        return None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def validate(self) -> None:
        """Recount live heap entries against the O(1) counter.

        The sanitizer (``REPRO_CHECK_INVARIANTS=1``) calls this after
        every event: a mismatch means a cancellation path bypassed the
        :attr:`Event.cancelled` setter or an event escaped the queue
        without adjusting the counter.  O(heap size) — debug only.

        Raises:
            InvariantViolation: The counter and the heap disagree.
        """
        actual = sum(1 for _, _, event in self._heap if not event._cancelled)
        if actual != self._live:
            raise InvariantViolation(
                "event-queue live-count counter out of sync with heap",
                counter=self._live,
                recount=actual,
                heap_size=len(self._heap),
            )
