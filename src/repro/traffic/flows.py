"""Flow model.

A flow (Sec. III-A) is defined by
``f = (s_f, c_f, v_in, v_eg, λ_f, t_in, δ_f, τ_f)``: its requested service
and the component it currently requests, its ingress/egress nodes, data
rate, arrival time, duration, and deadline.  The *mutable* progress of the
flow through the network (current node, current component index, delay
accumulated so far) is tracked here too, because the flow object is the
unit that moves through the simulator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.services.service import Service

__all__ = ["Flow", "FlowStatus", "FlowSpec"]


class FlowStatus(Enum):
    """Lifecycle state of a flow inside the simulator."""

    ACTIVE = "active"
    SUCCEEDED = "succeeded"
    DROPPED = "dropped"


@dataclass(frozen=True)
class FlowSpec:
    """Immutable description of a flow as produced by a traffic source.

    Attributes:
        service: Name of the requested service ``s_f``.
        ingress: Arrival node ``v^in_f``.
        egress: Destination node ``v^eg_f``.
        data_rate: ``λ_f`` — the rate traversed links carry and instances
            process (instances may in principle change it; the base model
            keeps it constant).
        arrival_time: ``t^in_f``.
        duration: ``δ_f`` — temporal length of the flow (fluid model: the
            tail arrives ``δ_f`` after the head).
        deadline: ``τ_f`` — maximum acceptable end-to-end delay, relative
            to the arrival time.
    """

    service: str
    ingress: str
    egress: str
    data_rate: float = 1.0
    arrival_time: float = 0.0
    duration: float = 1.0
    deadline: float = 100.0

    def __post_init__(self) -> None:
        # Negated comparisons so NaN (false under every ordering) is refused.
        if not (self.data_rate > 0):
            raise ValueError(f"flow data_rate must be > 0, got {self.data_rate}")
        if not (self.duration > 0):
            raise ValueError(f"flow duration must be > 0, got {self.duration}")
        if not (self.deadline > 0):
            raise ValueError(f"flow deadline must be > 0, got {self.deadline}")
        if not (self.arrival_time >= 0):
            raise ValueError(f"flow arrival_time must be >= 0, got {self.arrival_time}")


class Flow:
    """A flow moving through the network.

    Combines the immutable :class:`FlowSpec` with mutable progress state:
    the node currently holding the flow's head, the index of the component
    the flow requests next (``c_f``; ``None`` once fully processed), and
    bookkeeping for metrics (hops taken, instances traversed).

    Flow identity: every flow gets a unique integer ``flow_id`` from a
    process-wide counter, so flows are hashable and usable as dict keys in
    the simulator state.

    ``service_obj`` optionally caches the resolved :class:`Service` the
    flow requests — the simulator passes it at injection so per-decision
    hot paths skip the catalog lookup — and ``demands`` caches the
    per-component resource demand ``r_c(λ_f)`` for this flow's (constant)
    data rate.  Both stay None for hand-built flows; consumers must fall
    back to the catalog then.
    """

    __slots__ = (
        "flow_id", "spec", "chain_length", "component_index", "current_node",
        "status", "finish_time", "drop_reason", "hops", "instances_traversed",
        "service_obj", "demands",
    )

    _ids = itertools.count()

    def __init__(
        self,
        spec: FlowSpec,
        chain_length: int,
        service: Optional["Service"] = None,
    ) -> None:
        if chain_length < 1:
            raise ValueError("chain_length must be >= 1")
        self.flow_id: int = next(Flow._ids)
        self.spec = spec
        self.chain_length = chain_length
        #: Resolved service chain (see class docstring); None if not given.
        self.service_obj: Optional["Service"] = service
        #: Per-component resource demand for this flow's data rate
        #: (``r_c(λ_f)`` is pure in λ_f, so it can be computed once).
        self.demands: Optional[Tuple[float, ...]] = (
            tuple(c.resources(spec.data_rate) for c in service.components)
            if service is not None
            else None
        )
        #: Index into the service chain of the component the flow requests
        #: next; ``None`` means fully processed (``c_f = ∅``).
        self.component_index: Optional[int] = 0
        #: Node currently holding the flow's head.
        self.current_node: str = spec.ingress
        self.status: FlowStatus = FlowStatus.ACTIVE
        #: Simulation time at which the flow finished (success or drop).
        self.finish_time: Optional[float] = None
        #: Why the flow was dropped (None while active / on success).
        self.drop_reason: Optional[str] = None
        #: Number of link traversals so far.
        self.hops: int = 0
        #: Number of component instances traversed so far.
        self.instances_traversed: int = 0

    # -- convenient passthroughs ----------------------------------------

    @property
    def service(self) -> str:
        return self.spec.service

    @property
    def egress(self) -> str:
        return self.spec.egress

    @property
    def data_rate(self) -> float:
        return self.spec.data_rate

    @property
    def duration(self) -> float:
        return self.spec.duration

    @property
    def deadline(self) -> float:
        return self.spec.deadline

    @property
    def arrival_time(self) -> float:
        return self.spec.arrival_time

    # -- progress --------------------------------------------------------

    @property
    def fully_processed(self) -> bool:
        """True once the flow traversed the last component (``c_f = ∅``)."""
        return self.component_index is None

    def advance_component(self) -> None:
        """Mark the current component as traversed, moving to the next one."""
        if self.component_index is None:
            raise RuntimeError(f"flow {self.flow_id} is already fully processed")
        self.instances_traversed += 1
        nxt = self.component_index + 1
        self.component_index = nxt if nxt < self.chain_length else None

    def remaining_time(self, now: float) -> float:
        """``τ^t_f`` — time left until the deadline (may be negative)."""
        return self.deadline - (now - self.arrival_time)

    def end_to_end_delay(self) -> Optional[float]:
        """``d_f = t^out_f - t^in_f`` once finished; None while active."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def mark_succeeded(self, now: float) -> None:
        if self.status is not FlowStatus.ACTIVE:
            raise RuntimeError(f"flow {self.flow_id} already finished ({self.status})")
        self.status = FlowStatus.SUCCEEDED
        self.finish_time = now

    def mark_dropped(self, now: float, reason: str) -> None:
        if self.status is not FlowStatus.ACTIVE:
            raise RuntimeError(f"flow {self.flow_id} already finished ({self.status})")
        self.status = FlowStatus.DROPPED
        self.finish_time = now
        self.drop_reason = reason

    def __hash__(self) -> int:
        return self.flow_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Flow) and other.flow_id == self.flow_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flow(id={self.flow_id}, service={self.service!r}, "
            f"at={self.current_node!r}, component={self.component_index}, "
            f"status={self.status.value})"
        )
