"""Traffic substrate: flow model, arrival processes, traces."""

from repro.traffic.flows import Flow, FlowSpec, FlowStatus
from repro.traffic.arrival import (
    ArrivalProcess,
    FixedArrival,
    FlowTemplate,
    MMPPArrival,
    PoissonArrival,
    RateFunctionArrival,
    TrafficSource,
)
from repro.traffic.traces import (
    RateTrace,
    TraceArrival,
    synthetic_abilene_trace,
)

__all__ = [
    "Flow",
    "FlowSpec",
    "FlowStatus",
    "ArrivalProcess",
    "FixedArrival",
    "FlowTemplate",
    "MMPPArrival",
    "PoissonArrival",
    "RateFunctionArrival",
    "TrafficSource",
    "RateTrace",
    "TraceArrival",
    "synthetic_abilene_trace",
]
