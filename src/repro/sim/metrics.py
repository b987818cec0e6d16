"""Metrics collection for simulation runs.

The paper's headline metric is the percentage of successful flows
(objective ``o_f``, Eq. 1); Fig. 7 additionally reports the average
end-to-end delay of completed flows.  :class:`MetricsCollector` gathers
those plus per-drop-reason counts and running time-series so results can
be inspected over the course of a run.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.invariants import InvariantViolation
from repro.traffic.flows import Flow

__all__ = ["DropReason", "MetricsCollector", "SimulationMetrics"]


class DropReason:
    """String constants for why flows get dropped (stable API for tests)."""

    NODE_CAPACITY = "node_capacity"
    LINK_CAPACITY = "link_capacity"
    INVALID_ACTION = "invalid_action"
    DEADLINE_EXPIRED = "deadline_expired"
    NETWORK_FAILURE = "network_failure"

    ALL = (
        NODE_CAPACITY,
        LINK_CAPACITY,
        INVALID_ACTION,
        DEADLINE_EXPIRED,
        NETWORK_FAILURE,
    )


@dataclass(frozen=True)
class SimulationMetrics:
    """Immutable summary of one simulation run.

    Attributes:
        flows_generated: Flows injected at ingresses.
        flows_succeeded: Flows that reached their egress fully processed
            within their deadline.
        flows_dropped: Flows dropped for any reason.
        flows_active: Flows still in flight when the run was finalized.
            Those flows are *excluded* from ``success_ratio`` (Eq. 1
            divides by finished flows only), so this field is the record
            of how many outcomes the objective did not see.
        drop_reasons: Per-reason drop counts.
        success_ratio: ``|F_succ| / (|F_succ| + |F_drop|)`` — the paper's
            objective ``o_f`` over *finished* flows.  0.0 both when every
            finished flow dropped and when no flow finished at all;
            check ``flows_succeeded + flows_dropped`` (or
            ``flows_active``) to tell the two apart.
        avg_end_to_end_delay: Mean ``d_f`` over successful flows (None if
            none succeeded).
        avg_hops: Mean link traversals of successful flows.
        decisions: Total coordination decisions taken.
        horizon: Simulated time span.
    """

    flows_generated: int
    flows_succeeded: int
    flows_dropped: int
    drop_reasons: Dict[str, int]
    success_ratio: float
    avg_end_to_end_delay: Optional[float]
    avg_hops: Optional[float]
    decisions: int
    horizon: float
    flows_active: int = 0
    #: Per-phase success split when the run had a fault schedule: maps
    #: ``pre_failure`` / ``during_failure`` / ``post_recovery`` to
    #: ``{"succeeded": ..., "dropped": ..., "ratio": ...}`` counted by each
    #: flow's finish time relative to the schedule window.  None for
    #: fault-free runs.
    phase_success: Optional[Dict[str, Dict[str, float]]] = None

    def summary(self) -> str:
        """One-line human-readable summary."""
        delay = (
            f"{self.avg_end_to_end_delay:.2f}"
            if self.avg_end_to_end_delay is not None
            else "n/a"
        )
        return (
            f"flows={self.flows_generated} success={self.flows_succeeded} "
            f"dropped={self.flows_dropped} ratio={self.success_ratio:.3f} "
            f"avg_delay={delay}"
        )


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    rank = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


class MetricsCollector:
    """Accumulates flow outcomes during a simulation run.

    Args:
        phase_boundaries: ``(first onset, last recovery)`` of the run's
            fault schedule.  When given, finished flows are additionally
            tallied into pre-failure / during-failure / post-recovery
            buckets by finish time, and :meth:`phase_summary` reports the
            per-phase success split.  ``None`` (default, fault-free runs)
            disables the split entirely.
    """

    _PHASES = ("pre_failure", "during_failure", "post_recovery")

    def __init__(
        self, phase_boundaries: Optional[Tuple[float, float]] = None
    ) -> None:
        if phase_boundaries is not None and phase_boundaries[0] > phase_boundaries[1]:
            raise ValueError(
                f"phase boundaries out of order: {phase_boundaries}"
            )
        self.phase_boundaries = phase_boundaries
        self._phase_succeeded: Counter = Counter()
        self._phase_dropped: Counter = Counter()
        self.flows_generated = 0
        self.flows_succeeded = 0
        self.flows_dropped = 0
        self.drop_reasons: Counter = Counter()
        self.decisions = 0
        self._delays: List[float] = []
        self._hops: List[int] = []
        #: (time, success_ratio_so_far) samples, one per finished flow.
        self.success_series: List[Tuple[float, float]] = []

    def record_generated(self, flow: Flow) -> None:
        self.flows_generated += 1

    def record_success(self, flow: Flow) -> None:
        self.flows_succeeded += 1
        delay = flow.end_to_end_delay()
        if delay is None:
            raise InvariantViolation(
                "successful flow has no end-to-end delay recorded",
                flow_id=flow.flow_id,
            )
        self._delays.append(delay)
        self._hops.append(flow.hops)
        if self.phase_boundaries is not None:
            self._phase_succeeded[self._phase_of(flow.finish_time)] += 1
        self._sample(flow.finish_time)

    def record_drop(self, flow: Flow, reason: str) -> None:
        self.flows_dropped += 1
        self.drop_reasons[reason] += 1
        if self.phase_boundaries is not None:
            self._phase_dropped[self._phase_of(flow.finish_time)] += 1
        self._sample(flow.finish_time)

    def _phase_of(self, time: Optional[float]) -> str:
        """Phase bucket of a finish time relative to the fault window."""
        if self.phase_boundaries is None:
            raise InvariantViolation("phase classification without boundaries")
        onset, recovery = self.phase_boundaries
        if time is None or time < onset:
            return "pre_failure"
        if time < recovery:
            return "during_failure"
        return "post_recovery"

    def _sample(self, time: Optional[float]) -> None:
        finished = self.flows_succeeded + self.flows_dropped
        if time is None or finished <= 0:
            return
        self.success_series.append((time, self.flows_succeeded / finished))

    @property
    def flows_active(self) -> int:
        """Flows injected but not yet finished (succeeded or dropped)."""
        return self.flows_generated - self.flows_succeeded - self.flows_dropped

    @property
    def success_ratio(self) -> float:
        """Objective ``o_f`` over *finished* flows so far (Eq. 1).

        Returns 0.0 in two distinct situations: before any flow has
        finished (nothing to divide by) and when every finished flow was
        dropped.  Callers that must distinguish them should inspect
        ``flows_succeeded + flows_dropped`` or :attr:`flows_active`.
        In-flight flows never count: they are excluded from the objective
        (they surface as ``flows_active`` in :class:`SimulationMetrics`).
        """
        finished = self.flows_succeeded + self.flows_dropped
        return self.flows_succeeded / finished if finished else 0.0

    def delay_summary(self) -> Optional[Dict[str, float]]:
        """Histogram summary of successful-flow delays (None if none).

        Returns count/min/p50/mean/p95/max — the compact form emitted in
        ``sim_run`` telemetry records.
        """
        if not self._delays:
            return None
        ordered = sorted(self._delays)
        return {
            "count": float(len(ordered)),
            "min": ordered[0],
            "p50": _percentile(ordered, 0.50),
            "mean": sum(ordered) / len(ordered),
            "p95": _percentile(ordered, 0.95),
            "max": ordered[-1],
        }

    def phase_summary(self) -> Optional[Dict[str, Dict[str, float]]]:
        """Per-phase success split, or None without phase boundaries.

        Each phase maps to succeeded/dropped counts and the success ratio
        over flows that finished in that phase (0.0 when none did).
        """
        if self.phase_boundaries is None:
            return None
        summary: Dict[str, Dict[str, float]] = {}
        for phase in self._PHASES:
            succeeded = self._phase_succeeded[phase]
            dropped = self._phase_dropped[phase]
            finished = succeeded + dropped
            summary[phase] = {
                "succeeded": float(succeeded),
                "dropped": float(dropped),
                "ratio": succeeded / finished if finished else 0.0,
            }
        return summary

    def finalize(self, horizon: float) -> SimulationMetrics:
        """Freeze the collected counters into a :class:`SimulationMetrics`."""
        return SimulationMetrics(
            flows_generated=self.flows_generated,
            flows_succeeded=self.flows_succeeded,
            flows_dropped=self.flows_dropped,
            drop_reasons=dict(self.drop_reasons),
            success_ratio=self.success_ratio,
            avg_end_to_end_delay=(
                sum(self._delays) / len(self._delays) if self._delays else None
            ),
            avg_hops=(sum(self._hops) / len(self._hops) if self._hops else None),
            decisions=self.decisions,
            horizon=horizon,
            flows_active=self.flows_active,
            phase_success=self.phase_summary(),
        )
