"""Response and statistics records of the serving engine."""

from __future__ import annotations

from array import array
from typing import Any, Dict, List

import numpy as np

from repro.telemetry import Recorder

__all__ = ["Decision", "ServingStats"]

#: Cap on retained latency samples (percentiles stay exact up to this
#: many served requests; beyond it new samples are dropped and counted).
#: Stored as 8-byte machine doubles, a full store is 2 MB per engine.
_MAX_LATENCY_SAMPLES = 250_000


class Decision:
    """One served coordination decision (the response to one request)."""

    __slots__ = (
        "request_id",
        "action",
        "policy_version",
        "enqueue_time",
        "completion_time",
        "batch_size",
        "flush_index",
        "trigger",
    )

    def __init__(
        self,
        request_id: int,
        action: int,
        policy_version: int,
        enqueue_time: float,
        completion_time: float,
        batch_size: int,
        flush_index: int,
        trigger: str,
    ) -> None:
        self.request_id = request_id
        self.action = action
        self.policy_version = policy_version
        self.enqueue_time = enqueue_time
        self.completion_time = completion_time
        self.batch_size = batch_size
        self.flush_index = flush_index
        self.trigger = trigger

    @property
    def latency_seconds(self) -> float:
        """Enqueue-to-completion latency (queueing + batched forward)."""
        return self.completion_time - self.enqueue_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Decision(id={self.request_id}, action={self.action}, "
            f"v{self.policy_version}, flush={self.flush_index}/"
            f"{self.batch_size} [{self.trigger}], "
            f"latency={self.latency_seconds * 1e3:.3f}ms)"
        )


class ServingStats:
    """Counters and latency samples accumulated by one serving engine.

    ``latencies`` is an ``array("d")``: each enqueue-to-completion sample
    is one 8-byte machine double, not a 24-byte Python float behind an
    8-byte list slot, so the capped store is 2 MB rather than 8 MB.  It
    answers ``len``, truth value, slicing and iteration as a list does.
    """

    __slots__ = (
        "submitted",
        "served",
        "shed",
        "flushes",
        "size_flushes",
        "deadline_flushes",
        "forced_flushes",
        "swaps",
        "tie_fallbacks",
        "max_queue_depth",
        "batch_histogram",
        "latencies",
        "latency_samples_dropped",
        "forward_seconds",
        "max_flush_seconds",
        "wall_seconds",
    )

    def __init__(self) -> None:
        self.submitted = 0
        self.served = 0
        self.shed = 0
        self.flushes = 0
        self.size_flushes = 0
        self.deadline_flushes = 0
        self.forced_flushes = 0
        self.swaps = 0
        self.tie_fallbacks = 0
        self.max_queue_depth = 0
        self.batch_histogram: Dict[int, int] = {}
        self.latencies = array("d")
        self.latency_samples_dropped = 0
        self.forward_seconds = 0.0
        self.max_flush_seconds = 0.0
        self.wall_seconds = 0.0

    # ------------------------------------------------------------------

    def record_flush(
        self,
        batch_size: int,
        trigger: str,
        latencies: List[float],
        flush_seconds: float,
        forward_seconds: float,
        tie_fallbacks: int,
    ) -> None:
        self.served += batch_size
        self.flushes += 1
        if trigger == "size":
            self.size_flushes += 1
        elif trigger == "deadline":
            self.deadline_flushes += 1
        else:
            self.forced_flushes += 1
        self.batch_histogram[batch_size] = (
            self.batch_histogram.get(batch_size, 0) + 1
        )
        room = _MAX_LATENCY_SAMPLES - len(self.latencies)
        if room >= len(latencies):
            self.latencies.extend(latencies)
        else:
            self.latencies.extend(latencies[:room])
            self.latency_samples_dropped += len(latencies) - room
        self.forward_seconds += forward_seconds
        self.max_flush_seconds = max(self.max_flush_seconds, flush_seconds)
        self.tie_fallbacks += tie_fallbacks

    # ------------------------------------------------------------------

    @property
    def mean_batch(self) -> float:
        return self.served / self.flushes if self.flushes else 0.0

    @property
    def max_batch(self) -> int:
        return max(self.batch_histogram, default=0)

    @property
    def decisions_per_second(self) -> float:
        return self.served / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_percentiles_ms(self) -> Dict[str, float]:
        """p50/p95/p99/max enqueue-to-completion latency in milliseconds
        (NaN when nothing was served)."""
        if not self.latencies:
            nan = float("nan")
            return {"p50": nan, "p95": nan, "p99": nan, "max": nan}
        samples = np.frombuffer(self.latencies, dtype=np.float64)
        p50, p95, p99 = np.percentile(samples, [50.0, 95.0, 99.0])
        return {
            "p50": float(p50) * 1e3,
            "p95": float(p95) * 1e3,
            "p99": float(p99) * 1e3,
            "max": float(samples.max()) * 1e3,
        }

    # ------------------------------------------------------------------

    def to_record(self, **extra: Any) -> Dict[str, Any]:
        """Field dict of one ``serving`` telemetry record (callers merge
        engine configuration — batch, deadline, queue capacity — via
        ``extra``)."""
        pct = self.latency_percentiles_ms()
        fields: Dict[str, Any] = {
            "requests": self.submitted,
            "served": self.served,
            "shed": self.shed,
            "flushes": self.flushes,
            "size_flushes": self.size_flushes,
            "deadline_flushes": self.deadline_flushes,
            "forced_flushes": self.forced_flushes,
            "swaps": self.swaps,
            "tie_fallbacks": self.tie_fallbacks,
            "max_queue_depth": self.max_queue_depth,
            "mean_batch": self.mean_batch,
            "max_batch": self.max_batch,
            "batch_histogram": {
                str(k): v for k, v in sorted(self.batch_histogram.items())
            },
            "forward_seconds": self.forward_seconds,
            "max_flush_ms": self.max_flush_seconds * 1e3,
            "wall_seconds": self.wall_seconds,
            "decisions_per_second": self.decisions_per_second,
        }
        if self.latencies:
            fields["latency_p50_ms"] = pct["p50"]
            fields["latency_p95_ms"] = pct["p95"]
            fields["latency_p99_ms"] = pct["p99"]
            fields["latency_max_ms"] = pct["max"]
        if self.latency_samples_dropped:
            fields["latency_samples_dropped"] = self.latency_samples_dropped
        fields.update(extra)
        return fields

    def emit(self, recorder: Recorder, **extra: Any) -> None:
        """Write one ``serving`` telemetry record (no-op when disabled)."""
        if not recorder.enabled:
            return
        recorder.emit("serving", **self.to_record(**extra))
