"""Online decision-serving engine with dynamic micro-batching.

The paper's coordinators make one decision per flow per node — a serving
workload.  :class:`ServingEngine` accepts per-node coordination requests
(observation vectors), coalesces them in a preallocated ring-buffer
queue (:class:`~repro.serving.queue.RingBufferQueue`), and flushes
micro-batches under a **dual trigger**: the queue reaching the maximum
batch size B, or the oldest request ageing past the latency deadline D.
Each flush runs **one** batched actor forward over the whole batch
through the :class:`~repro.nn.mlp.MLPInference` preallocated workspaces
— the same machinery the batched evaluation engine uses — so the
per-request cost at saturation is the per-row share of a GEMM instead of
a full batch-1 forward.

Bit-identity (float64 mode)
---------------------------

Every response is the actor's greedy (argmax) action, bitwise-identical
to calling ``policy.act_single`` serially on the same observation.  Each
flush hands its logits to
:meth:`~repro.rl.policy.ActorCriticPolicy.select_actions` — the select
lockstep evaluation runs too, which owns the near-tie guard.

Float32 mode trades the guarantee for throughput (workspace-cast
weights, no near-tie guard), as in lockstep evaluation.

Weight hot-swap
---------------

:meth:`install` stages a new policy from any thread (the staging slot is
lock-guarded); the engine applies it **at the start of the next flush**,
never mid-batch, so every response of one flush carries one
``policy_version`` and queued requests are neither dropped nor
reordered by a swap.  This is the policy-synchronization hook for
coordinators that keep serving while training continues elsewhere.

Backpressure
------------

The queue depth is capped; :meth:`submit` returns ``None`` for a shed
request and the engine counts sheds — under overload the caller sees
load-shedding instead of unbounded latency.  A submit costs one row copy
into the request's ring slot plus one finiteness classification of it;
ids are implicit (accepted requests are numbered consecutively, so a
flush's ids are a range) and enqueue times stay Python floats.

The engine core (submit/poll/flush) is single-threaded by design — one
driver loop owns it; only :meth:`install` may be called concurrently.
All time handling goes through an injectable ``clock`` so tests drive
triggers with a virtual clock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.analysis.invariants import InvariantViolation
from repro.nn.mlp import resolve_eval_dtype
from repro.rl.policy import ActorCriticPolicy
from repro.serving.queue import RingBufferQueue
from repro.serving.records import Decision, ServingStats
from repro.telemetry import NULL_RECORDER, Recorder

__all__ = ["ServingConfig", "ServingEngine"]


@dataclass(frozen=True)
class ServingConfig:
    """Micro-batching knobs of one serving engine.

    Attributes:
        max_batch: Flush size trigger B — a flush serves at most this
            many requests in one batched forward (CLI ``--serve-batch``).
        deadline_s: Latency deadline D in seconds — a flush fires once
            the oldest queued request has waited this long, even if the
            batch is not full (CLI ``--serve-deadline-ms``).
        queue_capacity: Backpressure cap on queued requests; submits
            beyond it are shed.  Default: ``4 * max_batch``.
        dtype: ``"f64"`` (bit-identical to serial ``policy.act``) or
            ``"f32"`` (fast mode).
    """

    max_batch: int = 32
    deadline_s: float = 0.002
    queue_capacity: Optional[int] = None
    dtype: str = "f64"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not self.deadline_s > 0.0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.queue_capacity is not None and self.queue_capacity < self.max_batch:
            raise ValueError(
                f"queue_capacity ({self.queue_capacity}) must be >= "
                f"max_batch ({self.max_batch})"
            )

    @property
    def effective_queue_capacity(self) -> int:
        return (
            self.queue_capacity
            if self.queue_capacity is not None
            else 4 * self.max_batch
        )


class ServingEngine:
    """Micro-batching decision server over one actor network.

    Args:
        policy: Initial policy (version 0); swap with :meth:`install`.
        config: Batching/deadline/backpressure knobs.
        clock: Monotonic time source (seconds).  Injectable so tests
            drive the deadline trigger deterministically; defaults to
            ``time.perf_counter``.
        recorder: Telemetry sink for :meth:`emit_telemetry`.
    """

    def __init__(
        self,
        policy: ActorCriticPolicy,
        config: ServingConfig = ServingConfig(),
        clock: Callable[[], float] = time.perf_counter,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.config = config
        self.clock = clock
        self.recorder = recorder
        self.stats = ServingStats()
        self._policy = policy
        self._dtype = resolve_eval_dtype(config.dtype)
        self._inference = policy.actor_inference(dtype=self._dtype)
        self._version = 0
        self._staged: Optional[Tuple[ActorCriticPolicy, Optional[int]]] = None
        self._swap_lock = threading.Lock()
        self._queue = RingBufferQueue(
            config.effective_queue_capacity, policy.obs_dim
        )
        # Accepted requests get consecutive ids, so the queue keeps none:
        # the pending ones are the last len(queue) ids below _next_id.
        self._next_id = 0
        self._flush_index = 0
        # The batch rows are the actor workspace's own input rows.
        self._actions = np.empty(config.max_batch, dtype=np.intp)

    # ------------------------------------------------------------------

    @property
    def policy(self) -> ActorCriticPolicy:
        """The currently *applied* policy (staged swaps not yet visible)."""
        return self._policy

    @property
    def policy_version(self) -> int:
        return self._version

    @property
    def pending(self) -> int:
        """Requests waiting in the queue."""
        return len(self._queue)

    @property
    def queue_full(self) -> bool:
        return self._queue.is_full

    # ------------------------------------------------------------------

    def submit(
        self, obs: np.ndarray, now: Optional[float] = None
    ) -> Optional[int]:
        """Enqueue one coordination request; returns its request id, or
        ``None`` when the queue is at capacity (the request is shed —
        the backpressure signal).  Never flushes; pair with
        :meth:`poll`."""
        if now is None:
            now = self.clock()
        # A malformed payload (wrong shape, NaN or inf) raises here, before
        # it is counted: only requests the queue accepted or shed enter
        # the accounting.
        depth = self._queue.push(obs, now)
        stats = self.stats
        stats.submitted += 1
        if not depth:
            stats.shed += 1
            return None
        request_id = self._next_id
        self._next_id = request_id + 1
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        return request_id

    def ready(self, now: Optional[float] = None) -> Optional[str]:
        """The trigger that would fire a flush right now (``"size"`` /
        ``"deadline"``), or None when no flush is due."""
        depth = len(self._queue)
        if depth == 0:
            return None
        if depth >= self.config.max_batch:
            return "size"
        if now is None:
            now = self.clock()
        if now - self._queue.oldest_enqueue_time() >= self.config.deadline_s:
            return "deadline"
        return None

    def poll(self, now: Optional[float] = None) -> List[Decision]:
        """Flush one micro-batch if a trigger is due; else return []."""
        trigger = self.ready(now)
        if trigger is None:
            return []
        return self._flush(trigger)

    def flush(self) -> List[Decision]:
        """Force one flush of up to ``max_batch`` requests regardless of
        triggers (used to drain tails); [] when the queue is empty."""
        if len(self._queue) == 0:
            return []
        return self._flush("forced")

    def drain(self) -> List[Decision]:
        """Force flushes until the queue is empty; returns all decisions."""
        decisions: List[Decision] = []
        while len(self._queue):
            decisions.extend(self._flush("forced"))
        return decisions

    # ------------------------------------------------------------------

    def install(
        self, policy: ActorCriticPolicy, version: Optional[int] = None
    ) -> None:
        """Stage a policy hot-swap; applied atomically at the start of
        the next flush (never mid-batch).  Thread-safe: a trainer thread
        may call this while the serving loop runs.  ``version`` labels
        the new policy (default: current version + 1 at apply time).
        Staging twice between flushes keeps only the latest policy."""
        if (
            policy.obs_dim != self._policy.obs_dim
            or policy.num_actions != self._policy.num_actions
        ):
            raise ValueError(
                f"hot-swap shape mismatch: serving ({self._policy.obs_dim} obs, "
                f"{self._policy.num_actions} actions) vs installed "
                f"({policy.obs_dim} obs, {policy.num_actions} actions)"
            )
        with self._swap_lock:
            self._staged = (policy, version)

    def _apply_staged_swap(self) -> None:
        with self._swap_lock:
            staged = self._staged
            self._staged = None
        if staged is None:
            return
        policy, version = staged
        self._policy = policy
        self._inference.rebind(policy.actor)
        self._version = self._version + 1 if version is None else version
        self.stats.swaps += 1

    # ------------------------------------------------------------------

    def _flush(self, trigger: str) -> List[Decision]:
        # Swap boundary: a staged policy becomes current *before* the
        # batch is drained, so the entire flush is served by one version.
        self._apply_staged_swap()
        start = self.clock()
        # The queue pops straight into the forward's input rows; every
        # width is a prefix of the widest, so x below aliases what was
        # popped and the forward copies nothing.
        max_batch = self.config.max_batch
        enqueue_times = self._queue.pop_into(
            self._inference.input_rows(max_batch), max_batch
        )
        n = len(enqueue_times)
        if n == 0:
            raise InvariantViolation("flush fired on an empty queue")
        first_id = self._next_id - len(self._queue) - n
        x = self._inference.input_rows(n)
        f0 = self.clock()
        logits = self._inference.forward(x)
        forward_seconds = self.clock() - f0
        actions = self._actions[:n]
        tie_fallbacks = self._policy.select_actions(logits, x, actions)
        completion = self.clock()
        flush_index = self._flush_index
        self._flush_index = flush_index + 1
        version = self._version
        decisions = [
            Decision(
                request_id, action, version, enqueue_time,
                completion, n, flush_index, trigger,
            )
            for request_id, action, enqueue_time in zip(
                range(first_id, first_id + n), actions.tolist(), enqueue_times
            )
        ]
        self.stats.record_flush(
            batch_size=n,
            trigger=trigger,
            latencies=[completion - t for t in enqueue_times],
            flush_seconds=completion - start,
            forward_seconds=forward_seconds,
            tie_fallbacks=tie_fallbacks,
        )
        return decisions

    # ------------------------------------------------------------------

    def emit_telemetry(self, **extra: Any) -> None:
        """Emit one ``serving`` record with the engine's configuration
        merged in (no-op when the recorder is disabled)."""
        self.stats.emit(
            self.recorder,
            batch=self.config.max_batch,
            deadline_ms=self.config.deadline_s * 1e3,
            queue_capacity=self.config.effective_queue_capacity,
            dtype=str(self._dtype),
            policy_version=self._version,
            **extra,
        )
