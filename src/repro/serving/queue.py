"""Preallocated ring-buffer request queue for the serving engine.

One serving engine owns exactly one :class:`RingBufferQueue`.  The queue
stores pending observation vectors (always float64 — the float32 fast
path casts once inside the batched forward workspace, not per request),
request ids, and enqueue timestamps in fixed-capacity parallel arrays.
``push`` and ``pop_into`` never allocate: a push writes one row in
place, a pop copies the FIFO prefix into caller-owned batch workspaces
with at most two slice copies (wraparound).  A full queue rejects the
push — that is the engine's backpressure signal (load shedding), not an
error.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["RingBufferQueue"]


class RingBufferQueue:
    """Fixed-capacity FIFO of (observation, request id, enqueue time).

    Args:
        capacity: Maximum number of queued requests; pushes beyond it
            return False (the caller counts the shed).
        obs_dim: Observation vector length; every pushed observation
            must have exactly this shape.
    """

    __slots__ = ("capacity", "obs_dim", "_obs", "_ids", "_times", "_head", "_size")

    def __init__(self, capacity: int, obs_dim: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        if obs_dim < 1:
            raise ValueError(f"obs_dim must be >= 1, got {obs_dim}")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self._obs = np.zeros((capacity, obs_dim), dtype=np.float64)
        self._ids = np.zeros(capacity, dtype=np.int64)
        self._times = np.zeros(capacity, dtype=np.float64)
        self._head = 0  # index of the oldest entry
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size == self.capacity

    def push(
        self,
        obs: Union[np.ndarray, "list[float]"],
        request_id: int,
        enqueue_time: float,
    ) -> bool:
        """Append one request; returns False (shed) when the queue is full.

        Raises ValueError on a payload of the wrong shape or with a NaN or
        inf entry; nothing is queued then."""
        if np.shape(obs) != (self.obs_dim,):
            raise ValueError(
                f"observation shape {np.shape(obs)} != ({self.obs_dim},)"
            )
        if not np.isfinite(obs).all():
            raise ValueError("observation has a NaN or inf entry")
        if self._size == self.capacity:
            return False
        slot = (self._head + self._size) % self.capacity
        self._obs[slot] = obs
        self._ids[slot] = request_id
        self._times[slot] = enqueue_time
        self._size += 1
        return True

    def oldest_enqueue_time(self) -> float:
        """Enqueue time of the head request (deadline-trigger input)."""
        if self._size == 0:
            raise ValueError("oldest_enqueue_time on an empty queue")
        return float(self._times[self._head])

    def pop_into(
        self,
        out_obs: np.ndarray,
        out_ids: np.ndarray,
        out_times: np.ndarray,
        limit: int,
    ) -> int:
        """Move up to ``limit`` oldest requests into the output prefixes.

        Preserves FIFO order exactly (rows ``out_*[:n]`` are the n oldest
        requests, oldest first) — the engine's rng-consumption and
        no-reorder guarantees both rest on this.  Returns n.
        """
        n = min(self._size, limit)
        if n <= 0:
            return 0
        head = self._head
        first = min(n, self.capacity - head)
        out_obs[:first] = self._obs[head:head + first]
        out_ids[:first] = self._ids[head:head + first]
        out_times[:first] = self._times[head:head + first]
        rest = n - first
        if rest:
            out_obs[first:n] = self._obs[:rest]
            out_ids[first:n] = self._ids[:rest]
            out_times[first:n] = self._times[:rest]
        self._head = (head + n) % self.capacity
        self._size -= n
        return n
