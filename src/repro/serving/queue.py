"""Preallocated ring-buffer request queue for the serving engine.

One serving engine owns one :class:`RingBufferQueue`: a fixed-capacity
float64 row block (the float32 path casts inside the forward workspace)
and a parallel list of enqueue times kept as Python floats.  It stores
no request ids: the engine numbers accepted requests consecutively, so
a pop's ids are a range.  A push costs one row copy into its slot plus
one warning-free finiteness classification of that slot (``isfinite``
into a preallocated mask, compared as bytes); a pop copies the FIFO
prefix into a caller workspace with at most two slice copies.  A full
queue rejects the push — the engine's backpressure signal (load
shedding), not an error.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

__all__ = ["RingBufferQueue"]


class RingBufferQueue:
    """Fixed-capacity FIFO of (observation, enqueue time).

    Args:
        capacity: Maximum number of queued requests; pushes beyond it
            return 0 (the caller counts the shed).
        obs_dim: Observation vector length; every pushed observation
            must have exactly this shape.
    """

    __slots__ = ("capacity", "obs_dim", "_obs", "_rows", "_times", "_finite",
                 "_all_finite", "_head", "_size")

    def __init__(self, capacity: int, obs_dim: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        if obs_dim < 1:
            raise ValueError(f"obs_dim must be >= 1, got {obs_dim}")
        self.capacity = capacity
        self.obs_dim = obs_dim
        # A spare row past the ring: a push onto a full queue is classified
        # there, so a malformed payload raises instead of being shed.
        self._obs = np.zeros((capacity + 1, obs_dim), dtype=np.float64)
        self._rows = list(self._obs)
        self._times: List[float] = [0.0] * capacity
        self._finite = np.empty(obs_dim, dtype=bool)
        self._all_finite = np.ones(obs_dim, dtype=bool).tobytes()
        self._head = 0  # index of the oldest entry
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size == self.capacity

    def push(self, obs: Union[np.ndarray, "list[float]"], enqueue_time: float) -> int:
        """Append one request; returns the queue depth after the push, or
        0 (shed) when the queue is full.

        Raises ValueError on a payload of the wrong shape or with a NaN or
        inf entry, full queue or not; nothing is queued then."""
        try:
            shape = obs.shape  # type: ignore[union-attr]
        except AttributeError:  # a list or other non-array payload
            shape = np.shape(obs)
        if shape != (self.obs_dim,):
            raise ValueError(f"observation shape {shape} != ({self.obs_dim},)")
        size = self._size
        full = size == self.capacity
        slot = self.capacity if full else (self._head + size) % self.capacity
        row = self._rows[slot]
        row[...] = obs
        if np.isfinite(row, out=self._finite).tobytes() != self._all_finite:
            raise ValueError("observation has a NaN or inf entry")
        if full:
            return 0
        self._times[slot] = enqueue_time
        self._size = size = size + 1
        return size

    def oldest_enqueue_time(self) -> float:
        """Enqueue time of the head request (deadline-trigger input)."""
        if self._size == 0:
            raise ValueError("oldest_enqueue_time on an empty queue")
        return self._times[self._head]

    def pop_into(self, out_obs: np.ndarray, limit: int) -> List[float]:
        """Move up to ``limit`` oldest observations into ``out_obs[:n]``
        and return their n enqueue times, oldest first.

        Preserves FIFO order exactly — the engine's no-reorder and
        implicit-id guarantees rest on this.
        """
        n = min(self._size, limit)
        if n <= 0:
            return []
        head = self._head
        first = min(n, self.capacity - head)
        out_obs[:first] = self._obs[head:head + first]
        times = self._times[head:head + first]
        rest = n - first
        if rest:
            out_obs[first:n] = self._obs[:rest]
            times += self._times[:rest]
        self._head = (head + n) % self.capacity
        self._size -= n
        return times
