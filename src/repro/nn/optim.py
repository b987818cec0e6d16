"""First-order optimisers over lists of parameter arrays.

The paper trains with RMSprop; SGD (with momentum) is the first-order
reference the K-FAC tests compare against.  Optimisers mutate the
parameter arrays in place (the arrays are shared with the
:class:`~repro.nn.mlp.MLP` layers).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["Optimizer", "SGD", "RMSprop", "clip_grads_by_norm"]


def clip_grads_by_norm(grads: Sequence[np.ndarray], max_norm: float) -> float:
    """Scale ``grads`` in place so the global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm.  Matches the paper's "max. gradient 0.5".
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    total = float(np.sqrt(sum(float(np.sum(g**2)) for g in grads)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


class Optimizer:
    """Base optimiser over a fixed list of parameter arrays."""

    def __init__(self, params: Sequence[np.ndarray], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        self.params: List[np.ndarray] = list(params)
        self.lr = lr

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """Apply one update from ``grads`` (aligned with ``self.params``)."""
        if len(grads) != len(self.params):
            raise ValueError(
                f"got {len(grads)} gradients for {len(self.params)} parameters"
            )
        self._step(list(grads))

    def _step(self, grads: List[np.ndarray]) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Plain / momentum SGD."""

    def __init__(
        self,
        params: Sequence[np.ndarray],
        lr: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p) for p in self.params]

    def _step(self, grads: List[np.ndarray]) -> None:
        for p, g, v in zip(self.params, grads, self._velocity):
            if self.momentum:
                v *= self.momentum
                v += g
                p -= self.lr * v
            else:
                p -= self.lr * g


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton) — the paper's optimiser."""

    def __init__(
        self,
        params: Sequence[np.ndarray],
        lr: float = 0.25,
        decay: float = 0.99,
        epsilon: float = 1e-5,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        self.decay = decay
        self.epsilon = epsilon
        self._mean_square = [np.zeros_like(p) for p in self.params]

    def _step(self, grads: List[np.ndarray]) -> None:
        for p, g, ms in zip(self.params, grads, self._mean_square):
            ms *= self.decay
            ms += (1.0 - self.decay) * g**2
            p -= self.lr * g / (np.sqrt(ms) + self.epsilon)
