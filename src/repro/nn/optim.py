"""First-order optimisers over lists of parameter arrays.

The paper trains with RMSprop (A2C) and K-FAC (ACKTR, ``repro.nn.kfac``).
Optimisers mutate the parameter arrays in place (the arrays are shared
with the :class:`~repro.nn.mlp.MLP` layers).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "MAX_GRAD_NORM",
    "RMSPROP_DECAY",
    "RMSPROP_EPSILON",
    "Optimizer",
    "RMSprop",
    "clip_grads_by_norm",
]

#: The paper's gradient clip ("max. gradient 0.5", Sec. V-A2): both
#: trainers clip to it, A2C directly and ACKTR inside ``KFAC.step``.
MAX_GRAD_NORM = 0.5

#: RMSprop's running-average decay and denominator epsilon
#: (stable-baselines' values).
RMSPROP_DECAY = 0.99
RMSPROP_EPSILON = 1e-5


def clip_grads_by_norm(
    grads: Sequence[np.ndarray], max_norm: float, squares: Sequence[np.ndarray]
) -> float:
    """Scale ``grads`` in place so the global L2 norm is <= ``max_norm``.

    ``squares`` holds one caller-owned buffer per gradient, of its shape
    (scratch: its contents are overwritten).  Each gradient is squared
    into its buffer, so a step allocates no gradient-sized temporary, and
    the buffer's sum is bitwise ``np.sum(g**2)``: the same products,
    summed in numpy's pairwise order over the same contiguous shape.

    Returns the pre-clip norm.  The trainers pass :data:`MAX_GRAD_NORM`.
    """
    if not max_norm > 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    if len(squares) != len(grads):
        raise ValueError(f"got {len(squares)} square buffers for {len(grads)} gradients")
    sums = [float(np.multiply(g, g, out=s).sum()) for g, s in zip(grads, squares)]
    total = float(np.sqrt(sum(sums)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


class Optimizer:
    """Base optimiser over a fixed list of parameter arrays."""

    def __init__(self, params: Sequence[np.ndarray], lr: float) -> None:
        if not lr > 0:
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


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton) — the paper's optimiser, with decay
    :data:`RMSPROP_DECAY` and epsilon :data:`RMSPROP_EPSILON`."""

    def __init__(self, params: Sequence[np.ndarray], lr: float = 0.25) -> None:
        super().__init__(params, lr)
        self._mean_square = [np.zeros_like(p) for p in self.params]

    def _step(self, grads: List[np.ndarray]) -> None:
        for p, g, ms in zip(self.params, grads, self._mean_square):
            ms *= RMSPROP_DECAY
            ms += (1.0 - RMSPROP_DECAY) * g**2
            p -= self.lr * g / (np.sqrt(ms) + RMSPROP_EPSILON)
