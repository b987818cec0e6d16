"""Plain and momentum SGD: the first-order reference the K-FAC tests
compare against (training runs RMSprop or K-FAC)."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.optim import Optimizer


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
