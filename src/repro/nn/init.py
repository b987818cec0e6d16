"""Weight initialisation schemes for the numpy neural-network stack."""

from __future__ import annotations

import numpy as np

from typing import Optional, Tuple, Union

#: Anything ``np.random.default_rng`` accepts as a seed, or an existing
#: generator (``None`` draws fresh OS entropy — linted against in library
#: code by REP001).
RNGLike = Optional[Union[int, np.random.SeedSequence, np.random.Generator]]

__all__ = ["orthogonal"]


def orthogonal(
    shape: Tuple[int, int],
    gain: float = 1.0,
    rng: "RNGLike" = None,
) -> np.ndarray:
    """Orthogonal initialisation (Saxe et al.), the stable-baselines default.

    Args:
        shape: ``(fan_in, fan_out)``.
        gain: Scaling factor; ``sqrt(2)`` for hidden layers, smaller (e.g.
            0.01) for policy output layers to start near-uniform.
        rng: Numpy generator or seed.
    """
    if len(shape) != 2:
        raise ValueError(f"orthogonal init needs a 2-D shape, got {shape}")
    rng = np.random.default_rng(rng)
    rows, cols = shape
    flat = rng.normal(size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    # Sign correction makes the distribution uniform over orthogonal matrices.
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return (gain * q[:rows, :cols]).astype(np.float64)
