"""Categorical action distribution over policy logits.

Provides the pieces an actor-critic trainer needs with hand-derived
gradients: sampling, log-probabilities, entropy, and the analytic gradients
of the policy-gradient and entropy objectives w.r.t. the logits.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["softmax", "log_softmax", "gumbel_noise", "Categorical"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def gumbel_noise(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Standard Gumbel noise from one uniform block of ``shape`` — the one
    spelling of the draw, so every sampler consumes ``rng`` alike."""
    return -np.log(-np.log(rng.uniform(1e-12, 1.0, size=shape)))


class Categorical:
    """Batch of categorical distributions parameterised by logits (N, K).

    ``probs`` and ``log_probs`` are computed lazily and cached: the
    action-selection hot path (Gumbel-max sampling + log_prob of the
    chosen actions) never touches ``probs``, so each act() call skips one
    full softmax.
    """

    __slots__ = ("logits", "_probs", "_log_probs")

    def __init__(self, logits: np.ndarray) -> None:
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D (batch, actions), got {logits.shape}")
        self.logits = logits
        self._probs: "np.ndarray | None" = None
        self._log_probs: "np.ndarray | None" = None

    @property
    def probs(self) -> np.ndarray:
        probs = self._probs
        if probs is None:
            probs = self._probs = softmax(self.logits)
        return probs

    @property
    def log_probs(self) -> np.ndarray:
        log_probs = self._log_probs
        if log_probs is None:
            log_probs = self._log_probs = log_softmax(self.logits)
        return log_probs

    @property
    def num_actions(self) -> int:
        return self.logits.shape[1]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one action per batch row via the Gumbel-max trick.

        Gumbel-max avoids per-row cumulative-sum searches and is exactly
        equivalent to categorical sampling.
        """
        return np.argmax(
            self.logits + gumbel_noise(rng, self.logits.shape), axis=-1
        )

    def mode(self) -> np.ndarray:
        """Greedy (argmax) action per row — used at inference time when a
        deterministic policy is desired."""
        return np.argmax(self.logits, axis=-1)

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        """``log π(a|o)`` per batch row."""
        rows = np.arange(self.logits.shape[0])
        return self.log_probs[rows, actions]

    def entropy(self) -> np.ndarray:
        """Shannon entropy per row."""
        return -(self.probs * self.log_probs).sum(axis=-1)

    def kl_divergence(self, other: "Categorical") -> np.ndarray:
        """``KL(self || other)`` per row (used for the ACKTR trust region)."""
        return (self.probs * (self.log_probs - other.log_probs)).sum(axis=-1)

    # ------------------------------------------------------------------
    # Analytic gradients (all w.r.t. the logits, per batch row)
    # ------------------------------------------------------------------

    def grad_log_prob(self, actions: np.ndarray) -> np.ndarray:
        """``d log π(a|o) / d logits = onehot(a) - π``."""
        grad = -self.probs.copy()
        rows = np.arange(self.logits.shape[0])
        grad[rows, actions] += 1.0
        return grad

    def grad_entropy(self) -> np.ndarray:
        """``dH/dlogits`` per row.

        With ``H = -Σ π log π`` and logits ``z``:
        ``dH/dz_k = -π_k (log π_k + H)`` ... derived via the softmax
        Jacobian; equivalently ``-π ⊙ (log π - Σ π log π)``.
        """
        expected_logp = (self.probs * self.log_probs).sum(axis=-1, keepdims=True)
        return -self.probs * (self.log_probs - expected_logp)

    def fisher_sample_grad(self, rng: np.random.Generator) -> np.ndarray:
        """Per-row sampled gradient ``π - onehot(â)`` with ``â ~ π``.

        These are the output-layer gradients whose second moments K-FAC
        accumulates to estimate the *true* Fisher information (sampling
        actions from the model's own distribution, not the behaviour data).
        """
        sampled = self.sample(rng)
        grad = self.probs.copy()
        rows = np.arange(self.logits.shape[0])
        grad[rows, sampled] -= 1.0
        return grad
