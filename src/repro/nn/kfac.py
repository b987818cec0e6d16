"""K-FAC: Kronecker-factored approximate curvature (Martens & Grosse).

ACKTR [38] trains actor and critic with natural-gradient updates whose
Fisher information matrix is approximated block-diagonally per layer, each
block as a Kronecker product of two small factors:

    F_layer ≈ A ⊗ G,   A = E[ā āᵀ],   G = E[g gᵀ]

where ``ā`` is the layer's bias-augmented input and ``g`` the gradient of
the *model's own* log-likelihood (actions sampled from the policy itself,
targets sampled from the value model) w.r.t. the layer's pre-activations.
The natural gradient is then cheap:

    (A ⊗ G)⁻¹ vec(∇W)  =  vec(A⁻¹ ∇W G⁻¹)

On top, ACKTR applies a trust region: the raw step is rescaled so the
predicted KL change ``½ Δθᵀ F Δθ`` stays below :data:`KL_CLIP`.

Usage inside a trainer — one forward serves both backward passes::

    model.forward(obs)                      # caches ā per layer
    model.backward(fisher_output_grad)      # caches g per layer
    kfac.update_stats()                     # EMA of A, G from the caches
    model.backward(dl)                      # true loss gradients, same ā
    kfac.step(model.gradients)
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.invariants import InvariantViolation
from repro.nn.mlp import MLP
from repro.nn.optim import MAX_GRAD_NORM, clip_grads_by_norm

__all__ = ["KFAC", "KL_CLIP", "DAMPING", "STAT_DECAY", "INVERSION_INTERVAL"]

#: Trust-region bound on the predicted KL of one update (paper Sec. V-A2:
#: KL clipping 0.001).
KL_CLIP = 0.001
#: Tikhonov damping λ added to the factors before inversion
#: (stable-baselines' value).
DAMPING = 0.01
#: EMA decay of the running Kronecker factors (stable-baselines' value).
STAT_DECAY = 0.95
#: Recompute the factor inverses every this many steps (inversion is the
#: expensive part of K-FAC; stable-baselines' value).
INVERSION_INTERVAL = 10


class KFAC:
    """Kronecker-factored natural-gradient optimiser for one MLP.

    Args:
        model: The network to optimise (parameters updated in place).
        lr: Maximum learning rate η_max (paper: 0.25 initial).

    The coefficients are module constants, read when a step uses them:
    :data:`KL_CLIP`, :data:`DAMPING`, :data:`STAT_DECAY`,
    :data:`INVERSION_INTERVAL`, and the gradient clip
    :data:`~repro.nn.optim.MAX_GRAD_NORM` applied to the incoming raw
    gradients.  The paper's Fisher coefficient is 1.0, so the
    sampled-Fisher gradients enter :meth:`update_stats` unscaled.
    """

    def __init__(self, model: MLP, lr: float = 0.25) -> None:
        if not lr > 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.model = model
        self.lr = lr

        layers = model.dense_layers
        self._A: List[np.ndarray] = [np.eye(d.weight.shape[0]) for d in layers]
        self._G: List[np.ndarray] = [np.eye(d.weight.shape[1]) for d in layers]
        self._A_inv: List[Optional[np.ndarray]] = [None] * len(layers)
        self._G_inv: List[Optional[np.ndarray]] = [None] * len(layers)
        # Everything else step() and update_stats() touch is scratch,
        # allocated once.  ``_grad_scratch`` takes the clipped gradient
        # copies and, once the natural gradients exist, the trust-region
        # product ``A u G``; ``_u_buf`` holds the natural gradients and
        # ``_t_buf`` the GEMM-chain temporaries.  ``_factor_scratch`` is
        # one flat array the size of the largest factor: each layer's new
        # statistics and each damped factor are built in an ``(n, n)``
        # view of it, so neither the EMA nor a refresh allocates a
        # factor-sized temporary.  The out= forms produce bitwise the
        # floats of the allocating expressions they replace (DESIGN §8b,
        # "K-FAC footprint").
        self._grad_scratch: List[np.ndarray] = [
            np.empty_like(d.weight) for d in layers
        ]
        self._u_buf: List[np.ndarray] = [np.empty_like(d.weight) for d in layers]
        self._t_buf: List[np.ndarray] = [np.empty_like(d.weight) for d in layers]
        self._factor_scratch = np.empty(
            max(f.size for f in self._A + self._G), dtype=np.float64
        )
        self._steps = 0
        self._stat_updates = 0
        #: Trust-region rescale of the most recent :meth:`step` (1.0 when
        #: the raw natural-gradient step already satisfied the KL bound).
        self.last_scale: float = 1.0
        #: Predicted KL ``½ Δθᵀ F Δθ`` of the most recently *applied*
        #: (rescaled) step; ≤ :data:`KL_CLIP` by construction.
        self.last_predicted_kl: float = 0.0
        #: Global gradient norm *before* clipping of the most recent
        #: :meth:`step` (0.0 until the first step) — surfaced as
        #: ``grad_norm`` in training telemetry.
        self.last_grad_norm: float = 0.0
        #: Wall-clock split of the most recent :meth:`step` (factor
        #: inversions / everything after), read by the trainer's phase
        #: profiler; three clock reads per step.
        self.last_inversion_seconds: float = 0.0
        self.last_precondition_seconds: float = 0.0

    # ------------------------------------------------------------------

    def update_stats(self) -> None:
        """Fold the layers' current caches into the running A and G factors.

        Must be called right after a forward pass and a backward pass with
        the *sampled-Fisher* output gradient (see module docstring); uses
        ``last_input_aug`` and ``last_output_grad`` of each Dense layer.
        """
        self._stat_updates += 1
        decay = STAT_DECAY
        for i, dense in enumerate(self.model.dense_layers):
            aug = dense.last_input_aug
            g = dense.last_output_grad
            if aug is None or g is None:
                raise RuntimeError(
                    "update_stats() requires a forward and a (Fisher) backward "
                    "pass beforehand"
                )
            batch = aug.shape[0]
            # In-place EMA into the running factors; elementwise identical
            # to ``decay * A + (1 - decay) * (aug.T @ aug / batch)``.
            a_new = np.matmul(aug.T, aug, out=self._factor_view(aug.shape[1]))
            a_new /= batch
            a_new *= 1.0 - decay
            self._A[i] *= decay
            self._A[i] += a_new
            g_new = np.matmul(g.T, g, out=self._factor_view(g.shape[1]))
            g_new /= batch
            g_new *= 1.0 - decay
            self._G[i] *= decay
            self._G[i] += g_new

    def _factor_view(self, n: int) -> np.ndarray:
        """An ``(n, n)`` C-contiguous view of the factor scratch."""
        return self._factor_scratch[: n * n].reshape(n, n)

    def _damped_inverse(self, factor: np.ndarray, eps: float) -> np.ndarray:
        """``inv(factor + eps * I)``, the damped sum built in the scratch.

        ``factor + 0.0`` then ``+ eps`` on the diagonal is bitwise
        ``factor + eps * np.eye(n)``: off the diagonal both add ``0.0``,
        and on it ``(x + 0.0) + eps == x + eps`` because ``x + 0.0``
        differs from ``x`` only at ``x = -0.0``.  A plain copy would keep
        an off-diagonal ``-0.0`` that the sum turns into ``+0.0``.
        """
        n = factor.shape[0]
        damped = np.add(factor, 0.0, out=self._factor_view(n))
        damped.reshape(-1)[:: n + 1] += eps
        return np.linalg.inv(damped)

    def _refresh_inverses(self) -> None:
        for i, (a, g) in enumerate(zip(self._A, self._G)):
            # Factored Tikhonov damping (Martens & Grosse Sec. 6.3): split
            # the damping between the factors in proportion to their scales.
            tr_a = max(np.trace(a) / a.shape[0], 1e-12)
            tr_g = max(np.trace(g) / g.shape[0], 1e-12)
            pi = np.sqrt(tr_a / tr_g)
            eps_a = np.sqrt(DAMPING) * pi
            eps_g = np.sqrt(DAMPING) / pi
            # Drop the stale pair first, so a refresh never holds two.
            self._A_inv[i] = self._G_inv[i] = None
            self._A_inv[i] = self._damped_inverse(a, eps_a)
            self._G_inv[i] = self._damped_inverse(g, eps_g)

    # ------------------------------------------------------------------

    def step(self, grads: Sequence[np.ndarray]) -> float:
        """Apply one natural-gradient update; returns the trust-region scale.

        Args:
            grads: Loss gradients aligned with ``model.dense_layers``.
        """
        if len(grads) != len(self.model.dense_layers):
            raise ValueError(
                f"got {len(grads)} gradients for {len(self.model.dense_layers)} layers"
            )
        # Copy into the preallocated scratch so the in-place norm clip
        # below cannot mutate the caller's arrays.
        for buf, g in zip(self._grad_scratch, grads):
            np.copyto(buf, g)
        grads = self._grad_scratch
        # ``_t_buf`` is free until preconditioning: it takes the squares.
        self.last_grad_norm = clip_grads_by_norm(grads, MAX_GRAD_NORM, self._t_buf)

        t0 = time.perf_counter()
        if self._steps % INVERSION_INTERVAL == 0:
            self._refresh_inverses()
        self._steps += 1
        t1 = time.perf_counter()
        self.last_inversion_seconds = t1 - t0

        # Preconditioned (natural) gradients per layer, written into the
        # preallocated ``_u_buf`` scratch (``A⁻¹ ∇W G⁻¹`` via two out=
        # GEMMs — bitwise identical to the chained ``@`` expression).
        updates = self._u_buf
        for layer_index, (grad, a_inv, g_inv) in enumerate(
            zip(grads, self._A_inv, self._G_inv)
        ):
            if a_inv is None or g_inv is None:
                raise InvariantViolation(
                    "K-FAC factor inverses missing at step time "
                    "(refresh interval logic broke)",
                    layer=layer_index, steps=self._steps,
                )
            np.matmul(a_inv, grad, out=self._t_buf[layer_index])
            np.matmul(self._t_buf[layer_index], g_inv, out=updates[layer_index])

        # Trust region: predicted KL ≈ ½ η² Σ tr(uᵀ A u G); rescale so the
        # actual step's predicted KL stays below KL_CLIP.  The clipped
        # gradients are dead once ``u`` exists, so their buffers take the
        # product ``A u G``.
        quad = 0.0
        for u, a, g, tmp, prod in zip(
            updates, self._A, self._G, self._t_buf, self._grad_scratch
        ):
            np.matmul(a, u, out=tmp)
            np.matmul(tmp, g, out=prod)
            np.multiply(u, prod, out=tmp)
            quad += float(np.sum(tmp))
        quad = max(quad, 1e-12)
        scale = min(1.0, np.sqrt(2.0 * KL_CLIP / (self.lr**2 * quad)))
        self.last_scale = float(scale)
        self.last_predicted_kl = float(0.5 * (self.lr * scale) ** 2 * quad)

        step_size = self.lr * scale
        for weight, update, tmp in zip(self.model.parameters, updates, self._t_buf):
            np.multiply(update, step_size, out=tmp)
            weight -= tmp
        self.last_precondition_seconds = time.perf_counter() - t1
        return float(scale)
