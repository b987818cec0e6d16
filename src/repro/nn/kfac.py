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
predicted KL change ``½ Δθᵀ F Δθ`` stays below ``kl_clip``.

Usage inside a trainer::

    model.forward(obs)                      # caches ā per layer
    model.backward(fisher_output_grad)      # caches g per layer
    kfac.update_stats()                     # EMA of A, G from the caches
    model.forward(obs); model.backward(dl)  # true loss gradients
    kfac.step([d.grad for d in model.dense_layers])
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.invariants import InvariantViolation
from repro.nn.mlp import MLP
from repro.nn.optim import clip_grads_by_norm

__all__ = ["KFAC"]


class KFAC:
    """Kronecker-factored natural-gradient optimiser for one MLP.

    Args:
        model: The network to optimise (parameters updated in place).
        lr: Maximum learning rate η_max (paper: 0.25 initial).
        kl_clip: Trust-region bound on the predicted KL per update
            (paper: 0.001).
        damping: Tikhonov damping λ added to the factors before inversion.
        stat_decay: EMA decay for the running Kronecker factors.
        inversion_interval: Recompute the factor inverses every this many
            steps (inversion is the expensive part of K-FAC).
        max_grad_norm: Optional global gradient-norm clip applied to the
            incoming raw gradients (paper: 0.5).
    """

    def __init__(
        self,
        model: MLP,
        lr: float = 0.25,
        kl_clip: float = 0.001,
        damping: float = 0.01,
        stat_decay: float = 0.95,
        inversion_interval: int = 10,
        max_grad_norm: Optional[float] = 0.5,
    ) -> None:
        if lr <= 0 or kl_clip <= 0 or damping <= 0:
            raise ValueError("lr, kl_clip, and damping must all be > 0")
        if not 0.0 < stat_decay < 1.0:
            raise ValueError(f"stat_decay must be in (0, 1), got {stat_decay}")
        self.model = model
        self.lr = lr
        self.kl_clip = kl_clip
        self.damping = damping
        self.stat_decay = stat_decay
        self.inversion_interval = max(1, inversion_interval)
        self.max_grad_norm = max_grad_norm

        layers = model.dense_layers
        self._A: List[np.ndarray] = [np.eye(d.weight.shape[0]) for d in layers]
        self._G: List[np.ndarray] = [np.eye(d.weight.shape[1]) for d in layers]
        self._A_inv: List[Optional[np.ndarray]] = [None] * len(layers)
        self._G_inv: List[Optional[np.ndarray]] = [None] * len(layers)
        # Hot-loop scratch, allocated once: the damping identities reused
        # by every _refresh_inverses, per-layer buffers for the new factor
        # statistics, and gradient copies for step()'s in-place clipping.
        self._eye_A: List[np.ndarray] = [np.eye(d.weight.shape[0]) for d in layers]
        self._eye_G: List[np.ndarray] = [np.eye(d.weight.shape[1]) for d in layers]
        self._A_new: List[np.ndarray] = [np.empty_like(a) for a in self._A]
        self._G_new: List[np.ndarray] = [np.empty_like(g) for g in self._G]
        self._grad_scratch: List[np.ndarray] = [
            np.empty_like(d.weight) for d in layers
        ]
        # step() works through three weight-shaped buffers per layer
        # (natural gradient, GEMM-chain temporary, trust-region product)
        # so the per-update preconditioning allocates nothing; out=
        # matmul/multiply produce bitwise-identical floats to the
        # allocating expressions they replace.
        self._u_buf: List[np.ndarray] = [np.empty_like(d.weight) for d in layers]
        self._t_buf: List[np.ndarray] = [np.empty_like(d.weight) for d in layers]
        self._q_buf: List[np.ndarray] = [np.empty_like(d.weight) for d in layers]
        self._steps = 0
        self._stat_updates = 0
        #: Trust-region rescale of the most recent :meth:`step` (1.0 when
        #: the raw natural-gradient step already satisfied the KL bound).
        self.last_scale: float = 1.0
        #: Predicted KL ``½ Δθᵀ F Δθ`` of the most recently *applied*
        #: (rescaled) step; ≤ ``kl_clip`` by construction.
        self.last_predicted_kl: float = 0.0
        #: Global gradient norm *before* clipping of the most recent
        #: :meth:`step` (0.0 until the first step, or when clipping is
        #: disabled) — surfaced as ``grad_norm`` in training telemetry.
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
        decay = self.stat_decay
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
            # to ``decay * A + (1 - decay) * (aug.T @ aug / batch)`` but
            # without allocating fresh factor-sized arrays per update.
            a_new = np.matmul(aug.T, aug, out=self._A_new[i])
            a_new /= batch
            g_new = np.matmul(g.T, g, out=self._G_new[i])
            g_new /= batch
            self._A[i] *= decay
            a_new *= 1.0 - decay
            self._A[i] += a_new
            self._G[i] *= decay
            g_new *= 1.0 - decay
            self._G[i] += g_new

    def _refresh_inverses(self) -> None:
        for i, (a, g) in enumerate(zip(self._A, self._G)):
            # Factored Tikhonov damping (Martens & Grosse Sec. 6.3): split
            # the damping between the factors in proportion to their scales.
            tr_a = max(np.trace(a) / a.shape[0], 1e-12)
            tr_g = max(np.trace(g) / g.shape[0], 1e-12)
            pi = np.sqrt(tr_a / tr_g)
            eps_a = np.sqrt(self.damping) * pi
            eps_g = np.sqrt(self.damping) / pi
            self._A_inv[i] = np.linalg.inv(a + eps_a * self._eye_A[i])
            self._G_inv[i] = np.linalg.inv(g + eps_g * self._eye_G[i])

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
        if self.max_grad_norm is not None:
            self.last_grad_norm = clip_grads_by_norm(grads, self.max_grad_norm)

        t0 = time.perf_counter()
        if self._steps % self.inversion_interval == 0:
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
        # actual step's predicted KL stays below kl_clip.
        quad = 0.0
        for u, a, g, tmp, prod in zip(
            updates, self._A, self._G, self._t_buf, self._q_buf
        ):
            np.matmul(a, u, out=tmp)
            np.matmul(tmp, g, out=prod)
            np.multiply(u, prod, out=tmp)
            quad += float(np.sum(tmp))
        quad = max(quad, 1e-12)
        scale = min(1.0, np.sqrt(2.0 * self.kl_clip / (self.lr**2 * quad)))
        self.last_scale = float(scale)
        self.last_predicted_kl = float(0.5 * (self.lr * scale) ** 2 * quad)

        step_size = self.lr * scale
        for weight, update, tmp in zip(self.model.parameters, updates, self._t_buf):
            np.multiply(update, step_size, out=tmp)
            weight -= tmp
        self.last_precondition_seconds = time.perf_counter() - t1
        return float(scale)
