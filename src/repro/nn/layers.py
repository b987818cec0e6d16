"""Neural-network layers with explicit forward/backward passes.

The paper trains with TensorFlow; offline we implement the needed pieces —
dense layers and tanh activations — directly in numpy with hand-derived
gradients.  Layers keep the caches K-FAC needs: the (bias-augmented) layer
inputs ``ā`` and the gradients w.r.t. pre-activations ``g``, whose second
moments form the Kronecker factors ``A = E[ā āᵀ]`` and ``G = E[g gᵀ]``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.init import RNGLike, orthogonal, xavier_uniform

__all__ = ["Dense", "Tanh", "ReLU", "Identity", "Activation"]


class Dense:
    """Fully connected layer ``z = ā W`` with the bias folded into ``W``.

    The input is augmented with a constant 1 column (``ā = [x, 1]``) and
    ``W`` has shape ``(in_dim + 1, out_dim)``; the last row is the bias.
    Folding the bias keeps K-FAC's Kronecker factorisation exact with a
    single factor pair per layer.

    Attributes:
        weight: Parameter matrix ``(in_dim + 1, out_dim)``.
        grad: Gradient of the loss w.r.t. ``weight`` after backward().
        last_input_aug: Cached ``ā`` from the last forward pass.
        last_output_grad: Cached ``g = dL/dz`` from the last backward pass.

    ``weight=`` builds the layer around a private float64 copy of an
    existing ``(in_dim + 1, out_dim)`` matrix: no initialiser runs and
    ``rng`` is never touched (checkpoint loading and policy cloning).
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        init: str = "orthogonal",
        gain: float = 1.0,
        rng: RNGLike = None,
        weight: Optional[np.ndarray] = None,
    ) -> None:
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"invalid Dense dims ({in_dim}, {out_dim})")
        self.in_dim = in_dim
        self.out_dim = out_dim
        if weight is not None:
            if weight.shape != (in_dim + 1, out_dim):
                raise ValueError(
                    f"parameter shape mismatch: {weight.shape} vs "
                    f"{(in_dim + 1, out_dim)}"
                )
            self.weight = np.array(weight, dtype=np.float64)
        else:
            if init == "orthogonal":
                core = orthogonal((in_dim, out_dim), gain=gain, rng=rng)
            elif init == "xavier":
                core = xavier_uniform((in_dim, out_dim), gain=gain, rng=rng)
            else:
                raise ValueError(f"unknown init {init!r}")
            self.weight = np.vstack([core, np.zeros((1, out_dim))])
        # np.zeros, not zeros_like: calloc'd pages stay untouched until a
        # backward pass writes them, which an inference-only copy never does.
        self.grad = np.zeros(self.weight.shape)
        self.last_input_aug: Optional[np.ndarray] = None
        self.last_output_grad: Optional[np.ndarray] = None
        # Reusable bias-augmented input buffers, keyed by batch size: the
        # training loop alternates between a small act batch and the large
        # update batch thousands of times, so forward() fills a cached
        # buffer instead of concatenating a fresh (N, in+1) array per call.
        # Consequence: ``last_input_aug`` holds the buffer, whose contents
        # are only valid until the next same-batch-size forward — which is
        # exactly the lifetime backward() and KFAC.update_stats() rely on.
        self._aug_buffers: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``z = [x, 1] W`` for a batch ``x`` of shape (N, in_dim)."""
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"Dense({self.in_dim},{self.out_dim}): bad input shape {x.shape}"
            )
        n = x.shape[0]
        aug = self._aug_buffers.get(n)
        if aug is None:
            aug = np.empty((n, self.in_dim + 1), dtype=np.float64)
            aug[:, -1] = 1.0
            self._aug_buffers[n] = aug
        aug[:, :-1] = x
        self.last_input_aug = aug
        return aug @ self.weight

    def backward(self, dz: np.ndarray, accumulate: bool = False) -> np.ndarray:
        """Given ``dL/dz``, set ``self.grad`` and return ``dL/dx``.

        Gradients are averaged over the batch (dz is assumed to already be
        per-example loss gradients).
        """
        if self.last_input_aug is None:
            raise RuntimeError("Dense.backward() called before forward()")
        self.last_output_grad = dz
        grad = self.last_input_aug.T @ dz
        if accumulate:
            self.grad += grad
        else:
            self.grad = grad
        # Drop the bias row when propagating to the input.
        return dz @ self.weight[:-1].T

    def backward_pair(self, dz_pair: np.ndarray) -> np.ndarray:
        """Fused backward for two stacked output-gradient sets.

        ``dz_pair`` is ``(2B, out)``: rows ``[:B]`` the sampled-Fisher
        gradients, rows ``[B:]`` the loss gradients, both w.r.t. this
        layer's pre-activations for the *same* cached forward batch.
        Sets ``last_output_grad`` to the Fisher half (the array
        ``KFAC.update_stats`` consumes), ``grad`` from the loss half
        (two separate stat/grad GEMMs, identical to two
        :meth:`backward` calls), and propagates *both* delta chains
        through a single ``(2B, out) @ (out, in)`` GEMM — the fusion
        that halves the delta-propagation work.
        """
        if self.last_input_aug is None:
            raise RuntimeError("Dense.backward_pair() called before forward()")
        batch = self.last_input_aug.shape[0]
        if dz_pair.shape != (2 * batch, self.out_dim):
            raise ValueError(
                f"Dense({self.in_dim},{self.out_dim}): backward_pair needs a "
                f"(2*{batch}, {self.out_dim}) stacked gradient, got {dz_pair.shape}"
            )
        self.last_output_grad = dz_pair[:batch]
        self.grad = self.last_input_aug.T @ dz_pair[batch:]
        return dz_pair @ self.weight[:-1].T

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.weight)


class Activation:
    """Base class for parameter-free elementwise activations."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Inference-only forward written into ``out`` (which may be ``x``
        itself) and returned; no backward cache."""
        raise NotImplementedError

    def adopt_forward(self, x: np.ndarray, out: np.ndarray) -> None:
        """Take ``out = forward_into(x, out)``, computed elsewhere, as this
        layer's backward cache, as if :meth:`forward` had produced it.
        The arrays are kept, not copied: they must stay untouched until
        the backward passes are done."""
        raise NotImplementedError


class Tanh(Activation):
    """tanh — the paper's hidden activation (2x256 tanh units)."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("Tanh.backward() called before forward()")
        return dout * (1.0 - self._out**2)

    def forward_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.tanh(x, out=out)

    def adopt_forward(self, x: np.ndarray, out: np.ndarray) -> None:
        self._out = out


class ReLU(Activation):
    """ReLU, available for ablations."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("ReLU.backward() called before forward()")
        return dout * self._mask

    def forward_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0, out=out)

    def adopt_forward(self, x: np.ndarray, out: np.ndarray) -> None:
        self._mask = x > 0


class Identity(Activation):
    """No-op activation (for linear output heads)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout

    def forward_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        if out is not x:
            np.copyto(out, x)
        return out

    def adopt_forward(self, x: np.ndarray, out: np.ndarray) -> None:
        pass
