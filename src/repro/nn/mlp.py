"""Multi-layer perceptron composed of Dense + tanh layers (the paper's
2x256 tanh networks)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, cast

import numpy as np

from repro.nn.init import RNGLike
from repro.nn.layers import Activation, Dense, Identity, Tanh

__all__ = [
    "MLP",
    "MLPInference",
    "TANH_ERROR_F32",
    "TANH_ERROR_F64",
    "fused_backward_is_exact",
    "logit_error_bound",
]

#: Unit roundoffs of IEEE binary32 and binary64 (round to nearest).
_U32 = 2.0**-24
_U64 = 2.0**-53
#: Absolute error allowed for one ``np.tanh`` in float32 and in float64.
#: Twice what a grid over the float32 range measures (1.01 u32 and 1 u64
#: for the bundled numpy); ``tests/nn/test_certified.py`` pins both.
TANH_ERROR_F32 = 2 * _U32
TANH_ERROR_F64 = 2 * _U64


def _gamma(n: int, u: float) -> float:
    """Higham's γ_n = nu / (1 - nu): the relative error bound of an
    n-term dot product, for any summation order, with or without FMA."""
    return n * u / (1.0 - n * u)


def logit_error_bound(mlp: MLP) -> np.ndarray:
    """Per-output bound δ on |float32 forward − float64 forward|.

    Holds for every input with ‖x‖∞ ≤ 1 (NaN excluded), any summation
    order in either GEMM, and the float32 weights ``MLPInference`` casts
    from ``mlp``'s current weights.  Layer by layer, with n the augmented
    fan-in and |W| the elementwise absolute weights (bias row last)::

        δ_0   = u32 + 2⁻¹⁴⁹                          (casting x to float32)
        δ_out = |W_data|ᵀ (δ_in + τ) + κ_n · colsum|W| + n · 2⁻¹⁴⁶
        κ_n   = γ32_{n+2} + γ64_n

    τ is the tanh allowance (:data:`TANH_ERROR_F32` +
    :data:`TANH_ERROR_F64`, 0 before the first layer); κ covers both
    GEMMs and the weight cast against |h| ≤ 1, which tanh outputs and the
    input domain guarantee; the last term covers float32 underflow.  The
    result is inflated for the rounding of its own evaluation and of the
    comparison :meth:`MLPInference.certified_argmax` makes.  Weights
    large enough (colsum ≥ 2¹⁰⁰) for a float32 sum to overflow get
    ``inf`` (no bound).
    """
    delta = np.full(mlp.in_dim, _U32 + 2.0**-149)
    for i, dense in enumerate(mlp.dense_layers):
        if i:
            delta = delta + (TANH_ERROR_F32 + TANH_ERROR_F64)
        w = np.abs(dense.weight)
        n = w.shape[0]
        colsum = w.sum(axis=0)
        if not colsum.max() < 2.0**100:  # float32 could overflow (or NaN)
            return np.full(mlp.out_dim, np.inf)
        kappa = _gamma(n + 2, _U32) + _gamma(n, _U64)
        delta = w[:-1].T @ delta + kappa * colsum + n * 2.0**-146
    # Evaluating the bound in float64 errs by far less than 2^-20 relative;
    # the comparison ℓ ± δ errs by at most u64 · max|ℓ ± δ| per side.
    delta = delta * (1.0 + 2.0**-20)
    return delta + _U64 * (2.0 * colsum.max() + delta.max())


class MLP:
    """Feed-forward network: hidden Dense+tanh stacks, linear output.

    Matches the paper's architecture when constructed with
    ``hidden=(256, 256)``.

    Args:
        in_dim: Input feature dimension.
        hidden: Sizes of the hidden layers.
        out_dim: Output dimension (number of actions for the actor, 1 for
            the critic).
        out_gain: Initialisation gain of the output layer; a small value
            (0.01) keeps an actor's initial policy near-uniform.
        rng: Numpy generator or seed for weight initialisation.
        weights: Existing weight matrices, one per layer, to copy in place
            of initialising (shape-checked; ``out_gain``/``rng`` unused).
    """

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int],
        out_dim: int,
        out_gain: float = 0.01,
        rng: RNGLike = None,
        weights: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        dims = [in_dim, *hidden, out_dim]
        shapes = list(zip(dims[:-1], dims[1:]))
        if weights is None:
            rng = np.random.default_rng(rng)
            gains = [np.sqrt(2.0)] * len(hidden) + [out_gain]
            self.dense_layers: List[Dense] = [
                Dense(i, o, gain=g, rng=rng) for (i, o), g in zip(shapes, gains)
            ]
        else:
            if len(weights) != len(shapes):
                raise ValueError(
                    f"expected {len(shapes)} parameter arrays, got {len(weights)}"
                )
            self.dense_layers = [
                Dense(i, o, weight=w) for (i, o), w in zip(shapes, weights)
            ]
        self.activations: List[Activation] = [Tanh() for _ in hidden]
        self.activations.append(Identity())
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = tuple(hidden)
        # Reusable (2B, out) stacking buffer for backward_pair, keyed by
        # shape (the training loop calls it with one fixed batch size).
        self._pair_buffers: Dict[Tuple[int, int], np.ndarray] = {}

    def __getstate__(self) -> Dict[str, Any]:
        # Weights only (each layer drops its own scratch too).
        return {**self.__dict__, "_pair_buffers": {}}

    # ------------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass for a batch ``(N, in_dim) -> (N, out_dim)``."""
        out = np.asarray(x, dtype=np.float64)
        if out.ndim == 1:
            out = out[None, :]
        for dense, act in zip(self.dense_layers, self.activations):
            out = act.forward(dense.forward(out))
        return out

    __call__ = forward

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Backprop ``dL/d(output)``; fills each layer's ``grad``; returns dL/dx."""
        grad = dout
        for dense, act in zip(reversed(self.dense_layers), reversed(self.activations)):
            grad = dense.backward(act.backward(grad))
        return grad

    def backward_pair(
        self, fisher_dout: np.ndarray, loss_dout: np.ndarray
    ) -> np.ndarray:
        """Fused dual backward: one delta chain for two output-gradient sets.

        The K-FAC training step needs two backward passes through the
        *same* cached activations — one with sampled-Fisher output
        gradients (to populate ``last_output_grad`` for
        ``KFAC.update_stats``) and one with the loss gradients (to fill
        each layer's ``grad``).  This method stacks both sets into a
        ``(2B, out)`` block and propagates them together, halving the
        delta-propagation GEMMs and computing each activation derivative
        once instead of twice; the per-layer grad/stat GEMMs stay
        separate (see :meth:`Dense.backward_pair`), so every float the
        optimiser consumes is produced by the same operation sequence.

        Bit-identity with two serial :meth:`backward` calls depends on
        the BLAS treating a ``(2B, k) @ (k, m)`` GEMM as a row-block
        extension of ``(B, k) @ (k, m)`` (K-accumulation order
        independent of M) — true for the bundled OpenBLAS but gated at
        runtime by :func:`fused_backward_is_exact`, never assumed.

        Returns the stacked ``(2B, in_dim)`` input gradients.
        """
        batch = fisher_dout.shape[0]
        if loss_dout.shape != fisher_dout.shape:
            raise ValueError(
                "backward_pair needs equally shaped gradient sets, got "
                f"{fisher_dout.shape} vs {loss_dout.shape}"
            )
        key = (2 * batch, self.out_dim)
        pair = self._pair_buffers.get(key)
        if pair is None:
            pair = self._pair_buffers[key] = np.empty(key, dtype=np.float64)
        pair[:batch] = fisher_dout
        pair[batch:] = loss_dout
        grad = pair
        for dense, act in zip(reversed(self.dense_layers), reversed(self.activations)):
            # The activation derivative depends only on the cached (B, h)
            # forward output; a (2, B, h) view broadcasts it over both
            # gradient sets in one elementwise pass.
            width = grad.shape[1]
            grad = act.backward(grad.reshape(2, batch, width)).reshape(
                2 * batch, width
            )
            grad = dense.backward_pair(grad)
        return grad

    # ------------------------------------------------------------------

    @property
    def parameters(self) -> List[np.ndarray]:
        """Live references to all weight matrices (optimisers mutate these)."""
        return [d.weight for d in self.dense_layers]

    @property
    def gradients(self) -> List[np.ndarray]:
        """Live references to each layer's gradient buffer, which the
        first backward allocates and every later one overwrites."""
        grads = [d.grad for d in self.dense_layers]
        if any(g is None for g in grads):
            raise RuntimeError("MLP.gradients read before backward()")
        return cast(List[np.ndarray], grads)

    def num_parameters(self) -> int:
        return sum(w.size for w in self.parameters)


#: Cache of probe results keyed by (in_dim, hidden, out_dim, batch) —
#: the probe builds scratch networks and runs real GEMMs, so each
#: architecture/batch combination is checked once per process.
_FUSED_EXACTNESS_CACHE: Dict[Tuple[Any, ...], bool] = {}


def fused_backward_is_exact(
    in_dim: int,
    hidden: Sequence[int],
    out_dim: int,
    batch: int,
) -> bool:
    """Probe whether :meth:`MLP.backward_pair` is bitwise-identical to two
    serial :meth:`MLP.backward` calls for this architecture and batch size.

    The fusion's only numerical assumption is that the BLAS computes a
    ``(2B, k) @ (k, m)`` GEMM row-block-compatibly with ``(B, k) @ (k, m)``
    (K-accumulation order independent of M).  That holds for the bundled
    OpenBLAS kernels on every probed shape, but it is a property of the
    BLAS build and thread count, not of the algorithm — so the trainer
    asks this probe at construction time with its *real* shapes instead of
    assuming, and falls back to the serial two-pass path when the answer
    is no.

    The probe is deterministic (fixed local generator, no global rng
    consumed) and compares, layer by layer, the three arrays the
    optimiser consumes: ``grad``, ``last_output_grad``, and the
    propagated input gradients.
    """
    key = (in_dim, tuple(hidden), out_dim, batch)
    cached = _FUSED_EXACTNESS_CACHE.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(0)
    ref = MLP(in_dim, hidden, out_dim, rng=0)
    fused = MLP(in_dim, hidden, out_dim, rng=0)
    x = rng.standard_normal((batch, in_dim))
    fisher_dout = rng.standard_normal((batch, out_dim))
    loss_dout = rng.standard_normal((batch, out_dim))
    ref.forward(x)
    fused.forward(x)
    # Reference: Fisher backward (caches last_output_grad), then loss
    # backward — the exact sequence ACKTR runs on the serial path.
    ref.backward(fisher_dout)
    ref_stats = [d.last_output_grad.copy() for d in ref.dense_layers]  # type: ignore[union-attr]
    ref_dx = ref.backward(loss_dout)
    ref_grads = [g.copy() for g in ref.gradients]
    fused_dx = fused.backward_pair(fisher_dout, loss_dout)
    exact = all(
        np.array_equal(fg, rg)
        and np.array_equal(fd.last_output_grad, rs)  # type: ignore[arg-type]
        for fd, fg, rg, rs in zip(
            fused.dense_layers, fused.gradients, ref_grads, ref_stats
        )
    ) and np.array_equal(fused_dx[batch:], ref_dx)
    _FUSED_EXACTNESS_CACHE[key] = exact
    return exact


class MLPInference:
    """Allocation-free, zero-copy batched forward passes over an :class:`MLP`.

    The training :meth:`MLP.forward` allocates a bias-augmented copy and a
    fresh output per layer — the right thing for backprop, pure overhead
    for inference where a batch-1 forward is dominated by allocator and
    ufunc-dispatch time.  This wrapper keeps one workspace pair per layer
    (bias-augmented input, pre-activation output), sized to the largest
    batch seen so far; a request for ``n`` rows runs on contiguous prefix
    views ``buf[:n]`` that are sliced once per width and cached, so
    lockstep evaluation rounds with a shrinking batch neither reallocate
    nor re-slice.  Each activation is written straight into the next
    layer's augmented input and training caches (``last_input_aug``, Tanh
    outputs) are never touched by a forward, so an instance can be used
    between a training forward and its backward; :meth:`adopt_caches` is
    the one call that installs the workspace as those caches.

    Zero-copy contract: :meth:`input_rows` hands out the first layer's
    data columns, so a producer (observation builder, request queue)
    writes its rows in place and :meth:`forward` on that very view copies
    nothing.  Input rows and returned logits are views of the workspace,
    valid until the next :meth:`forward` (logits) or the next growth past
    the current capacity (both).  :meth:`window` cuts the same buffers
    into row windows, each a workspace of its own (ask for the whole
    rollout first).  One driver owns an instance: nothing
    here is thread-safe, exactly like the ``Dense._aug_buffers`` /
    ``Tanh._out`` caches that callers of one ``MLP.forward`` share.

    dtype:
        ``np.float64`` (default) computes exactly what ``MLP.forward``
        computes for the same batch — same ufuncs, same GEMM — and reads
        the live weight references on every forward, so it tracks
        in-place optimiser updates.
        ``np.float32`` casts the weights once, at construction, and runs
        the whole forward in single precision — roughly 2x less memory
        traffic.  Its logits differ from float64 ones by at most
        :attr:`logit_bound`, which is what lets :meth:`certified_argmax`
        answer exactly the float64 argmax or decline — for as long as
        the weights it was cast from hold still, which is why
        ``ActorCriticPolicy.freeze`` makes the only such cast, on
        read-only weights.
    """

    def __init__(self, mlp: MLP, dtype: Any = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"MLPInference supports float64/float32, got {dtype}")
        self.mlp = mlp
        #: Rows :meth:`certified_argmax` declined (float32 mode).
        self.fallbacks = 0
        self._capacity = 0
        self._aug: List[np.ndarray] = []
        self._out: List[np.ndarray] = []
        # Per-width (input rows, per-layer steps): views sliced once.
        self._plans: Dict[int, Tuple[np.ndarray, List[Tuple[Any, ...]]]] = {}
        #: float32 mode: :func:`logit_error_bound` of the weights the cast
        #: read; float64 mode: ``None``.
        self.logit_bound: Optional[np.ndarray] = None
        self._weights: Optional[List[np.ndarray]] = None
        if self.dtype == np.dtype(np.float32):
            self._weights = [d.weight.astype(self.dtype) for d in mlp.dense_layers]
            self.logit_bound = logit_error_bound(mlp)
            self._certificate = list(enumerate(self.logit_bound.tolist()))

    def certified_argmax(
        self, x: np.ndarray, actions: Optional[np.ndarray] = None
    ) -> int:
        """The float64 argmax of each row of ``x``, read off one float32
        forward — or -1 for a row the forward cannot prove.

        A row's float32 argmax a is kept only when the row lies in the
        bound's domain (every entry in [-1, 1]; NaN is outside) and
        ℓ_a − δ_a > ℓ_k + δ_k for every k ≠ a: then a is the strict argmax
        of any float64 forward of that row.  Every declined row counts
        one in :attr:`fallbacks`; its caller decides it in float64.

        - ``actions`` omitted: ``x`` is one float64 row, ``(in_dim,)`` or
          ``(1, in_dim)``; returns a or -1.
        - ``actions`` given: ``x`` is ``(n, in_dim)`` float64; writes a or
          -1 into ``actions[j]`` for each row and returns how many rows
          declined.

        One row runs the Python loop a deployed agent pays per flow, more
        rows one vectorised test over the ``(n, K)`` logits.
        """
        if self.logit_bound is None:
            raise ValueError("certified_argmax needs a float32 workspace")
        if actions is not None:
            if len(x) == 1:
                actions[0] = action = self.certified_argmax(x)
                return int(action < 0)
            return self._certify_rows(x, actions)
        certificate = self._certificate
        row = x.ravel()
        for value in row.tolist():
            if not -1.0 <= value <= 1.0:  # NaN fails too
                self.fallbacks += 1
                return -1
        logits = self.forward(row[None])[0].tolist()
        top = max(logits)
        action = logits.index(top)
        floor = top - certificate[action][1]
        for k, delta in certificate:
            if k != action and not logits[k] + delta < floor:
                self.fallbacks += 1
                return -1
        return action

    def _certify_rows(self, x: np.ndarray, actions: np.ndarray) -> int:
        """:meth:`certified_argmax` over n > 1 rows: the same test as the
        one-row loop, in float64 as that loop's Python floats are."""
        bound = cast(np.ndarray, self.logit_bound)
        rows = np.arange(len(x))
        radius = np.abs(x).max(axis=1)  # NaN propagates
        if radius.max() <= 1.0:
            logits = self.forward(x)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # |x| may be huge
                logits = self.forward(x)
        np.argmax(logits, axis=1, out=actions)
        floor = logits[rows, actions] - bound[actions]
        upper = logits + bound
        upper[rows, actions] = -np.inf
        certified = upper.max(axis=1) < floor
        certified &= radius <= 1.0
        declined = len(x) - int(np.count_nonzero(certified))
        if declined:
            actions[~certified] = -1
            self.fallbacks += declined
        return declined

    def _plan(self, n: int) -> Tuple[np.ndarray, List[Tuple[Any, ...]]]:
        if n > self._capacity:
            self._aug = []
            self._out = []
            for dense in self.mlp.dense_layers:
                aug = np.empty((n, dense.in_dim + 1), dtype=self.dtype)
                aug[:, -1] = 1.0  # bias column, set once
                self._aug.append(aug)
                self._out.append(np.empty((n, dense.out_dim), dtype=self.dtype))
            self._capacity = n
            self._plans = {}
        augs = [aug[:n] for aug in self._aug]
        outs = [out[:n] for out in self._out]
        # Layer i's activation lands in layer i+1's data columns; the last
        # (identity) activation stays in its own pre-activation buffer.
        dsts = [aug[:, :-1] for aug in augs[1:]] + [outs[-1]]
        plan = self._plans[n] = (
            augs[0][:, :-1],
            list(zip(self.mlp.dense_layers, self.mlp.activations, augs, outs, dsts)),
        )
        return plan

    def input_rows(self, n: int) -> np.ndarray:
        """The ``(n, in_dim)`` view of the first layer's input that
        :meth:`forward` reads: fill it in place, then pass *this object*
        to :meth:`forward` and no input copy is made.  All widths are
        prefixes of one buffer, so ask for the largest width first."""
        return (self._plans.get(n) or self._plan(n))[0]

    def window(self, start: int, stop: int) -> "MLPInference":
        """A workspace on rows ``[start, stop)`` of this one's buffers.

        Same network, same :meth:`forward`; whatever the window computes
        lands in the parent's rows.  A rollout that runs step ``t`` on
        window ``t`` therefore leaves the parent holding every layer's
        activations for the whole batch, which :meth:`adopt_caches` turns
        into the training caches.  Ask the parent for the whole rollout
        first (``input_rows(total)``): a later growth reallocates, and the
        windows cut before it keep the old buffers.
        """
        if not 0 <= start < stop <= self._capacity:
            raise ValueError(
                f"window [{start}, {stop}) outside the {self._capacity} allocated rows"
            )
        view = MLPInference(self.mlp, self.dtype)
        view._aug = [aug[start:stop] for aug in self._aug]
        view._out = [out[start:stop] for out in self._out]
        view._capacity = stop - start
        return view

    def adopt_caches(self, n: int) -> np.ndarray:
        """Make rows ``[:n]`` of the workspace the network's backward caches.

        After forwards have filled those rows (in one call or window by
        window), each layer's bias-augmented input and activation output
        are what ``mlp.forward`` on the same ``n`` inputs would have
        cached, so ``mlp.backward`` / ``backward_pair`` and
        ``KFAC.update_stats`` can run without that second forward.
        Returns the ``(n, out_dim)`` outputs.  The caches are views: they
        hold until the next forward through these rows.  float64 only.
        """
        if self.dtype != np.dtype(np.float64):
            raise ValueError("training caches must be float64")
        _, steps = self._plans.get(n) or self._plan(n)
        for dense, act, aug, z, dst in steps:
            dense.last_input_aug = aug
            act.adopt_forward(z, dst)
        return steps[-1][-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``(n, in_dim) -> (n, out_dim)`` into a reused workspace.

        The returned array is a view of an internal buffer: it is valid
        until the next :meth:`forward` call and must not be kept or
        mutated by the caller.
        """
        rows, steps = self._plans.get(len(x)) or self._plan(len(x))
        if x is not rows:
            rows[...] = x  # casts on assignment in float32 mode
        weights = self._weights
        out = rows
        if weights is None:
            for dense, act, aug, z, dst in steps:
                np.matmul(aug, dense.weight, out=z)
                out = act.forward_into(z, dst)
            return out
        # float32: np.dot reaches the same BLAS kernels as np.matmul with
        # ~0.8 µs less dispatch per layer at one row; float64 keeps
        # np.matmul, whose bits MLP.forward shares.
        for w, (dense, act, aug, z, dst) in zip(weights, steps):
            np.dot(aug, w, out=z)
            out = act.forward_into(z, dst)
        return out

