"""Multi-layer perceptron composed of Dense + activation layers."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.nn.init import RNGLike
from repro.nn.layers import Activation, Dense, Identity, ReLU, Tanh

__all__ = ["MLP", "MLPInference", "fused_backward_is_exact", "resolve_eval_dtype"]

_ACTIVATIONS = {"tanh": Tanh, "relu": ReLU, "identity": Identity}


class MLP:
    """Feed-forward network: hidden Dense+activation stacks, linear output.

    Matches the paper's architecture when constructed with
    ``hidden=(256, 256), activation="tanh"``.

    Args:
        in_dim: Input feature dimension.
        hidden: Sizes of the hidden layers.
        out_dim: Output dimension (number of actions for the actor, 1 for
            the critic).
        activation: ``"tanh"`` (paper default), ``"relu"``, or
            ``"identity"``.
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
        activation: str = "tanh",
        out_gain: float = 0.01,
        rng: RNGLike = None,
        weights: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        if activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; choose from {sorted(_ACTIVATIONS)}"
            )
        act_cls: Type[Activation] = _ACTIVATIONS[activation]
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
        self.activations: List[Activation] = [act_cls() for _ in hidden]
        self.activations.append(Identity())
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.hidden = tuple(hidden)
        # Reusable (2B, out) stacking buffer for backward_pair, keyed by
        # shape (the training loop calls it with one fixed batch size).
        self._pair_buffers: Dict[Tuple[int, int], np.ndarray] = {}

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

    def backward(self, dout: np.ndarray, accumulate: bool = False) -> np.ndarray:
        """Backprop ``dL/d(output)``; fills each layer's ``grad``; returns dL/dx."""
        grad = dout
        for dense, act in zip(reversed(self.dense_layers), reversed(self.activations)):
            grad = dense.backward(act.backward(grad), accumulate=accumulate)
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

    def zero_grad(self) -> None:
        for dense in self.dense_layers:
            dense.zero_grad()

    # ------------------------------------------------------------------

    @property
    def parameters(self) -> List[np.ndarray]:
        """Live references to all weight matrices (optimisers mutate these)."""
        return [d.weight for d in self.dense_layers]

    @property
    def gradients(self) -> List[np.ndarray]:
        return [d.grad for d in self.dense_layers]

    def num_parameters(self) -> int:
        return sum(w.size for w in self.parameters)

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        """Overwrite all weights of an existing network with copies
        (shape-checked) — e.g. loading a saved checkpoint."""
        if len(params) != len(self.dense_layers):
            raise ValueError(
                f"expected {len(self.dense_layers)} parameter arrays, got {len(params)}"
            )
        for dense, new in zip(self.dense_layers, params):
            if new.shape != dense.weight.shape:
                raise ValueError(
                    f"parameter shape mismatch: {new.shape} vs {dense.weight.shape}"
                )
            dense.weight = new.copy()

    def copy_parameters(self) -> List[np.ndarray]:
        return [w.copy() for w in self.parameters]

    # ------------------------------------------------------------------

    def save(self, path: "Union[str, Path]") -> None:
        """Serialise weights to an ``.npz`` file."""
        arrays = {f"w{i}": w for i, w in enumerate(self.parameters)}
        np.savez(Path(path), **arrays)

    def load(self, path: "Union[str, Path]") -> None:
        """Load weights saved by :meth:`save` into this (same-shape) MLP."""
        with np.load(Path(path)) as data:
            self.set_parameters(
                [data[f"w{i}"] for i in range(len(self.dense_layers))]
            )


#: Cache of probe results keyed by (in_dim, hidden, out_dim, batch,
#: activation) — the probe builds scratch networks and runs real GEMMs,
#: so each architecture/batch combination is checked once per process.
_FUSED_EXACTNESS_CACHE: Dict[Tuple[Any, ...], bool] = {}


def fused_backward_is_exact(
    in_dim: int,
    hidden: Sequence[int],
    out_dim: int,
    batch: int,
    activation: str = "tanh",
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
    is no (mirroring how the float32 eval path is gated).

    The probe is deterministic (fixed local generator, no global rng
    consumed) and compares, layer by layer, the three arrays the
    optimiser consumes: ``grad``, ``last_output_grad``, and the
    propagated input gradients.
    """
    key = (in_dim, tuple(hidden), out_dim, batch, activation)
    cached = _FUSED_EXACTNESS_CACHE.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(0)
    ref = MLP(in_dim, hidden, out_dim, activation=activation, rng=0)
    fused = MLP(in_dim, hidden, out_dim, activation=activation, rng=0)
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
    ref_grads = [d.grad.copy() for d in ref.dense_layers]
    fused_dx = fused.backward_pair(fisher_dout, loss_dout)
    exact = all(
        np.array_equal(fd.grad, rg)
        and np.array_equal(fd.last_output_grad, rs)  # type: ignore[arg-type]
        for fd, rg, rs in zip(fused.dense_layers, ref_grads, ref_stats)
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
        the live weight references on every forward, so it tracks both
        in-place optimiser updates and ``set_parameters`` rebinding.
        ``np.float32`` casts the weights once (:meth:`refresh_weights`
        re-casts) and runs the whole forward in single precision —
        roughly 2x less memory traffic, at ~1e-6 relative error per layer
        (empirically <1e-4 relative on the logits of the paper's 2x256
        tanh network).  Use it only where bit equality with the float64
        path is not required; ``select_actions`` skips its near-tie guard
        on float32 logits.
    """

    def __init__(self, mlp: MLP, dtype: Any = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"MLPInference supports float64/float32, got {dtype}")
        self.mlp = mlp
        self._capacity = 0
        self._aug: List[np.ndarray] = []
        self._out: List[np.ndarray] = []
        self.rebind(mlp)

    def rebind(self, mlp: MLP) -> None:
        """Serve ``mlp`` from now on (a weight hot-swap); the workspaces
        stay when its layer shapes are the current network's."""
        if [w.shape for w in mlp.parameters] != [w.shape for w in self.mlp.parameters]:
            self._capacity = 0
        self.mlp = mlp
        # Per-width (input rows, per-layer steps): views sliced once.
        self._plans: Dict[int, Tuple[np.ndarray, List[Tuple[Any, ...]]]] = {}
        self.refresh_weights()

    def refresh_weights(self) -> None:
        """Re-snapshot weights (float32 mode casts; float64 mode reads
        the live references on every forward and needs no refresh)."""
        self._weights: Optional[List[np.ndarray]] = (
            None
            if self.dtype == np.dtype(np.float64)
            else [d.weight.astype(self.dtype) for d in self.mlp.dense_layers]
        )

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
        for i, (dense, act, aug, z, dst) in enumerate(steps):
            np.matmul(aug, dense.weight if weights is None else weights[i], out=z)
            out = act.forward_into(z, dst)
        return out


#: CLI spellings of the inference dtypes :class:`MLPInference` supports.
_EVAL_DTYPES = {"f64": np.float64, "f32": np.float32}


def resolve_eval_dtype(value: Optional[Any] = None) -> np.dtype:
    """Effective inference dtype: explicit ``value`` (``"f64"``/``"f32"``
    or a numpy dtype), else the ``REPRO_EVAL_DTYPE`` environment
    variable, else float64 (the bit-exact default)."""
    if value is None:
        value = os.environ.get("REPRO_EVAL_DTYPE", "").strip() or "f64"
    if isinstance(value, str):
        key = value.strip().lower()
        if key not in _EVAL_DTYPES:
            raise ValueError(
                f"unknown eval dtype {value!r}; choose from {sorted(_EVAL_DTYPES)}"
            )
        return np.dtype(_EVAL_DTYPES[key])
    dtype = np.dtype(value)
    if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"eval dtype must be float64/float32, got {dtype}")
    return dtype
