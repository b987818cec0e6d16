"""Tests for the K-FAC natural-gradient optimiser."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.nn import kfac as kfac_module
from repro.nn.kfac import DAMPING, INVERSION_INTERVAL, KFAC, KL_CLIP, STAT_DECAY
from repro.nn.mlp import MLP
from repro.nn.optim import MAX_GRAD_NORM, clip_grads_by_norm


def set_coefficients(monkeypatch, **values):
    """Give K-FAC's module constants (``KL_CLIP=...``) other values for
    one test; :class:`KFAC` reads them when a step uses them."""
    for name, value in values.items():
        monkeypatch.setattr(kfac_module, name, value)


class ReferenceKFAC:
    """Naive K-FAC spelled exactly like the original (pre-scratch-buffer)
    arithmetic: fresh ``np.eye`` per inversion, fresh gradient copies per
    step, out-of-place EMA.  The optimised :class:`KFAC` must match this
    bitwise — its buffer reuse is an allocation strategy, not a change of
    math."""

    def __init__(self, model, lr=0.25, kl_clip=KL_CLIP, damping=DAMPING,
                 stat_decay=STAT_DECAY, inversion_interval=INVERSION_INTERVAL,
                 max_grad_norm=MAX_GRAD_NORM):
        self.model = model
        self.lr = lr
        self.kl_clip = kl_clip
        self.damping = damping
        self.stat_decay = stat_decay
        self.inversion_interval = inversion_interval
        self.max_grad_norm = max_grad_norm
        layers = model.dense_layers
        self._A = [np.eye(d.weight.shape[0]) for d in layers]
        self._G = [np.eye(d.weight.shape[1]) for d in layers]
        self._A_inv = [None] * len(layers)
        self._G_inv = [None] * len(layers)
        self._steps = 0

    def update_stats(self):
        decay = self.stat_decay
        for i, dense in enumerate(self.model.dense_layers):
            aug, g = dense.last_input_aug, dense.last_output_grad
            batch = aug.shape[0]
            a_new = aug.T @ aug / batch
            g_new = g.T @ g / batch
            self._A[i] = decay * self._A[i] + (1.0 - decay) * a_new
            self._G[i] = decay * self._G[i] + (1.0 - decay) * g_new

    def _refresh_inverses(self):
        for i, (a, g) in enumerate(zip(self._A, self._G)):
            tr_a = max(np.trace(a) / a.shape[0], 1e-12)
            tr_g = max(np.trace(g) / g.shape[0], 1e-12)
            pi = np.sqrt(tr_a / tr_g)
            eps_a = np.sqrt(self.damping) * pi
            eps_g = np.sqrt(self.damping) / pi
            self._A_inv[i] = np.linalg.inv(a + eps_a * np.eye(a.shape[0]))
            self._G_inv[i] = np.linalg.inv(g + eps_g * np.eye(g.shape[0]))

    def step(self, grads):
        grads = [g.copy() for g in grads]
        clip_grads_by_norm(grads, self.max_grad_norm)
        if self._steps % self.inversion_interval == 0:
            self._refresh_inverses()
        self._steps += 1
        updates = [
            a_inv @ grad @ g_inv
            for grad, a_inv, g_inv in zip(grads, self._A_inv, self._G_inv)
        ]
        quad = 0.0
        for u, a, g in zip(updates, self._A, self._G):
            quad += float(np.sum(u * (a @ u @ g)))
        quad = max(quad, 1e-12)
        scale = min(1.0, np.sqrt(2.0 * self.kl_clip / (self.lr**2 * quad)))
        self.last_scale = float(scale)
        self.last_predicted_kl = float(0.5 * (self.lr * scale) ** 2 * quad)
        for weight, update in zip(self.model.parameters, updates):
            weight -= self.lr * scale * update
        return float(scale)


def fit_step(mlp, kfac, x, target):
    """One K-FAC update on a regression loss; returns the loss before."""
    out = mlp.forward(x)
    loss = float(0.5 * np.mean((out - target) ** 2))
    # Fisher pass (Gaussian model: unit-variance noise around the output).
    rng = np.random.default_rng(0)
    mlp.backward(rng.normal(size=out.shape))
    kfac.update_stats()
    # Loss pass.
    mlp.backward((out - target) / x.shape[0])
    kfac.step(mlp.gradients)
    return loss


class TestKFACMechanics:
    def test_update_stats_requires_passes(self):
        mlp = MLP(3, [4], 2, rng=0)
        kfac = KFAC(mlp)
        with pytest.raises(RuntimeError, match="forward"):
            kfac.update_stats()

    def test_step_checks_gradient_count(self):
        mlp = MLP(3, [4], 2, rng=0)
        kfac = KFAC(mlp)
        with pytest.raises(ValueError, match="gradients"):
            kfac.step([np.zeros((4, 2))])

    def test_invalid_hyperparameters(self):
        mlp = MLP(3, [4], 2, rng=0)
        with pytest.raises(ValueError):
            KFAC(mlp, lr=0.0)

    def test_trust_region_scale_in_unit_interval(self, monkeypatch):
        set_coefficients(monkeypatch, KL_CLIP=1e-4)
        rng = np.random.default_rng(1)
        mlp = MLP(4, [8], 3, rng=0)
        kfac = KFAC(mlp, lr=0.5)
        x = rng.normal(size=(16, 4))
        target = rng.normal(size=(16, 3))
        out = mlp.forward(x)
        mlp.backward(rng.normal(size=out.shape))
        kfac.update_stats()
        mlp.backward((out - target) / 16)
        scale = kfac.step(mlp.gradients)
        assert 0.0 < scale <= 1.0

    def test_updates_change_parameters(self):
        rng = np.random.default_rng(2)
        mlp = MLP(4, [8], 3, rng=0)
        kfac = KFAC(mlp)
        before = [w.copy() for w in mlp.parameters]
        x = rng.normal(size=(16, 4))
        fit_step(mlp, kfac, x, rng.normal(size=(16, 3)))
        assert any(
            not np.allclose(a, b) for a, b in zip(before, mlp.parameters)
        )


class TestKFACOptimisation:
    def test_regression_loss_decreases(self, monkeypatch):
        set_coefficients(monkeypatch, KL_CLIP=0.01)
        rng = np.random.default_rng(3)
        mlp = MLP(5, [16], 2, rng=4)
        kfac = KFAC(mlp, lr=0.2)
        x = rng.normal(size=(64, 5))
        true_w = rng.normal(size=(5, 2))
        target = x @ true_w
        losses = [fit_step(mlp, kfac, x, target) for _ in range(60)]
        assert losses[-1] < 0.2 * losses[0], (
            f"K-FAC failed to fit a linear map: {losses[0]:.4f} -> {losses[-1]:.4f}"
        )

    def test_preconditioning_differs_from_raw_gradient(self, monkeypatch):
        """With anisotropic input statistics the K-FAC step must differ in
        direction from the raw gradient step."""
        set_coefficients(
            monkeypatch, KL_CLIP=1e6, DAMPING=1e-3, MAX_GRAD_NORM=math.inf,
            INVERSION_INTERVAL=1,
        )
        rng = np.random.default_rng(5)
        mlp = MLP(4, [], 2, rng=6)  # single linear layer
        kfac = KFAC(mlp, lr=1.0)
        # Strongly anisotropic inputs.
        x = rng.normal(size=(256, 4)) * np.array([10.0, 1.0, 0.1, 0.01])
        target = rng.normal(size=(256, 2))
        out = mlp.forward(x)
        mlp.backward(rng.normal(size=out.shape))
        kfac.update_stats()
        mlp.backward((out - target) / 256)
        raw = mlp.gradients[0].copy()
        before = mlp.parameters[0].copy()
        kfac.step(mlp.gradients)
        step = before - mlp.parameters[0]
        cos = np.sum(step * raw) / (np.linalg.norm(step) * np.linalg.norm(raw))
        assert cos < 0.99, "preconditioned step is identical to the raw gradient"


class TestKFACExactness:
    def test_updates_bitwise_match_reference(self, monkeypatch):
        """The scratch-buffer KFAC must be bitwise identical to the naive
        allocate-per-call reference after every step: weights, factors,
        inverses and the trust-region outputs.  A small net at interval 5
        crosses the refresh twice; the paper's 16→(256, 256)→4 actor at the
        default interval refreshes at steps 0, 10 and 20, each time building
        its damped factors in the scratch that the same update's EMA folds
        wrote just before."""
        cases = [
            (4, (8,), 3, 16, 12, 5),
            (16, (256, 256), 4, 32, 25, INVERSION_INTERVAL),
        ]
        for in_dim, hidden, out_dim, batch, steps, interval in cases:
            set_coefficients(monkeypatch, INVERSION_INTERVAL=interval)
            fast_mlp = MLP(in_dim, list(hidden), out_dim, rng=0)
            ref_mlp = MLP(in_dim, list(hidden), out_dim, rng=0)
            fast = KFAC(fast_mlp, lr=0.25)
            ref = ReferenceKFAC(ref_mlp, lr=0.25, inversion_interval=interval)
            rng = np.random.default_rng(7)
            for it in range(steps):
                x = rng.normal(size=(batch, in_dim))
                target = rng.normal(size=(batch, out_dim))
                fisher_noise = rng.normal(size=(batch, out_dim))
                for mlp, opt in ((fast_mlp, fast), (ref_mlp, ref)):
                    out = mlp.forward(x)
                    mlp.backward(fisher_noise)
                    opt.update_stats()
                    mlp.backward((out - target) / batch)
                    opt.step(mlp.gradients)
                where = f"{hidden} at step {it}"
                assert fast.last_scale == ref.last_scale, where
                assert fast.last_predicted_kl == ref.last_predicted_kl, where
                pairs = {
                    "weights": (fast_mlp.parameters, ref_mlp.parameters),
                    "A": (fast._A, ref._A),
                    "G": (fast._G, ref._G),
                    "A_inv": (fast._A_inv, ref._A_inv),
                    "G_inv": (fast._G_inv, ref._G_inv),
                }
                for name, (ours, theirs) in pairs.items():
                    for li, (a, b) in enumerate(zip(ours, theirs)):
                        assert np.array_equal(a, b), f"{name}[{li}], {where}"

    def test_damping_equals_the_identity_sum_bitwise(self):
        """The damped factor is bitwise ``a + eps * np.eye(n)`` even where
        ``a`` holds a ``-0.0``: the sum turns an off-diagonal ``-0.0``
        into ``+0.0``, which a plain copy of ``a`` would keep."""
        kfac = KFAC(MLP(5, [], 3, rng=0))
        rng = np.random.default_rng(19)
        base = rng.normal(size=(6, 6))
        factor = base @ base.T
        factor[0, 1] = factor[1, 0] = -0.0
        factor[2, 2] = -0.0
        eps = float(np.sqrt(DAMPING) * 0.75)
        expected = factor + eps * np.eye(6)
        inverse = kfac._damped_inverse(factor, eps)
        damped = kfac._factor_view(6)
        assert np.signbit(factor[0, 1]) and not np.signbit(expected[0, 1])
        assert np.array_equal(damped.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(
            inverse.view(np.uint64), np.linalg.inv(expected).view(np.uint64)
        )

    def test_step_does_not_mutate_caller_gradients(self, monkeypatch):
        """step() clips into its scratch buffers, never the caller arrays."""
        # Tiny clip norm guarantees clipping actually rescales.
        set_coefficients(monkeypatch, MAX_GRAD_NORM=1e-3)
        rng = np.random.default_rng(9)
        mlp = MLP(4, [8], 3, rng=0)
        kfac = KFAC(mlp)
        x = rng.normal(size=(16, 4))
        out = mlp.forward(x)
        mlp.backward(rng.normal(size=out.shape))
        kfac.update_stats()
        mlp.backward((out - rng.normal(size=out.shape)) / 16)
        grads = mlp.gradients
        before = [g.copy() for g in grads]
        kfac.step(grads)
        for orig, after in zip(before, grads):
            assert np.array_equal(orig, after)


class TestInversionInterval:
    def test_interval_longer_than_run_inverts_once(self, monkeypatch):
        """With INVERSION_INTERVAL beyond the step count, the first step
        computes the factor inverses and every later step reuses them."""
        set_coefficients(monkeypatch, INVERSION_INTERVAL=1000)
        rng = np.random.default_rng(11)
        mlp = MLP(4, [8], 3, rng=0)
        kfac = KFAC(mlp)
        x = rng.normal(size=(16, 4))
        fit_step(mlp, kfac, x, rng.normal(size=(16, 3)))
        first_ids = [id(a) for a in kfac._A_inv] + [id(g) for g in kfac._G_inv]
        for _ in range(4):
            fit_step(mlp, kfac, x, rng.normal(size=(16, 3)))
        assert kfac._steps == 5
        later_ids = [id(a) for a in kfac._A_inv] + [id(g) for g in kfac._G_inv]
        assert later_ids == first_ids, "inverses were recomputed mid-interval"

    def test_grad_norm_recorded_pre_clip(self, monkeypatch):
        """last_grad_norm is the global norm *before* clipping."""
        set_coefficients(monkeypatch, MAX_GRAD_NORM=1e-3)  # clipping always fires
        rng = np.random.default_rng(13)
        mlp = MLP(4, [8], 3, rng=0)
        kfac = KFAC(mlp)
        x = rng.normal(size=(16, 4))
        out = mlp.forward(x)
        mlp.backward(rng.normal(size=out.shape))
        kfac.update_stats()
        mlp.backward((out - rng.normal(size=out.shape)) / 16)
        grads = mlp.gradients
        expected = clip_grads_by_norm([g.copy() for g in grads], 1e-3)
        kfac.step(grads)
        assert kfac.last_grad_norm == expected
        assert kfac.last_grad_norm > 1e-3


def held_arrays(kfac):
    """Every array a :class:`KFAC` keeps between steps (its model aside)."""
    for name, value in vars(kfac).items():
        if name != "model":
            items = value if isinstance(value, list) else [value]
            yield from (a for a in items if isinstance(a, np.ndarray))


class TestFootprint:
    """K-FAC holds its state and one scratch; a refresh allocates no
    factor-sized temporary beyond the inverses it replaces."""

    @staticmethod
    def paper_actor_step(mlp, kfac, rng):
        """Forward, Fisher pass, stats, loss pass; returns the gradients
        for the caller to hand to ``kfac.step``."""
        x = rng.normal(size=(32, 16))
        mlp.forward(x)
        mlp.backward(rng.normal(size=(32, 4)))
        kfac.update_stats()
        mlp.backward(rng.normal(size=(32, 4)) / 32)
        return mlp.gradients

    def test_held_arrays_are_state_and_one_scratch(self):
        mlp = MLP(16, [256, 256], 4, rng=0)
        kfac = KFAC(mlp)
        rng = np.random.default_rng(23)
        kfac.step(self.paper_actor_step(mlp, kfac, rng))
        factors = kfac._A + kfac._G
        factor_bytes = sum(f.nbytes for f in factors)
        weight_bytes = sum(w.nbytes for w in mlp.parameters)
        expected = (
            2 * factor_bytes  # A, G and their inverses
            + max(f.nbytes for f in factors)  # the one scratch
            + 3 * weight_bytes  # clipped copies, natural gradients, temporaries
        )
        assert sum(a.nbytes for a in held_arrays(kfac)) == expected

    def test_refresh_step_peaks_no_higher_than_an_ordinary_step(self):
        """Traced from construction on, so the inverses a refresh
        replaces count as freed: the refresh (step 10) peaks no higher
        than the ordinary step before it, whose peak is the clip's
        weight-sized ``g**2``.  Building the damped sum from ``np.eye``
        peaked a full largest factor higher."""
        rng = np.random.default_rng(29)
        tracemalloc.start()
        try:
            mlp = MLP(16, [256, 256], 4, rng=0)
            kfac = KFAC(mlp)
            peaks = []
            for _ in range(INVERSION_INTERVAL + 1):
                grads = self.paper_actor_step(mlp, kfac, rng)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                kfac.step(grads)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        ordinary, refresh = peaks[-2], peaks[-1]
        largest = max(f.nbytes for f in kfac._A + kfac._G)
        assert ordinary > largest // 2  # the clip's g**2 is traced
        assert refresh <= ordinary, (refresh / largest, ordinary / largest)
