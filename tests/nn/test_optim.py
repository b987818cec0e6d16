"""Tests for first-order optimisers."""

import numpy as np
import pytest

from repro.nn.optim import RMSprop, clip_grads_by_norm

from tests.nn.sgd import SGD


def quadratic_descent(optimizer_factory, steps: int = 200) -> float:
    """Minimise f(w) = ||w||^2 from a fixed start; return final norm."""
    w = np.array([[3.0, -2.0], [1.0, 4.0]])
    opt = optimizer_factory([w])
    for _ in range(steps):
        opt.step([2.0 * w])
    return float(np.linalg.norm(w))


class TestDescent:
    def test_sgd_converges(self):
        assert quadratic_descent(lambda p: SGD(p, lr=0.1)) < 1e-6

    def test_sgd_momentum_converges(self):
        assert quadratic_descent(lambda p: SGD(p, lr=0.05, momentum=0.9)) < 1e-3

    def test_rmsprop_converges(self):
        assert quadratic_descent(lambda p: RMSprop(p, lr=0.05)) < 1e-2


class TestMechanics:
    def test_updates_in_place(self):
        w = np.ones((2, 2))
        ref = w
        SGD([w], lr=0.5).step([np.ones((2, 2))])
        assert ref is w
        assert np.allclose(w, 0.5)

    def test_gradient_count_checked(self):
        opt = SGD([np.ones(2)], lr=0.1)
        with pytest.raises(ValueError, match="gradients"):
            opt.step([np.ones(2), np.ones(2)])

    @pytest.mark.parametrize("cls,kwargs", [
        (SGD, {"lr": 0.0}),
        (SGD, {"lr": 0.1, "momentum": 1.0}),
        (RMSprop, {"lr": 0.0}),
    ])
    def test_invalid_hyperparameters(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls([np.ones(2)], **kwargs)

    def test_multiple_parameter_groups(self):
        a, b = np.ones(3), np.full(2, 2.0)
        opt = SGD([a, b], lr=1.0)
        opt.step([np.ones(3), np.ones(2)])
        assert np.allclose(a, 0.0)
        assert np.allclose(b, 1.0)


class TestClipGrads:
    def test_no_clip_when_small(self):
        g = [np.array([0.3, 0.4])]
        norm = clip_grads_by_norm(g, max_norm=1.0)
        assert norm == pytest.approx(0.5)
        assert np.allclose(g[0], [0.3, 0.4])

    def test_clips_to_max_norm(self):
        g = [np.array([3.0, 4.0])]
        norm = clip_grads_by_norm(g, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(g[0]) == pytest.approx(1.0)

    def test_global_norm_across_arrays(self):
        g = [np.array([3.0]), np.array([4.0])]
        clip_grads_by_norm(g, max_norm=2.5)
        total = np.sqrt(g[0][0] ** 2 + g[1][0] ** 2)
        assert total == pytest.approx(2.5)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grads_by_norm([np.ones(2)], max_norm=0.0)
