"""Tests for dense layers and activations (including numerical gradients)."""

import pickle

import numpy as np
import pytest

from repro.nn.init import orthogonal
from repro.nn.layers import Dense, Identity, Tanh


class TestInit:
    def test_orthogonal_is_orthogonal(self):
        w = orthogonal((8, 8), rng=0)
        assert np.allclose(w @ w.T, np.eye(8), atol=1e-10)

    def test_orthogonal_gain(self):
        w = orthogonal((6, 6), gain=2.0, rng=0)
        assert np.allclose(w @ w.T, 4.0 * np.eye(6), atol=1e-9)

    def test_orthogonal_rectangular(self):
        tall = orthogonal((10, 4), rng=0)
        assert tall.shape == (10, 4)
        assert np.allclose(tall.T @ tall, np.eye(4), atol=1e-10)
        wide = orthogonal((4, 10), rng=0)
        assert np.allclose(wide @ wide.T, np.eye(4), atol=1e-10)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            orthogonal((3,))
        with pytest.raises(ValueError):
            orthogonal((3, 3, 3))


class TestDense:
    def test_forward_shape_and_bias(self):
        layer = Dense(3, 2, rng=0)
        layer.weight[:] = 0.0
        layer.weight[-1] = [1.0, 2.0]  # bias row
        out = layer.forward(np.zeros((4, 3)))
        assert out.shape == (4, 2)
        assert np.allclose(out, [[1.0, 2.0]] * 4)

    def test_bad_input_shape_rejected(self):
        layer = Dense(3, 2)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            layer.forward(np.zeros(3))

    def test_backward_gradient_numerically(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng=1)
        x = rng.normal(size=(5, 4))
        dz = rng.normal(size=(5, 3))

        def loss():
            return float(np.sum(layer.forward(x) * dz))

        layer.forward(x)
        dx = layer.backward(dz)
        analytic = layer.grad.copy()
        eps = 1e-6
        for _ in range(20):
            i = tuple(rng.integers(s) for s in layer.weight.shape)
            orig = layer.weight[i]
            layer.weight[i] = orig + eps
            up = loss()
            layer.weight[i] = orig - eps
            down = loss()
            layer.weight[i] = orig
            assert (up - down) / (2 * eps) == pytest.approx(analytic[i], abs=1e-6)
        # Input gradient: d(sum z*dz)/dx = dz @ W_core^T.
        assert np.allclose(dx, dz @ layer.weight[:-1].T)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, 0)


class TestGradientBuffer:
    """``grad`` is made by the first backward and rewritten by every later
    one: a layer that never trains holds no weight-sized gradient."""

    def test_backward_writes_one_buffer(self):
        rng = np.random.default_rng(3)
        layer = Dense(5, 4, rng=0)
        assert layer.grad is None
        buffers = []
        for rows in (6, 9):  # the buffer does not depend on the batch size
            layer.forward(rng.normal(size=(rows, 5)))
            dz = rng.normal(size=(rows, 4))
            layer.backward(dz)
            buffers.append(layer.grad)
            assert np.array_equal(layer.grad, layer.last_input_aug.T @ dz)
        assert buffers[0] is buffers[1]
        assert buffers[0].shape == layer.weight.shape

    def test_backward_pair_writes_one_buffer(self):
        rng = np.random.default_rng(4)
        layer = Dense(5, 4, rng=0)
        buffers = []
        for _ in range(2):
            layer.forward(rng.normal(size=(6, 5)))
            dz_pair = rng.normal(size=(12, 4))
            layer.backward_pair(dz_pair)
            buffers.append(layer.grad)
            assert np.array_equal(layer.grad, layer.last_input_aug.T @ dz_pair[6:])
        assert buffers[0] is buffers[1]

    def test_pickle_ships_the_weights_only(self):
        rng = np.random.default_rng(6)
        layer = Dense(64, 32, rng=0)
        act = Tanh()
        act.forward(layer.forward(rng.normal(size=(16, 64))))
        layer.backward(rng.normal(size=(16, 32)))
        restored, restored_act = pickle.loads(pickle.dumps((layer, act)))
        assert restored.grad is None
        assert restored.last_input_aug is None
        assert restored.last_output_grad is None
        assert restored._aug_buffers == {}
        assert restored_act._out is None
        assert np.array_equal(restored.weight, layer.weight)
        assert len(pickle.dumps(layer)) < layer.weight.nbytes + 1024
        # Pickling took nothing from the original.
        assert layer.grad is not None and act._out is not None
        assert 16 in layer._aug_buffers


@pytest.mark.parametrize(
    "activation,fn,dfn",
    [
        (Tanh(), np.tanh, lambda x: 1 - np.tanh(x) ** 2),
        (Identity(), lambda x: x, lambda x: np.ones_like(x)),
    ],
)
def test_activation_forward_backward(activation, fn, dfn):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4))
    dout = rng.normal(size=(3, 4))
    out = activation.forward(x)
    assert np.allclose(out, fn(x))
    assert np.allclose(activation.backward(dout), dout * dfn(x))
