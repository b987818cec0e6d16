"""Property-based tests for the neural-network stack."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.distributions import Categorical, softmax
from repro.nn.mlp import MLP
from repro.nn.optim import clip_grads_by_norm


logits_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 8), st.integers(2, 6)),
    elements=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)


class TestDistributionProperties:
    @settings(max_examples=50, deadline=None)
    @given(logits=logits_arrays)
    def test_softmax_is_distribution(self, logits):
        p = softmax(logits)
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=-1), 1.0)

    @settings(max_examples=50, deadline=None)
    @given(logits=logits_arrays)
    def test_entropy_bounds(self, logits):
        dist = Categorical(logits)
        entropy = dist.entropy()
        assert np.all(entropy >= -1e-9)
        assert np.all(entropy <= np.log(logits.shape[1]) + 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(logits=logits_arrays)
    def test_shift_invariance(self, logits):
        a = Categorical(logits)
        b = Categorical(logits + 123.0)
        assert np.allclose(a.probs, b.probs, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(logits=logits_arrays, data=st.data())
    def test_grad_log_prob_rows_sum_to_zero(self, logits, data):
        dist = Categorical(logits)
        actions = np.array([
            data.draw(st.integers(0, logits.shape[1] - 1))
            for _ in range(logits.shape[0])
        ])
        grads = dist.grad_log_prob(actions)
        # Softmax gradients live on the simplex tangent: rows sum to 0.
        assert np.allclose(grads.sum(axis=-1), 0.0, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(logits=logits_arrays)
    def test_grad_entropy_rows_sum_to_zero(self, logits):
        assert np.allclose(
            Categorical(logits).grad_entropy().sum(axis=-1), 0.0, atol=1e-9
        )


class TestMLPProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        batch=st.integers(1, 16),
    )
    def test_forward_is_deterministic(self, seed, batch):
        mlp = MLP(5, [8], 3, rng=seed)
        x = np.random.default_rng(seed).normal(size=(batch, 5))
        assert np.array_equal(mlp.forward(x), mlp.forward(x))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_tanh_output_bounded_by_weights(self, seed):
        """With tanh hidden activations, the output is bounded by the
        output layer's weight mass — no explosion for any input."""
        mlp = MLP(4, [8], 2, rng=seed)
        w_out = mlp.dense_layers[-1].weight
        bound = np.abs(w_out).sum(axis=0)
        x = np.random.default_rng(seed).normal(size=(10, 4)) * 1000
        out = mlp.forward(x)
        assert np.all(np.abs(out) <= bound[None, :] + 1e-9)


class TestClipProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1, max_size=20,
        ),
        max_norm=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_clipped_norm_never_exceeds_bound(self, values, max_norm):
        grads = [np.array(values)]
        clip_grads_by_norm(grads, max_norm)
        assert np.linalg.norm(grads[0]) <= max_norm + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=1, max_size=10,
        ),
    )
    def test_direction_preserved(self, values):
        original = np.array(values)
        grads = [original.copy()]
        clip_grads_by_norm(grads, max_norm=0.1)
        if np.linalg.norm(original) > 0:
            cos = np.dot(grads[0], original)
            assert cos >= 0  # never flips direction
