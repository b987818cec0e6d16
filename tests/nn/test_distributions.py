"""Tests for the categorical distribution and its analytic gradients."""

import numpy as np
import pytest

from repro.nn.distributions import Categorical, log_softmax, softmax


class TestSoftmax:
    def test_sums_to_one(self):
        p = softmax(np.random.default_rng(0).normal(size=(5, 4)))
        assert np.allclose(p.sum(axis=-1), 1.0)
        assert np.all(p > 0)

    def test_numerically_stable(self):
        p = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.allclose(p, [[0.5, 0.5, 0.0]])

    def test_log_softmax_consistent(self):
        logits = np.random.default_rng(1).normal(size=(3, 6))
        assert np.allclose(log_softmax(logits), np.log(softmax(logits)))


class TestCategorical:
    def test_requires_2d(self):
        with pytest.raises(ValueError):
            Categorical(np.zeros(3))

    def test_log_prob(self):
        logits = np.array([[0.0, np.log(3.0)]])  # probs [0.25, 0.75]
        dist = Categorical(logits)
        assert dist.log_prob(np.array([0]))[0] == pytest.approx(np.log(0.25))
        assert dist.log_prob(np.array([1]))[0] == pytest.approx(np.log(0.75))

    def test_entropy_uniform_is_log_k(self):
        dist = Categorical(np.zeros((1, 8)))
        assert dist.entropy()[0] == pytest.approx(np.log(8))

    def test_entropy_deterministic_is_zero(self):
        dist = Categorical(np.array([[100.0, 0.0, 0.0]]))
        assert dist.entropy()[0] == pytest.approx(0.0, abs=1e-6)

    def test_mode(self):
        dist = Categorical(np.array([[0.1, 2.0, -1.0], [5.0, 0.0, 0.0]]))
        assert list(dist.mode()) == [1, 0]

    def test_sample_distribution_matches_probs(self):
        rng = np.random.default_rng(0)
        logits = np.log(np.array([[0.7, 0.2, 0.1]]))
        dist = Categorical(np.repeat(logits, 20000, axis=0))
        samples = dist.sample(rng)
        freq = np.bincount(samples, minlength=3) / len(samples)
        assert np.allclose(freq, [0.7, 0.2, 0.1], atol=0.02)


class TestAnalyticGradients:
    def _numeric_grad(self, fn, logits, eps=1e-6):
        grad = np.zeros_like(logits)
        for i in np.ndindex(*logits.shape):
            up, down = logits.copy(), logits.copy()
            up[i] += eps
            down[i] -= eps
            grad[i] = (fn(up) - fn(down)) / (2 * eps)
        return grad

    def test_grad_log_prob(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 5))
        actions = np.array([0, 2, 4, 1])
        analytic = Categorical(logits).grad_log_prob(actions)
        for row in range(4):
            numeric = self._numeric_grad(
                lambda l: Categorical(l).log_prob(actions)[row], logits
            )
            assert np.allclose(analytic[row], numeric[row], atol=1e-6)

    def test_grad_entropy(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3, 4))
        analytic = Categorical(logits).grad_entropy()
        for row in range(3):
            numeric = self._numeric_grad(
                lambda l: Categorical(l).entropy()[row], logits
            )
            assert np.allclose(analytic[row], numeric[row], atol=1e-6)

    def test_fisher_sample_grad_zero_mean(self):
        """E_{a~pi}[pi - onehot(a)] = 0: the sampled Fisher gradients must
        average to ~zero over many draws."""
        rng = np.random.default_rng(4)
        logits = np.repeat(np.array([[0.3, -0.2, 1.0]]), 20000, axis=0)
        grads = Categorical(logits).fisher_sample_grad(rng)
        assert np.allclose(grads.mean(axis=0), 0.0, atol=0.02)
