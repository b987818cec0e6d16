"""Tests for the MLP: shapes, gradients, parameter plumbing, persistence."""

import gc
import warnings

import numpy as np
import pytest

from repro.nn.mlp import MLP


class TestForward:
    def test_output_shape(self):
        mlp = MLP(5, [16, 8], 3, rng=0)
        assert mlp.forward(np.zeros((7, 5))).shape == (7, 3)

    def test_1d_input_promoted(self):
        mlp = MLP(5, [8], 2, rng=0)
        assert mlp.forward(np.zeros(5)).shape == (1, 2)

    def test_callable(self):
        mlp = MLP(3, [4], 2, rng=0)
        x = np.ones((2, 3))
        assert np.allclose(mlp(x), mlp.forward(x))

    def test_activation_choices(self):
        for act in ("tanh", "relu", "identity"):
            MLP(3, [4], 2, activation=act, rng=0).forward(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="unknown activation"):
            MLP(3, [4], 2, activation="gelu")

    def test_no_hidden_layers(self):
        mlp = MLP(3, [], 2, rng=0)
        assert len(mlp.dense_layers) == 1


class TestBackward:
    def test_full_network_gradient_numerically(self):
        rng = np.random.default_rng(1)
        mlp = MLP(4, [6, 5], 3, rng=2)
        x = rng.normal(size=(8, 4))
        target = rng.normal(size=(8, 3))

        def loss():
            return float(0.5 * np.sum((mlp.forward(x) - target) ** 2))

        out = mlp.forward(x)
        mlp.backward(out - target)
        analytic = [g.copy() for g in mlp.gradients]
        eps = 1e-6
        for layer_index, w in enumerate(mlp.parameters):
            for _ in range(8):
                i = tuple(rng.integers(s) for s in w.shape)
                orig = w[i]
                w[i] = orig + eps
                up = loss()
                w[i] = orig - eps
                down = loss()
                w[i] = orig
                numeric = (up - down) / (2 * eps)
                assert numeric == pytest.approx(
                    analytic[layer_index][i], abs=1e-5
                ), f"layer {layer_index} entry {i}"

    def test_zero_grad(self):
        mlp = MLP(3, [4], 2, rng=0)
        mlp.forward(np.ones((2, 3)))
        mlp.backward(np.ones((2, 2)))
        mlp.zero_grad()
        assert all(np.all(g == 0) for g in mlp.gradients)


class TestParameters:
    def test_num_parameters(self):
        mlp = MLP(4, [8], 2, rng=0)
        # (4+1)*8 + (8+1)*2 = 40 + 18.
        assert mlp.num_parameters() == 58

    def test_set_and_copy_parameters(self):
        a = MLP(3, [4], 2, rng=0)
        b = MLP(3, [4], 2, rng=99)
        b.set_parameters(a.copy_parameters())
        x = np.ones((2, 3))
        assert np.allclose(a.forward(x), b.forward(x))
        # Copies must be independent.
        a.parameters[0][0, 0] += 1.0
        assert not np.allclose(a.forward(x), b.forward(x))

    def test_set_parameters_shape_checked(self):
        mlp = MLP(3, [4], 2, rng=0)
        with pytest.raises(ValueError, match="shape mismatch"):
            mlp.set_parameters([np.zeros((2, 2)), np.zeros((5, 2))])
        with pytest.raises(ValueError, match="expected"):
            mlp.set_parameters([np.zeros((4, 4))])

    def test_save_load_roundtrip(self, tmp_path):
        mlp = MLP(4, [8, 8], 3, rng=0)
        path = tmp_path / "weights.npz"
        mlp.save(path)
        other = MLP(4, [8, 8], 3, rng=123)
        other.load(path)
        x = np.random.default_rng(0).normal(size=(5, 4))
        assert np.allclose(mlp.forward(x), other.forward(x))

    def test_load_closes_the_checkpoint(self, tmp_path, monkeypatch):
        """``load`` must close the ``.npz`` itself.  CPython's refcounting
        hides a missing close (the handle dies with the frame), so the
        test keeps the opened archive alive and looks at it directly; the
        ResourceWarning filter covers interpreters that do warn."""
        mlp = MLP(4, [8], 3, rng=0)
        path = tmp_path / "weights.npz"
        mlp.save(path)
        opened = []
        real_load = np.load

        def recording_load(*args, **kwargs):
            opened.append(real_load(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(np, "load", recording_load)
        other = MLP(4, [8], 3, rng=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            other.load(path)
            gc.collect()
        assert [archive.fid for archive in opened] == [None]
        assert all(
            np.array_equal(a, b) for a, b in zip(mlp.parameters, other.parameters)
        )


class TestMLPInference:
    """Workspace-backed inference path vs the allocating training forward."""

    def _pair(self, hidden=(16, 8), rng=5):
        from repro.nn.mlp import MLPInference

        mlp = MLP(6, list(hidden), 4, rng=rng)
        return mlp, MLPInference(mlp)

    def test_float64_bitwise_equal_to_training_forward(self):
        mlp, inference = self._pair()
        x = np.random.default_rng(0).normal(size=(9, 6))
        assert np.array_equal(inference.forward(x), mlp.forward(x))

    def test_prefix_batches_reuse_workspace(self):
        mlp, inference = self._pair()
        rng = np.random.default_rng(1)
        big = rng.normal(size=(32, 6))
        inference.forward(big)  # allocate to capacity 32
        for n in (32, 17, 5, 1):
            x = rng.normal(size=(n, 6))
            out = inference.forward(x)
            assert out.shape == (n, 4)
            assert np.array_equal(out, mlp.forward(x))

    def test_result_view_invalidated_by_next_call(self):
        """The returned array is a workspace view — callers must copy
        before the next forward (documented contract)."""
        mlp, inference = self._pair()
        rng = np.random.default_rng(2)
        a = inference.forward(rng.normal(size=(3, 6)))
        snapshot = a.copy()
        inference.forward(rng.normal(size=(3, 6)))
        assert not np.array_equal(a, snapshot)

    def test_tracks_inplace_weight_updates(self):
        mlp, inference = self._pair()
        x = np.random.default_rng(3).normal(size=(4, 6))
        before = inference.forward(x).copy()
        mlp.parameters[0] += 0.5  # optimiser-style in-place step
        after = inference.forward(x)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, mlp.forward(x))

    def test_tracks_set_parameters_rebinding(self):
        mlp, inference = self._pair()
        donor = MLP(6, [16, 8], 4, rng=99)
        mlp.set_parameters(donor.copy_parameters())
        x = np.random.default_rng(4).normal(size=(4, 6))
        assert np.array_equal(inference.forward(x), mlp.forward(x))

    def test_float32_mode_within_tolerance(self):
        from repro.nn.mlp import MLPInference

        mlp = MLP(6, [32, 32], 4, rng=7)
        inference = MLPInference(mlp, dtype=np.float32)
        x = np.random.default_rng(5).normal(size=(16, 6))
        out = inference.forward(x.astype(np.float32))
        assert out.dtype == np.float32
        reference = mlp.forward(x)
        assert np.allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_float32_requires_refresh_after_set_parameters(self):
        from repro.nn.mlp import MLPInference

        mlp = MLP(6, [8], 4, rng=7)
        inference = MLPInference(mlp, dtype=np.float32)
        donor = MLP(6, [8], 4, rng=42)
        mlp.set_parameters(donor.copy_parameters())
        x = np.random.default_rng(6).normal(size=(2, 6)).astype(np.float32)
        stale = inference.forward(x).copy()
        inference.refresh_weights()
        fresh = inference.forward(x)
        assert not np.array_equal(stale, fresh)
        assert np.allclose(fresh, mlp.forward(x.astype(np.float64)),
                           rtol=1e-4, atol=1e-5)

    def test_float32_reuses_workspace_without_allocating(self):
        """Repeat forwards at or below capacity must run entirely in the
        preallocated buffers — same backing arrays, no growth."""
        from repro.nn.mlp import MLPInference

        mlp = MLP(6, [32, 32], 4, rng=7)
        inference = MLPInference(mlp, dtype=np.float32)
        rng = np.random.default_rng(9)
        inference.forward(rng.normal(size=(32, 6)))  # allocate capacity 32
        aug_bases = [a for a in inference._aug]
        out_bases = [o for o in inference._out]
        for n in (32, 11, 32, 3, 1, 32):
            out = inference.forward(rng.normal(size=(n, 6)))
            assert out.base is out_bases[-1]
            assert all(a is b for a, b in zip(inference._aug, aug_bases))
            assert all(a is b for a, b in zip(inference._out, out_bases))
        assert inference._capacity == 32

    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    @pytest.mark.parametrize("width", [1, 4, 32])
    def test_bitwise_equal_across_widths_and_activations(self, activation, width):
        """Same ufunc, same GEMM, same operands as the training forward —
        also after an in-place optimiser step and after the weight arrays
        were rebound, with no refresh call in between."""
        from repro.nn.mlp import MLPInference
        from repro.nn.optim import SGD

        rng = np.random.default_rng(width)
        mlp = MLP(6, [16, 8], 4, activation=activation, rng=3)
        inference = MLPInference(mlp)
        x = rng.normal(size=(width, 6))
        assert np.array_equal(inference.forward(x), mlp.forward(x))

        mlp.backward(rng.normal(size=(width, 4)))
        SGD(mlp.parameters, lr=0.1).step(mlp.gradients)
        stepped = inference.forward(x).copy()
        assert np.array_equal(stepped, mlp.forward(x))

        mlp.set_parameters(MLP(6, [16, 8], 4, rng=99).copy_parameters())
        rebound = inference.forward(x)
        assert not np.array_equal(rebound, stepped)
        assert np.array_equal(rebound, mlp.forward(x))

    def test_forward_on_input_rows_copies_nothing_and_equals_the_copy_path(self):
        mlp, inference = self._pair()
        x = np.random.default_rng(6).normal(size=(32, 6))
        expected = inference.forward(x).copy()
        rows = inference.input_rows(32)
        assert inference.input_rows(32) is rows
        assert rows.base is inference._aug[0]
        rows[...] = x
        assert np.array_equal(inference.forward(rows), expected)
        assert np.array_equal(rows, x)  # the forward leaves its input alone
        # Narrower widths are prefixes of the same buffer: what a producer
        # wrote through the wide view is what the narrow forward reads.
        head = inference.input_rows(5)
        assert np.shares_memory(head, rows) and np.array_equal(head, x[:5])
        assert np.array_equal(inference.forward(head), mlp.forward(x[:5]))

    def test_growing_past_capacity_replaces_the_input_rows(self):
        """Documented limit of the zero-copy contract: ask for the widest
        view first, a later growth hands out new buffers."""
        mlp, inference = self._pair()
        small = inference.input_rows(2)
        wide = inference.input_rows(8)
        assert not np.shares_memory(small, wide)
        assert inference.input_rows(2) is not small
        x = np.random.default_rng(7).normal(size=(2, 6))
        small[...] = x  # a stale view still works, through the copy path
        assert np.array_equal(inference.forward(small), mlp.forward(x))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rebind_keeps_the_workspaces_for_an_equal_architecture(self, dtype):
        from repro.nn.mlp import MLPInference

        mlp, _ = self._pair()
        other = MLP(6, [16, 8], 4, activation="relu", rng=11)
        inference = MLPInference(mlp, dtype=dtype)
        x = np.random.default_rng(8).normal(size=(5, 6))
        inference.forward(x)
        buffers = inference._aug + inference._out
        inference.rebind(other)
        out = inference.forward(x)
        assert all(a is b for a, b in zip(inference._aug + inference._out, buffers))
        assert np.array_equal(out, MLPInference(other, dtype=dtype).forward(x))

    def test_rebind_to_another_architecture_rebuilds_the_workspaces(self):
        mlp, inference = self._pair()
        x = np.random.default_rng(9).normal(size=(5, 6))
        inference.forward(x)
        wider = MLP(6, [32], 4, rng=12)
        inference.rebind(wider)
        assert np.array_equal(inference.forward(x), wider.forward(x))

    def test_rejects_unsupported_dtype(self):
        from repro.nn.mlp import MLPInference

        with pytest.raises(ValueError, match="float64/float32"):
            MLPInference(MLP(3, [4], 2, rng=0), dtype=np.int32)

    def test_does_not_disturb_training_caches(self):
        """An inference forward between a training forward and backward
        must not corrupt the gradients."""
        from repro.nn.mlp import MLPInference

        rng = np.random.default_rng(8)
        mlp = MLP(4, [6], 3, rng=9)
        inference = MLPInference(mlp)
        x = rng.normal(size=(5, 4))
        grad_out = rng.normal(size=(5, 3))

        mlp.forward(x)
        mlp.zero_grad()
        mlp.backward(grad_out)
        expected = [g.copy() for g in mlp.gradients]

        mlp.forward(x)
        mlp.zero_grad()
        inference.forward(rng.normal(size=(7, 4)))  # interleaved inference
        mlp.backward(grad_out)
        assert all(np.array_equal(a, b) for a, b in zip(expected, mlp.gradients))


class TestBackwardPair:
    def test_bitwise_matches_two_serial_backwards(self):
        """backward_pair(fisher, loss) must reproduce, bitwise, the caches
        and gradients of backward(fisher) followed by backward(loss)."""
        rng = np.random.default_rng(0)
        batch = 16
        fused = MLP(6, [8, 8], 3, rng=1)
        ref = MLP(6, [8, 8], 3, rng=1)
        x = rng.normal(size=(batch, 6))
        fisher = rng.normal(size=(batch, 3))
        loss = rng.normal(size=(batch, 3))
        fused.forward(x)
        ref.forward(x)
        ref_fisher_dx = ref.backward(fisher)
        ref_output_grads = [d.last_output_grad.copy() for d in ref.dense_layers]
        ref_loss_dx = ref.backward(loss)
        ref_grads = [g.copy() for g in ref.gradients]

        dx_pair = fused.backward_pair(fisher, loss)
        assert dx_pair.shape == (2 * batch, 6)
        assert np.array_equal(dx_pair[:batch], ref_fisher_dx)
        assert np.array_equal(dx_pair[batch:], ref_loss_dx)
        for dense, og in zip(fused.dense_layers, ref_output_grads):
            # K-FAC's G factor reads the *fisher* rows of the pair.
            assert np.array_equal(dense.last_output_grad, og)
        for a, b in zip(fused.gradients, ref_grads):
            assert np.array_equal(a, b)

    def test_pair_buffer_reused_across_calls(self):
        rng = np.random.default_rng(2)
        mlp = MLP(4, [8], 2, rng=0)
        x = rng.normal(size=(8, 4))
        mlp.forward(x)
        mlp.backward_pair(rng.normal(size=(8, 2)), rng.normal(size=(8, 2)))
        buf = mlp._pair_buffers[(16, 2)]
        mlp.forward(x)
        mlp.backward_pair(rng.normal(size=(8, 2)), rng.normal(size=(8, 2)))
        assert mlp._pair_buffers[(16, 2)] is buf

    def test_exactness_probe_caches(self):
        from repro.nn.mlp import fused_backward_is_exact

        first = fused_backward_is_exact(5, (8,), 3, 12)
        second = fused_backward_is_exact(5, (8,), 3, 12)
        assert isinstance(first, bool)
        assert first == second
