"""Tests for the actor-critic policy wrapper."""

import pickle
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.nn.distributions import Categorical
from repro.rl.policy import ActorCriticPolicy


class TestActorCriticPolicy:
    def test_spaces(self):
        policy = ActorCriticPolicy(6, 4, hidden=(8, 8), rng=0)
        assert policy.actor.in_dim == 6
        assert policy.actor.out_dim == 4
        assert policy.critic.out_dim == 1

    def test_act_shapes(self):
        policy = ActorCriticPolicy(6, 4, hidden=(8,), rng=0)
        rng = np.random.default_rng(0)
        obs = rng.normal(size=(5, 6))
        actions, values, log_probs = policy.act(obs, rng)
        assert actions.shape == (5,)
        assert values.shape == (5,)
        assert log_probs.shape == (5,)
        assert np.all((actions >= 0) & (actions < 4))
        assert np.all(log_probs <= 0)

    def test_deterministic_act_is_mode(self):
        policy = ActorCriticPolicy(3, 3, hidden=(8,), rng=0)
        rng = np.random.default_rng(0)
        obs = np.eye(3)
        a1, _, _ = policy.act(obs, rng, deterministic=True)
        a2, _, _ = policy.act(obs, rng, deterministic=True)
        assert np.array_equal(a1, a2)

    def test_act_single(self):
        policy = ActorCriticPolicy(3, 4, hidden=(8,), rng=0)
        action = policy.act_single(np.zeros(3))
        assert 0 <= action < 4
        with pytest.raises(ValueError, match="rng"):
            policy.act_single(np.zeros(3), deterministic=False)

    def test_clone_independence(self):
        policy = ActorCriticPolicy(3, 2, hidden=(4,), rng=0)
        twin = policy.clone()
        obs = np.ones((1, 3))
        assert np.allclose(policy.actor.forward(obs), twin.actor.forward(obs))
        policy.actor.parameters[0][0, 0] += 5.0
        assert not np.allclose(policy.actor.forward(obs), twin.actor.forward(obs))

    def test_save_load_roundtrip(self, tmp_path):
        policy = ActorCriticPolicy(5, 3, hidden=(8, 8), rng=0)
        path = tmp_path / "policy.npz"
        policy.save(path)
        loaded = ActorCriticPolicy.load(path)
        assert loaded.obs_dim == 5
        assert loaded.num_actions == 3
        obs = np.random.default_rng(1).normal(size=(4, 5))
        assert np.allclose(policy.actor.forward(obs), loaded.actor.forward(obs))
        assert np.allclose(policy.values(obs), loaded.values(obs))

    @pytest.mark.parametrize("hidden", [(16,), (16, 8), (4, 4, 4)])
    def test_load_infers_architecture(self, tmp_path, hidden):
        """Checkpoints of any architecture load without the caller passing
        layer sizes — the widths are read from the saved array shapes."""
        policy = ActorCriticPolicy(6, 4, hidden=hidden, rng=3)
        path = tmp_path / "policy.npz"
        policy.save(path)
        loaded = ActorCriticPolicy.load(path)
        assert [d.weight.shape for d in loaded.actor.dense_layers] == [
            d.weight.shape for d in policy.actor.dense_layers
        ]
        obs = np.random.default_rng(1).normal(size=(4, 6))
        assert np.array_equal(policy.actor.forward(obs), loaded.actor.forward(obs))
        assert np.array_equal(policy.values(obs), loaded.values(obs))

    @pytest.mark.parametrize("activation", ["relu", "identity", "tanh"])
    def test_clone_and_checkpoint_keep_the_activation(self, tmp_path, activation):
        """Regression: clone() and load() rebuilt every policy as tanh, so a
        relu/identity policy silently decided differently once deployed."""
        policy = ActorCriticPolicy(6, 4, hidden=(16, 8), activation=activation, rng=3)
        path = tmp_path / "policy.npz"
        policy.save(path)
        obs = np.random.default_rng(1).normal(size=(7, 6))
        for copy in (policy.clone(), ActorCriticPolicy.load(path)):
            assert copy.actor.activation == copy.critic.activation == activation
            assert copy.actor.hidden == (16, 8)
            assert np.array_equal(policy.actor.forward(obs), copy.actor.forward(obs))
            assert np.array_equal(policy.values(obs), copy.values(obs))

    def test_checkpoint_without_activation_key_loads_as_tanh(self, tmp_path):
        policy = ActorCriticPolicy(5, 3, hidden=(8,), rng=0)
        path = tmp_path / "old.npz"
        policy.save(path)
        with np.load(path) as data:
            legacy = {k: data[k] for k in data.files if k != "activation"}
        np.savez(path, **legacy)
        loaded = ActorCriticPolicy.load(path)
        assert loaded.actor.activation == "tanh"
        obs = np.random.default_rng(1).normal(size=(4, 5))
        assert np.array_equal(policy.actor.forward(obs), loaded.actor.forward(obs))

    def test_clone_and_load_run_no_initialiser(self, tmp_path, monkeypatch):
        """The copy path is an array copy: no orthogonal init, no entropy."""
        import repro.nn.layers as layers

        policy = ActorCriticPolicy(5, 3, hidden=(8, 8), rng=0)
        path = tmp_path / "policy.npz"
        policy.save(path)

        def forbidden(*args, **kwargs):
            raise AssertionError("weight initialiser ran on the copy path")

        monkeypatch.setattr(layers, "orthogonal", forbidden)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        policy.clone()
        ActorCriticPolicy.load(path)

    def test_load_rejects_mismatched_layer_shapes(self, tmp_path):
        policy = ActorCriticPolicy(5, 3, hidden=(8,), rng=0)
        path = tmp_path / "bad.npz"
        policy.save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["critic_w0"] = np.zeros((6, 9))
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="shape mismatch"):
            ActorCriticPolicy.load(path)

    @pytest.mark.parametrize(
        "keep, cause",
        [(0.5, zipfile.BadZipFile), (0.0, EOFError)],
        ids=["half", "empty"],
    )
    def test_truncated_checkpoint_names_its_file(self, tmp_path, keep, cause):
        path = tmp_path / "cut.npz"
        ActorCriticPolicy(5, 3, hidden=(8,), rng=0).save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * keep)])
        with pytest.raises(ValueError) as caught:
            ActorCriticPolicy.load(path)
        assert str(caught.value).startswith(str(path))
        assert isinstance(caught.value.__cause__, cause)

    @pytest.mark.parametrize(
        "missing, cause",
        [("meta", KeyError), ("actor_w", ValueError)],
    )
    def test_checkpoint_missing_an_array_names_its_file(
        self, tmp_path, missing, cause
    ):
        path = tmp_path / "partial.npz"
        ActorCriticPolicy(5, 3, hidden=(8,), rng=0).save(path)
        with np.load(path) as data:
            kept = {k: data[k] for k in data.files if not k.startswith(missing)}
        np.savez(path, **kept)
        with pytest.raises(ValueError) as caught:
            ActorCriticPolicy.load(path)
        assert str(caught.value).startswith(str(path))
        assert isinstance(caught.value.__cause__, cause)

    def test_missing_checkpoint_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ActorCriticPolicy.load(tmp_path / "absent.npz")

    def test_frozen_policy_decides_alike_and_refuses_writes(self):
        policy = ActorCriticPolicy(6, 4, hidden=(8,), rng=0)
        frozen = policy.clone().freeze()
        obs = np.random.default_rng(2).normal(size=(9, 6))
        assert [frozen.act_single(o) for o in obs] == [
            policy.act_single(o) for o in obs
        ]
        with pytest.raises(ValueError, match="read-only"):
            frozen.actor.parameters[0][0, 0] = 1.0
        frozen.clone().actor.parameters[0][0, 0] = 1.0  # copies are writable

    def test_invalid_action_count(self):
        with pytest.raises(ValueError):
            ActorCriticPolicy(3, 0)


class TestActSingleEquivalence:
    """`act` on a one-row batch and `act_single` must agree exactly — the
    contract that lets the batched evaluation engine swap one for the
    other without changing any episode."""

    def _policy(self):
        return ActorCriticPolicy(6, 5, hidden=(16, 16), rng=7)

    def test_deterministic_action_matches(self):
        policy = self._policy()
        rng = np.random.default_rng(0)
        for obs in np.random.default_rng(1).normal(size=(20, 6)):
            batched, _, _ = policy.act(obs[None, :], rng, deterministic=True)
            assert int(batched[0]) == policy.act_single(obs, deterministic=True)

    def test_stochastic_action_matches_with_same_rng_state(self):
        policy = self._policy()
        for obs in np.random.default_rng(2).normal(size=(20, 6)):
            # Identical generator state on both paths: same draws.
            rng_a = np.random.default_rng(123)
            rng_b = np.random.default_rng(123)
            batched, _, _ = policy.act(obs[None, :], rng_a, deterministic=False)
            single = policy.act_single(obs, rng=rng_b, deterministic=False)
            assert int(batched[0]) == single

    def test_value_matches_single_row(self):
        policy = self._policy()
        obs = np.random.default_rng(3).normal(size=(1, 6))
        rng = np.random.default_rng(0)
        _, values, _ = policy.act(obs, rng, deterministic=True)
        assert values[0] == policy.values(obs)[0]

    def test_logits_single_matches_batch_forward(self):
        policy = self._policy()
        obs = np.random.default_rng(4).normal(size=6)
        assert np.array_equal(
            policy.logits_single(obs), policy.actor.forward(obs[None, :])[0]
        )


def historical_act_single(policy, obs, rng=None, deterministic=True):
    """``act_single`` as it was before the batch-1 workspace: the training
    forward on a one-row batch, then ``Categorical`` mode / sample."""
    dist = Categorical(policy.actor.forward(np.asarray(obs)[None, :]))
    return int(dist.mode()[0] if deterministic else dist.sample(rng)[0])


class TestBatchOneWorkspace:
    """``act_single``/``logits_single`` on the policy-owned workspace."""

    def _policy(self, activation="tanh"):
        return ActorCriticPolicy(6, 5, hidden=(16, 16), activation=activation, rng=7)

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_frozen_snapshot_decides_as_before_on_the_same_rng_stream(
        self, deterministic
    ):
        snapshot = self._policy().clone().freeze()
        observations = np.random.default_rng(5).normal(size=(200, 6))
        rng, reference_rng = np.random.default_rng(31), np.random.default_rng(31)
        actions = [
            snapshot.act_single(o, rng=rng, deterministic=deterministic)
            for o in observations
        ]
        assert actions == [
            historical_act_single(snapshot, o, reference_rng, deterministic)
            for o in observations
        ]
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert len(set(actions)) > 1

    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    def test_logits_track_inplace_steps_and_rebinding(self, activation):
        policy = self._policy(activation)
        obs = np.random.default_rng(6).normal(size=6)

        def check():
            assert np.array_equal(
                policy.logits_single(obs), policy.actor.forward(obs[None, :])[0]
            )

        check()
        for weight in policy.actor.parameters:
            weight -= 0.05 * np.sign(weight)  # optimiser-style in-place step
        check()
        policy.actor.set_parameters(self._policy().clone().actor.parameters)
        policy.actor.parameters[0][0, 0] += 1.0
        check()

    def test_input_row_filled_in_place_is_not_copied(self):
        policy = self._policy()
        obs = np.random.default_rng(8).normal(size=6)
        expected = policy.logits_single(obs).copy()
        rows = policy.workspace.input_rows(1)
        rows[0] = 0.0
        rows[0] = obs
        assert np.array_equal(policy.logits_single(rows), expected)
        assert policy.act_single(rows) == policy.act_single(obs)
        # A caller's own workspace (the float32 deployment) serves too.
        fast = policy.actor_inference(dtype=np.float32)
        logits = policy.logits_single(obs, fast)
        assert logits.dtype == np.float32
        assert np.allclose(logits, expected, rtol=1e-4, atol=1e-5)

    def test_steady_state_act_single_allocates_no_array(self):
        """The batch-1 path may create small Python objects (views, the
        int it returns) but no array data: traced memory never rises by
        even one hidden activation of the paper's network (256 float64 =
        2 KiB; the training forward peaks at ~14 KiB here)."""
        policy = ActorCriticPolicy(16, 4, rng=0)  # 2x256, as deployed
        observations = np.random.default_rng(9).normal(size=(64, 16))
        rows = policy.workspace.input_rows(1)
        for obs in observations:
            policy.act_single(obs)
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for obs in observations:
                policy.act_single(obs)
                rows[0] = obs
                policy.act_single(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - baseline < 256 * 8

    def test_clone_and_pickle_leave_the_workspace_behind(self):
        policy = self._policy()
        obs = np.random.default_rng(10).normal(size=6)
        bare = len(pickle.dumps(policy))
        action = policy.act_single(obs)
        assert policy._workspace is not None
        assert policy.clone()._workspace is None
        payload = pickle.dumps(policy)
        assert len(payload) == bare
        restored = pickle.loads(payload)
        assert restored._workspace is None
        assert restored.act_single(obs) == action
        assert policy._workspace is not None  # pickling did not drop ours
