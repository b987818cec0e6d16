"""Tests for the actor-critic policy wrapper."""

import gc
import pickle
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

from repro.nn.distributions import Categorical
from repro.rl.policy import ActorCriticPolicy

from tests.rl.reference_policy import act, state_values


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
        actions, values, log_probs = act(policy, obs, rng)
        assert actions.shape == (5,)
        assert values.shape == (5,)
        assert log_probs.shape == (5,)
        assert np.all((actions >= 0) & (actions < 4))
        assert np.all(log_probs <= 0)

    def test_deterministic_act_is_mode(self):
        policy = ActorCriticPolicy(3, 3, hidden=(8,), rng=0)
        rng = np.random.default_rng(0)
        obs = np.eye(3)
        a1, _, _ = act(policy, obs, rng, deterministic=True)
        a2, _, _ = act(policy, obs, rng, deterministic=True)
        assert np.array_equal(a1, a2)

    def test_act_single(self):
        policy = ActorCriticPolicy(3, 4, hidden=(8,), rng=0)
        action = policy.act_single(np.zeros(3))
        assert 0 <= action < 4
        assert policy.act_single(np.zeros(3), deterministic=True) == action
        with pytest.raises(ValueError, match="greedily"):
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
        assert np.allclose(state_values(policy, obs), state_values(loaded, obs))

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
        assert np.array_equal(state_values(policy, obs), state_values(loaded, obs))

    def test_clone_and_checkpoint_keep_the_network(self, tmp_path):
        policy = ActorCriticPolicy(6, 4, hidden=(16, 8), rng=3)
        path = tmp_path / "policy.npz"
        policy.save(path)
        with np.load(path) as data:
            assert str(data["activation"]) == "tanh"
        obs = np.random.default_rng(1).normal(size=(7, 6))
        for copy in (policy.clone(), ActorCriticPolicy.load(path)):
            assert copy.actor.hidden == (16, 8)
            assert np.array_equal(policy.actor.forward(obs), copy.actor.forward(obs))
            assert np.array_equal(state_values(policy, obs), state_values(copy, obs))

    def test_checkpoint_without_activation_key_loads_as_tanh(self, tmp_path):
        policy = ActorCriticPolicy(5, 3, hidden=(8,), rng=0)
        path = tmp_path / "old.npz"
        policy.save(path)
        with np.load(path) as data:
            legacy = {k: data[k] for k in data.files if k != "activation"}
        np.savez(path, **legacy)
        loaded = ActorCriticPolicy.load(path)
        obs = np.random.default_rng(1).normal(size=(4, 5))
        assert np.array_equal(policy.actor.forward(obs), loaded.actor.forward(obs))

    def test_checkpoint_of_another_activation_is_refused(self, tmp_path):
        """Every network here is tanh: a file naming another hidden
        activation holds weights this code would decide wrongly with."""
        policy = ActorCriticPolicy(5, 3, hidden=(8,), rng=0)
        path = tmp_path / "relu.npz"
        policy.save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["activation"] = np.array("relu")
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="relu") as info:
            ActorCriticPolicy.load(path)
        assert str(info.value).startswith(str(path))

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

    @staticmethod
    def resave(path, **changes):
        """Rewrite the checkpoint at ``path`` with ``changes`` applied (a
        ``None`` value drops that array)."""
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays.update(changes)
        np.savez(path, **{k: v for k, v in arrays.items() if v is not None})

    def test_load_rejects_mismatched_layer_shapes(self, tmp_path):
        """A critic that disagrees with the actor, and a ``meta`` that
        disagrees with both, fail in the network constructor; the
        message still names the file."""
        policy = ActorCriticPolicy(5, 3, hidden=(8,), rng=0)
        path = tmp_path / "bad.npz"
        for changes in ({"critic_w0": np.zeros((6, 9))}, {"meta": np.array([9, 3])}):
            policy.save(path)
            self.resave(path, **changes)
            with pytest.raises(ValueError, match="shape mismatch") as caught:
                ActorCriticPolicy.load(path)
            assert str(caught.value).startswith(str(path))

    @pytest.mark.parametrize("name", ["actor_w1", "critic_w0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_is_refused_by_name(self, tmp_path, name, bad):
        """A diverged or corrupted weight would load, freeze without a
        finite bound and answer every observation alike; it is refused
        instead, naming the array."""
        policy = ActorCriticPolicy(5, 3, hidden=(8,), rng=0)
        path = tmp_path / "diverged.npz"
        policy.save(path)
        weights = dict(zip(["actor_w0", "actor_w1"], policy.actor.parameters))
        weights.update(zip(["critic_w0", "critic_w1"], policy.critic.parameters))
        corrupted = weights[name].copy()
        corrupted[1, 0] = bad
        self.resave(path, **{name: corrupted})
        with pytest.raises(ValueError, match=f"{name} holds non-finite") as caught:
            ActorCriticPolicy.load(path)
        assert str(caught.value).startswith(str(path))

    def test_non_numeric_weight_names_its_file(self, tmp_path):
        policy = ActorCriticPolicy(5, 3, hidden=(8,), rng=0)
        path = tmp_path / "text.npz"
        policy.save(path)
        self.resave(path, actor_w0=np.full((6, 8), "a"))
        with pytest.raises(ValueError) as caught:
            ActorCriticPolicy.load(path)
        assert str(caught.value).startswith(str(path))

    def test_critic_layer_count_must_match_the_actor(self, tmp_path):
        policy = ActorCriticPolicy(5, 3, hidden=(8,), rng=0)
        path = tmp_path / "deep_critic.npz"
        policy.save(path)
        self.resave(path, critic_w2=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="critic has 3 layers, actor 2") as caught:
            ActorCriticPolicy.load(path)
        assert str(caught.value).startswith(str(path))

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

    def test_load_closes_the_checkpoint(self, tmp_path, monkeypatch):
        """``load`` must close the ``.npz`` itself.  CPython's refcounting
        hides a missing close (the handle dies with the frame), so the
        test keeps the opened archive alive and looks at it directly; the
        ResourceWarning filter covers interpreters that do warn."""
        policy = ActorCriticPolicy(4, 3, hidden=(8,), rng=0)
        path = tmp_path / "policy.npz"
        policy.save(path)
        opened = []
        real_load = np.load

        def recording_load(*args, **kwargs):
            opened.append(real_load(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(np, "load", recording_load)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            loaded = ActorCriticPolicy.load(path)
            gc.collect()
        assert [(archive.zip, archive.fid) for archive in opened] == [(None, None)]
        assert all(
            np.array_equal(a, b)
            for a, b in zip(policy.actor.parameters, loaded.actor.parameters)
        )

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
            batched, _, _ = act(policy, obs[None, :], rng, deterministic=True)
            assert int(batched[0]) == policy.act_single(obs, deterministic=True)

    def test_value_matches_single_row(self):
        policy = self._policy()
        obs = np.random.default_rng(3).normal(size=(1, 6))
        rng = np.random.default_rng(0)
        _, values, _ = act(policy, obs, rng, deterministic=True)
        assert values[0] == state_values(policy, obs)[0]

    def test_logits_single_matches_batch_forward(self):
        policy = self._policy()
        obs = np.random.default_rng(4).normal(size=6)
        assert np.array_equal(
            policy.logits_single(obs), policy.actor.forward(obs[None, :])[0]
        )


def historical_act_single(policy, obs):
    """``act_single`` as it was before the batch-1 workspace: the training
    forward on a one-row batch, then the ``Categorical`` mode."""
    return int(Categorical(policy.actor.forward(np.asarray(obs)[None, :])).mode()[0])


class TestBatchOneWorkspace:
    """``act_single``/``logits_single`` on the policy-owned workspace."""

    def _policy(self):
        return ActorCriticPolicy(6, 5, hidden=(16, 16), rng=7)

    def test_frozen_snapshot_decides_as_before(self):
        snapshot = self._policy().clone().freeze()
        observations = np.random.default_rng(5).uniform(-1.0, 1.0, size=(200, 6))
        actions = [snapshot.act_single(o) for o in observations]
        assert actions == [historical_act_single(snapshot, o) for o in observations]
        assert len(set(actions)) > 1
        # Most rows were answered by the certified float32 forward.
        assert snapshot.certified_workspace.fallbacks < len(observations) // 2

    def test_logits_track_inplace_steps_and_rebinding(self):
        policy = self._policy()
        obs = np.random.default_rng(6).normal(size=6)

        def check():
            assert np.array_equal(
                policy.logits_single(obs), policy.actor.forward(obs[None, :])[0]
            )

        check()
        for weight in policy.actor.parameters:
            weight -= 0.05 * np.sign(weight)  # optimiser-style in-place step
        check()
        for weight, new in zip(policy.actor.parameters, self._policy().actor.parameters):
            weight[...] = new
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

    def test_pickled_trained_policy_ships_its_weights_only(self, tmp_path):
        """A trained policy leaves its gradients and layer caches behind
        (``run_tasks`` returns each seed's trained policy by pickle), and
        the far side holds the same weights."""
        from repro.rl.acktr import ACKTRConfig, ACKTRTrainer

        from tests.rl.toy_envs import ContextualBanditEnv

        trainer = ACKTRTrainer(
            lambda: ContextualBanditEnv(), ACKTRConfig(n_steps=8, n_envs=4), seed=0
        )
        trainer.train(2)
        policy = trainer.policy
        assert policy.actor.hidden == (256, 256)
        weights = policy.actor.parameters + policy.critic.parameters
        weight_bytes = sum(w.nbytes for w in weights)
        payload = pickle.dumps(policy)
        assert len(payload) <= weight_bytes + 64 * 1024
        restored = pickle.loads(payload)
        policy.save(tmp_path / "a.npz")
        restored.save(tmp_path / "b.npz")
        with zipfile.ZipFile(tmp_path / "a.npz") as a, zipfile.ZipFile(
            tmp_path / "b.npz"
        ) as b:
            assert a.namelist() == b.namelist()
            for name in a.namelist():
                assert a.read(name) == b.read(name), name
        # Pickling left the trainer's own buffers and caches in place.
        trainer.update()

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
