"""Tests for the parallel rollout runner."""

import copy
import tracemalloc

import numpy as np
import pytest

from repro.core.env import ServiceCoordinationEnv
from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.rl.buffer import RolloutBuffer
from repro.rl.policy import ActorCriticPolicy
from repro.rl.runner import ParallelRunner

from tests.conftest import make_env_config, make_simple_catalog
from tests.rl.reference_policy import act, state_values
from tests.rl.toy_envs import ContextualBanditEnv, FixedEpisodeEnv
from tests.topology.networks import line_network


def make_runner(envs, n_steps=4, seed=0):
    policy = ActorCriticPolicy(
        envs[0].observation_size, envs[0].num_actions, hidden=(8,), rng=seed
    )
    return policy, ParallelRunner(envs, policy, n_steps, np.random.default_rng(seed))


class TestParallelRunner:
    def test_collect_fills_buffer(self):
        envs = [FixedEpisodeEnv(length=10) for _ in range(3)]
        policy, runner = make_runner(envs, n_steps=4)
        buf = RolloutBuffer(4, 3, 1)
        last_values = runner.collect(buf)
        assert buf.full
        assert last_values.shape == (3,)

    def test_episode_records_on_done(self):
        envs = [FixedEpisodeEnv(length=3) for _ in range(2)]
        policy, runner = make_runner(envs, n_steps=7)
        runner.info_keys = ("last",)
        buf = RolloutBuffer(7, 2, 1)
        runner.collect(buf)
        episodes = runner.drain_episodes()
        # 7 steps with 3-step episodes: 2 completed per env.
        assert len(episodes) == 4
        # Rewards 0+1+2 = 3 per episode; terminal info captured.
        assert all(e.total_reward == 3.0 for e in episodes)
        assert all(e.length == 3 for e in episodes)
        assert all(e.info.get("last") is True for e in episodes)

    def test_info_filtered_to_requested_keys(self):
        # Default info_keys keeps only success_ratio; FixedEpisodeEnv's
        # terminal info only has "last", so records carry an empty dict.
        envs = [FixedEpisodeEnv(length=2)]
        policy, runner = make_runner(envs, n_steps=4)
        buf = RolloutBuffer(4, 1, 1)
        runner.collect(buf)
        episodes = runner.drain_episodes()
        assert episodes
        assert all(e.info == {} for e in episodes)

    def test_info_keeps_consumed_fields(self):
        envs = [ContextualBanditEnv(num_states=3, episode_length=2)]
        policy, runner = make_runner(envs, n_steps=4)
        buf = RolloutBuffer(4, 1, 3)
        runner.collect(buf)
        episodes = runner.drain_episodes()
        assert episodes
        # success_ratio (the field the trainer consumes) survives; nothing
        # else is materialised.
        assert all(set(e.info) == {"success_ratio"} for e in episodes)

    def test_auto_reset_after_done(self):
        env = FixedEpisodeEnv(length=2)
        policy, runner = make_runner([env], n_steps=5)
        buf = RolloutBuffer(5, 1, 1)
        runner.collect(buf)
        # reset at construction + after each of 2 completed episodes.
        assert env.resets == 3

    def test_drain_clears(self):
        envs = [FixedEpisodeEnv(length=2)]
        policy, runner = make_runner(envs, n_steps=4)
        buf = RolloutBuffer(4, 1, 1)
        runner.collect(buf)
        assert runner.drain_episodes()
        assert runner.drain_episodes() == []

    def test_mismatched_envs_rejected(self):
        envs = [ContextualBanditEnv(num_states=3), ContextualBanditEnv(num_states=4)]
        with pytest.raises(ValueError, match="share"):
            make_runner(envs)

    def test_policy_env_mismatch_rejected(self):
        envs = [ContextualBanditEnv(num_states=3)]
        policy = ActorCriticPolicy(99, 3, hidden=(4,), rng=0)
        with pytest.raises(ValueError, match="match"):
            ParallelRunner(envs, policy, 4, np.random.default_rng(0))

    def test_empty_envs_rejected(self):
        policy = ActorCriticPolicy(3, 3, hidden=(4,), rng=0)
        with pytest.raises(ValueError, match="at least one"):
            ParallelRunner([], policy, 4, np.random.default_rng(0))

    def test_dones_recorded_in_buffer(self):
        envs = [FixedEpisodeEnv(length=2)]
        policy, runner = make_runner(envs, n_steps=4)
        buf = RolloutBuffer(4, 1, 1)
        runner.collect(buf)
        assert np.allclose(buf.dones[:, 0], [0.0, 1.0, 0.0, 1.0])


class TestInferenceRouting:
    def test_workspaces_attached_for_mlp_policy(self):
        envs = [ContextualBanditEnv(num_states=3)]
        _, runner = make_runner(envs)
        assert runner._actor_inference is not None
        assert runner._critic_inference is not None

    def test_collect_bitwise_matches_policy_act_path(self):
        """A trainer update must leave in its buffer the exact actions,
        observations, values and bootstrap of stepping ``policy.act`` —
        the actor through the row windows, the values from the update's
        one batch critic forward (n_envs=4: the row-block-exact case)."""
        seeds = iter(range(4))
        trainer = A2CTrainer(
            lambda: ContextualBanditEnv(num_states=3, seed=next(seeds)),
            A2CConfig(n_steps=6, n_envs=4),
            seed=3,
        )
        policy = trainer.policy.clone()
        envs = copy.deepcopy(trainer.envs)
        rng = copy.deepcopy(trainer.rng)
        obs = trainer.runner._obs.copy()
        bootstraps = []
        collect = trainer.runner.collect
        trainer.runner.collect = lambda buf: bootstraps.append(collect(buf)) or bootstraps[0]
        trainer.update()

        buffer = trainer.buffer
        for t in range(6):
            actions, values, _ = act(policy, obs, rng)
            assert np.array_equal(buffer.obs[t], obs)
            assert np.array_equal(buffer.actions[t], actions)
            assert np.array_equal(buffer.values[t], values)
            for i, env in enumerate(envs):
                obs[i], _, done, _ = env.step(int(actions[i]))
                if done:
                    obs[i] = env.reset()
        assert np.array_equal(bootstraps[0], state_values(policy, obs))

    def test_bootstrap_values_are_owned_copies(self):
        """The bootstrap must not alias the inference workspace (the next
        forward would silently overwrite it)."""
        envs = [ContextualBanditEnv(num_states=3)]
        _, runner = make_runner(envs, n_steps=2)
        buf = RolloutBuffer(2, 1, 3)
        last = runner.collect(buf)
        snapshot = last.copy()
        runner.collect(RolloutBuffer(2, 1, 3))
        assert np.array_equal(last, snapshot)


def _collected(n_envs, n_steps=6):
    envs = [
        ContextualBanditEnv(num_states=5, episode_length=1000, seed=i)
        for i in range(n_envs)
    ]
    policy = ActorCriticPolicy(5, 5, hidden=(64, 32), rng=1)
    runner = ParallelRunner(envs, policy, n_steps, np.random.default_rng(2))
    buffer = RolloutBuffer(n_steps, n_envs, 5)
    runner.collect(buffer)
    return policy, runner, buffer


def _backward_caches(actor):
    # The hidden tanh layers cache their outputs; the identity head nothing.
    caches = [dense.last_input_aug for dense in actor.dense_layers]
    return caches + [act._out for act in actor.activations[:-1]]


class TestRolloutIsTrainingForward:
    """After collect() the actor workspace holds what ``actor.forward`` on
    the flattened rollout would have cached, so the update skips it."""

    @pytest.mark.parametrize("n_envs", [1, 2, 4, 8])
    def test_workspace_equals_batch_forward_caches(self, n_envs):
        policy, runner, buffer = _collected(n_envs)
        logits = runner.training_logits()
        reference = policy.clone().actor
        expected_logits = reference.forward(buffer.flat_obs)
        # n_envs >= 4: an n_envs-row GEMM is a row block of the batch GEMM
        # on the bundled OpenBLAS; below, GEMV / 2-row kernels differ by
        # ulps (documented in DESIGN.md section 8b).
        if n_envs >= 4:
            same = np.array_equal
        else:
            same = lambda a, b: np.allclose(a, b, rtol=1e-12, atol=0.0)
        assert same(logits, expected_logits)
        adopted = _backward_caches(policy.actor)
        expected = _backward_caches(reference)
        assert len(adopted) == len(expected) == 5
        for got, want in zip(adopted, expected):
            assert got.shape == want.shape and same(got, want)
        # Adopted, not copied: the caches are the workspace's own rows.
        workspace = runner._actor_inference
        for dense, aug in zip(policy.actor.dense_layers, workspace._aug):
            assert np.shares_memory(dense.last_input_aug, aug)
        assert np.shares_memory(logits, workspace._out[-1])

    def test_gradients_through_adopted_caches_equal_a_reforward(self):
        policy, runner, buffer = _collected(4)
        dout = np.random.default_rng(3).normal(size=(24, 5))
        runner.training_logits()
        policy.actor.backward(dout)
        reference = policy.clone().actor
        reference.forward(buffer.flat_obs)
        reference.backward(dout)
        for got, want in zip(policy.actor.gradients, reference.gradients):
            assert np.array_equal(got, want)

    def test_workspace_grows_once_and_collect_does_not_allocate(self):
        policy, runner, buffer = _collected(4, n_steps=16)
        workspace = runner._actor_inference
        buffers = workspace._aug + workspace._out
        workspace_bytes = sum(b.nbytes for b in buffers)
        runner.collect(buffer)  # warm every lazily built plan
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for _ in range(3):
                runner.collect(buffer)
                runner.training_logits()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(a is b for a, b in zip(workspace._aug + workspace._out, buffers))
        assert workspace._capacity == 64
        # Nothing survives a collect, and what lives during one step
        # (logits-sized temporaries of the sampler) is a sliver of the
        # workspace: no per-step buffer is being allocated.
        assert after - before < 2048
        assert peak - before < workspace_bytes / 8


class TestBoundObservationRows:
    """Envs that can build into a row they are given are bound to the
    runner's storage; the rollout equals stepping unbound twins by hand
    (the toy-env check of ``test_collect_bitwise_matches_policy_act_path``
    on the env that has the bound-row path)."""

    N_ENVS, N_STEPS = 4, 40

    def _real_envs(self):
        # 12 decisions per 60-step episode: several auto-resets per rollout.
        config = make_env_config(line_network(3), make_simple_catalog(), horizon=60.0)
        return [ServiceCoordinationEnv(config, seed=i) for i in range(self.N_ENVS)]

    def test_every_env_builds_into_the_runners_storage(self):
        envs = self._real_envs()
        _, runner = make_runner(envs, n_steps=self.N_STEPS)
        for i, env in enumerate(envs):
            assert np.shares_memory(env.observation_out, runner._next_obs[i])
        rows = [env.observation_out for env in envs]
        runner.collect(RolloutBuffer(self.N_STEPS, self.N_ENVS, envs[0].observation_size))
        assert all(env.observation_out is row for env, row in zip(envs, rows))

    def test_collect_equals_hand_stepping_unbound_twins(self):
        envs = self._real_envs()
        policy, runner = make_runner(envs, n_steps=self.N_STEPS, seed=5)
        # Same-seed twins replay the same episodes (a live simulator does
        # not deep-copy); unbound, they take the fresh-array path.
        twins = self._real_envs()
        reference, rng = policy.clone(), copy.deepcopy(runner.rng)
        obs = np.stack([twin.reset() for twin in twins])
        assert np.array_equal(obs, runner._obs)

        buffer = RolloutBuffer(self.N_STEPS, self.N_ENVS, envs[0].observation_size)
        bootstrap = runner.collect(buffer)

        resets = 0
        for t in range(self.N_STEPS):
            actions, _, _ = act(reference, obs, rng)
            assert np.array_equal(buffer.obs[t], obs)
            assert np.array_equal(buffer.actions[t], actions)
            for i, twin in enumerate(twins):
                obs[i], reward, done, _ = twin.step(int(actions[i]))
                assert buffer.rewards[t, i] == reward
                assert buffer.dones[t, i] == float(done)
                if done:
                    obs[i] = twin.reset()
                    resets += 1
        assert resets >= self.N_ENVS
        assert np.array_equal(bootstrap, state_values(reference, obs))
