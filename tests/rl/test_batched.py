"""Tests for the batched lockstep evaluation engine.

The load-bearing property is *bit-identity*: for any batch width M, the
batched runner must reproduce the serial ``act_single`` evaluation loop
episode for episode — same actions, same rewards, same lengths, same
terminal infos.  The regression tests here compare full per-episode
metric tuples against an explicit greedy serial reference, including a
forced all-ties actor that exercises the near-tie fallback on every
single decision.
"""

import json

import numpy as np
import pytest

from repro.core.env import ServiceCoordinationEnv
from repro.nn.mlp import resolve_eval_dtype
from repro.rl.batched import (
    BatchedEpisodeRunner,
    BatchedEvalStats,
    EpisodeOutcome,
    supports_batched_evaluation,
)
from repro.rl.policy import ARGMAX_TIE_TOLERANCE, ActorCriticPolicy
from repro.rl.training import (
    LOCKSTEP_MAX_WIDTH,
    LOCKSTEP_MIN_EPISODES,
    evaluate_policy,
)
from repro.telemetry import validate_record
from repro.telemetry.recorder import JsonlRecorder
from repro.topology import line_network, star_network

from tests.conftest import make_env_config, make_simple_catalog


def make_env(seed=0, horizon=120.0, interval=7.0, branches=None):
    if branches:
        net = star_network(
            branches, node_capacity=10.0, link_capacity=10.0, link_delay=1.0
        )
    else:
        net = line_network(
            3, node_capacity=10.0, link_capacity=10.0, link_delay=1.0
        )
    catalog = make_simple_catalog(processing_delay=2.0)
    return ServiceCoordinationEnv(
        make_env_config(net, catalog, horizon=horizon, interval=interval),
        seed=seed,
    )


def make_policy(env, rng=3):
    return ActorCriticPolicy(
        env.observation_size, env.num_actions, hidden=(32, 32), rng=rng
    )


def serial_reference(policy, env, episodes):
    """The historical evaluation loop: per-episode act_single stepping."""
    outcomes = []
    for _ in range(episodes):
        obs = env.reset()
        done, total, steps, info = False, 0.0, 0, {}
        while not done:
            obs, reward, done, info = env.step(policy.act_single(obs))
            total += reward
            steps += 1
        outcomes.append((total, steps, info.get("success_ratio")))
    return outcomes


def as_tuples(outcomes):
    return [
        (o.total_reward, o.length, o.info.get("success_ratio")) for o in outcomes
    ]


class TestDeterministicBitIdentity:
    """Acceptance criterion: batched == serial, bit for bit, for any M."""

    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 8, 16])
    def test_matches_serial_reference(self, batch):
        episodes = 6
        expected = serial_reference(
            make_policy(make_env()), make_env(seed=11), episodes
        )
        env = make_env(seed=11)
        runner = BatchedEpisodeRunner(
            make_policy(env), env, episodes=episodes, batch=batch
        )
        outcomes, stats = runner.run()
        assert as_tuples(outcomes) == expected
        assert stats.episodes == episodes
        assert [o.index for o in outcomes] == list(range(episodes))

    def test_batch_larger_than_episodes(self):
        env = make_env(seed=4)
        expected = serial_reference(make_policy(env), make_env(seed=4), 2)
        runner = BatchedEpisodeRunner(make_policy(env), env, episodes=2, batch=32)
        outcomes, stats = runner.run()
        assert as_tuples(outcomes) == expected
        assert max(stats.round_batches, default=0) <= 2

    def test_star_topology_wider_action_space(self):
        env = make_env(seed=9, branches=4, interval=5.0)
        expected = serial_reference(
            make_policy(env, rng=8), make_env(seed=9, branches=4, interval=5.0), 5
        )
        runner = BatchedEpisodeRunner(
            make_policy(env, rng=8), env, episodes=5, batch=3
        )
        outcomes, _ = runner.run()
        assert as_tuples(outcomes) == expected

    def test_consumes_env_episode_indices(self):
        """The runner must leave the env as if it had run the episodes
        itself, so interleaved serial/batched use stays aligned."""
        env = make_env(seed=2)
        policy = make_policy(env)
        BatchedEpisodeRunner(policy, env, episodes=4, batch=2).run()
        assert env.next_episode_index == 4
        # Episode 4 served serially now matches a fresh env's episode 4.
        after = serial_reference(policy, env, 1)
        fresh = make_env(seed=2)
        fresh.consume_episodes(4)
        assert serial_reference(policy, fresh, 1) == after


class TestTieFallback:
    def test_tolerance_is_small(self):
        # The guard's tolerance must stay tiny relative to O(1) logits, or
        # every multi-row select would degenerate into serial recomputation.
        assert ARGMAX_TIE_TOLERANCE <= 1e-5

    def test_all_ties_still_bit_identical(self):
        """A zeroed actor makes every decision an exact K-way tie — the
        worst case for batched argmax.  The fallback must fire and keep
        results identical to the serial path."""
        env = make_env(seed=13)
        policy = make_policy(env)
        for w in policy.actor.parameters:
            w[:] = 0.0
        expected = serial_reference(policy, make_env(seed=13), 4)
        runner = BatchedEpisodeRunner(policy, env, episodes=4, batch=4)
        outcomes, stats = runner.run()
        assert as_tuples(outcomes) == expected
        assert stats.tie_fallbacks == stats.decisions > 0

    def test_clear_margins_skip_fallback(self):
        env = make_env(seed=13)
        policy = make_policy(env)
        # Strong bias on action 0: margins far above the tie tolerance.
        policy.actor.parameters[-1][-1, 0] += 1000.0
        runner = BatchedEpisodeRunner(policy, env, episodes=4, batch=4)
        _, stats = runner.run()
        assert stats.decisions > 0
        assert stats.tie_fallbacks == 0

    def test_float32_mode_disables_exactness_guard(self):
        env = make_env(seed=13)
        policy = make_policy(env)
        for w in policy.actor.parameters:
            w[:] = 0.0
        runner = BatchedEpisodeRunner(
            policy, env, episodes=3, batch=3, dtype=np.float32
        )
        _, stats = runner.run()
        assert stats.tie_fallbacks == 0
        assert stats.dtype == "float32"


def as_metrics(reference):
    """What ``evaluate_policy`` reports for ``serial_reference`` tuples."""
    return {
        "mean_episode_reward": float(np.mean([t[0] for t in reference])),
        "success_ratio": float(np.mean([float(t[2]) for t in reference])),
    }


class TestEvaluatePolicyWrapper:
    def test_batched_equals_serial_dict(self):
        policy = make_policy(make_env())
        expected = as_metrics(serial_reference(policy, make_env(seed=21), 5))
        assert evaluate_policy(policy, make_env(seed=21), episodes=5) == expected

    def test_single_episode_falls_back_to_serial(self):
        policy = make_policy(make_env())
        expected = as_metrics(serial_reference(policy, make_env(seed=1), 1))
        assert evaluate_policy(policy, make_env(seed=1), episodes=1) == expected

    def test_width_constants_are_what_the_cases_below_straddle(self):
        assert (LOCKSTEP_MIN_EPISODES, LOCKSTEP_MAX_WIDTH) == (4, 32)

    @pytest.mark.parametrize("episodes", [1, 3, 4, 9, 40])
    def test_every_derived_width_matches_serial_reference(self, episodes, tmp_path):
        """Both sides of each width constant: one slot below
        LOCKSTEP_MIN_EPISODES, one per episode from there, capped at
        LOCKSTEP_MAX_WIDTH — same metrics as the act_single loop."""
        policy = make_policy(make_env())
        expected = as_metrics(
            serial_reference(policy, make_env(seed=21, horizon=60.0), episodes)
        )
        stream = tmp_path / "metrics.jsonl"
        with JsonlRecorder(stream) as recorder:
            got = evaluate_policy(
                policy, make_env(seed=21, horizon=60.0), episodes=episodes,
                recorder=recorder,
            )
        assert got == expected
        (record,) = [
            r for r in map(json.loads, stream.read_text().splitlines())
            if r["kind"] == "eval_batch"
        ]
        assert record["batch"] == {1: 1, 3: 1, 4: 4, 9: 9, 40: 32}[episodes]
        assert record["max_round_batch"] == record["batch"]

    @pytest.mark.parametrize("episodes", [0, -3])
    def test_rejects_episode_counts_below_one(self, episodes):
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            evaluate_policy(make_policy(make_env()), make_env(), episodes=episodes)

    def test_float32_end_to_end_success_ratio_close(self):
        """f32 inference trades bit-identity for speed; on a fixed seed
        the evaluated success ratio must stay within a small delta of the
        exact f64 run."""
        policy = make_policy(make_env())
        exact = evaluate_policy(policy, make_env(seed=31), episodes=6)
        fast = evaluate_policy(
            policy, make_env(seed=31), episodes=6, dtype="f32"
        )
        assert set(fast) == set(exact)
        assert fast["success_ratio"] == pytest.approx(
            exact["success_ratio"], abs=0.1
        )
        assert fast["mean_episode_reward"] == pytest.approx(
            exact["mean_episode_reward"], rel=0.25, abs=5.0
        )

    def test_env_without_protocol_falls_back(self):
        class Minimal:
            """Steps like an env but lacks the replay protocol."""

            def __init__(self, inner):
                self.inner = inner

            def reset(self):
                return self.inner.reset()

            def step(self, action):
                return self.inner.step(action)

        policy = make_policy(make_env())
        wrapped = Minimal(make_env(seed=21))
        assert not supports_batched_evaluation(wrapped)
        result = evaluate_policy(policy, wrapped, episodes=5)
        assert result == evaluate_policy(policy, make_env(seed=21), episodes=5)


class TestRunnerEdgeCases:
    def test_zero_episodes(self):
        env = make_env()
        outcomes, stats = BatchedEpisodeRunner(
            make_policy(env), env, episodes=0, batch=4
        ).run()
        assert outcomes == []
        assert stats.decisions == 0 and stats.rounds == 0

    def test_rejects_bad_arguments(self):
        env = make_env()
        policy = make_policy(env)
        with pytest.raises(ValueError, match="episodes"):
            BatchedEpisodeRunner(policy, env, episodes=-1, batch=2)
        with pytest.raises(ValueError, match="batch"):
            BatchedEpisodeRunner(policy, env, episodes=2, batch=0)
        with pytest.raises(TypeError, match="replay protocol"):
            BatchedEpisodeRunner(policy, object(), episodes=2, batch=2)

    def test_outcomes_are_frozen_records(self):
        outcome = EpisodeOutcome(index=0, total_reward=1.0, length=2, info={})
        with pytest.raises(AttributeError):
            outcome.total_reward = 5.0


class TestTelemetry:
    def test_emits_valid_eval_batch_record(self, tmp_path):
        env = make_env(seed=3)
        stream = tmp_path / "metrics.jsonl"
        with JsonlRecorder(stream) as recorder:
            evaluate_policy(make_policy(env), env, episodes=4, recorder=recorder)
        lines = stream.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        batch_records = [r for r in records if r["kind"] == "eval_batch"]
        assert len(batch_records) == 1
        record = batch_records[0]
        assert validate_record(record) == "eval_batch"
        assert record["batch"] == 4
        assert record["episodes"] == 4
        assert record["decisions"] > 0
        assert record["rounds"] > 0

    def test_stats_derived_quantities(self):
        stats = BatchedEvalStats(batch=4, episodes=8, dtype="float64")
        stats.rounds = 10
        stats.decisions = 35
        stats.wall_seconds = 0.5
        assert stats.mean_round_batch == 3.5
        assert stats.decisions_per_second == 70.0


class TestEnvReplayProtocol:
    def test_service_env_supports_protocol(self):
        assert supports_batched_evaluation(make_env())

    def test_reset_episode_replays_identically(self):
        env = make_env(seed=5)
        policy = make_policy(env)
        first = serial_reference(policy, env, 1)
        # Re-run episode 0 explicitly: identical trajectory.
        obs = env.reset_episode(0)
        done, total, steps = False, 0.0, 0
        while not done:
            obs, reward, done, _ = env.step(policy.act_single(obs))
            total += reward
            steps += 1
        assert (total, steps) == first[0][:2]

    def test_clone_is_independent(self):
        env = make_env(seed=5)
        twin = env.clone()
        policy = make_policy(env)
        serial_reference(policy, env, 2)
        assert twin.next_episode_index == 0
        # The clone replays the same episode stream from the start.
        assert serial_reference(policy, twin, 2) == serial_reference(
            policy, make_env(seed=5), 2
        )

    def test_consume_episodes_skips_stream(self):
        env = make_env(seed=5)
        env.consume_episodes(3)
        assert env.next_episode_index == 3
        with pytest.raises(ValueError):
            env.consume_episodes(-1)

    def test_episode_rng_is_pure_function_of_index(self):
        env = make_env(seed=5)
        a = env.episode_rng(7).integers(0, 1 << 30, size=4)
        b = make_env(seed=5).episode_rng(7).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)


class TestWidthIsNotConfigurable:
    """The lockstep width follows from the episode count; nothing the
    user can set reaches it."""

    def test_no_entry_point_takes_a_width(self):
        from repro.core.trainer import TrainingConfig
        from repro.eval.runner import SuiteConfig
        from repro.rl.training import train_multi_seed

        env = make_env()
        with pytest.raises(TypeError):
            TrainingConfig(eval_batch=2)
        with pytest.raises(TypeError):
            SuiteConfig(eval_batch=2)
        with pytest.raises(TypeError):
            train_multi_seed(make_env, seeds=(0,), updates_per_seed=1, eval_batch=2)
        with pytest.raises(TypeError):
            evaluate_policy(make_policy(env), env, episodes=5, batch=2)

    def test_environment_variable_changes_nothing(self, monkeypatch, tmp_path):
        policy = make_policy(make_env())
        streams = []
        for name, value in (("unset", None), ("set", "2")):
            if value is not None:
                monkeypatch.setenv("REPRO_EVAL_BATCH", value)
            stream = tmp_path / f"{name}.jsonl"
            with JsonlRecorder(stream) as recorder:
                result = evaluate_policy(
                    policy, make_env(seed=3), episodes=5, recorder=recorder
                )
            (record,) = [
                r for r in map(json.loads, stream.read_text().splitlines())
                if r["kind"] == "eval_batch"
            ]
            streams.append((result, record["batch"], record["round_batches"]))
        assert streams[0] == streams[1]
        assert streams[0][1] == 5


class TestSerialFallback:
    """Width 1 used to fall back to a serial loop of its own; it is now the
    lockstep loop with one slot — same outcomes as the act_single loop and
    as any other width, on the requested dtype."""

    def test_batch_one_matches_serial_and_batched(self):
        episodes = 4
        expected = serial_reference(
            make_policy(make_env()), make_env(seed=17), episodes
        )
        env = make_env(seed=17)
        outcomes, stats = BatchedEpisodeRunner(
            make_policy(env), env, episodes=episodes, batch=1
        ).run()
        assert as_tuples(outcomes) == expected
        env = make_env(seed=17)
        batched, _ = BatchedEpisodeRunner(
            make_policy(env), env, episodes=episodes, batch=4
        ).run()
        assert as_tuples(batched) == as_tuples(outcomes)
        assert stats.episodes == episodes
        assert stats.decisions == sum(o.length for o in outcomes)
        assert stats.tie_fallbacks == 0

    def test_f32_at_width_one_runs_f32(self):
        """dtype is honoured at every width: one slot on a float32
        workspace, where a zeroed actor's ties are never recomputed."""
        env = make_env(seed=2)
        policy = make_policy(env)
        for w in policy.actor.parameters:
            w[:] = 0.0
        runner = BatchedEpisodeRunner(
            policy, env, episodes=2, batch=1, dtype=np.float32
        )
        assert runner.dtype == np.dtype(np.float32)
        assert runner._inference.dtype == np.dtype(np.float32)
        _, stats = runner.run()
        assert stats.dtype == "float32"
        assert stats.decisions > 0
        assert stats.tie_fallbacks == 0


class TestResolveEvalDtype:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_DTYPE", "f32")
        assert resolve_eval_dtype("f64") == np.dtype(np.float64)

    def test_accepts_strings_and_numpy_dtypes(self):
        assert resolve_eval_dtype("f32") == np.dtype(np.float32)
        assert resolve_eval_dtype("F64") == np.dtype(np.float64)
        assert resolve_eval_dtype(np.float32) == np.dtype(np.float32)
        assert resolve_eval_dtype(np.dtype(np.float64)) == np.dtype(np.float64)

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_DTYPE", "f32")
        assert resolve_eval_dtype(None) == np.dtype(np.float32)

    def test_default_is_bit_exact_float64(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_DTYPE", raising=False)
        assert resolve_eval_dtype(None) == np.dtype(np.float64)

    def test_rejects_unknown_spellings_and_dtypes(self):
        with pytest.raises(ValueError, match="dtype"):
            resolve_eval_dtype("f16")
        with pytest.raises(ValueError, match="float64/float32"):
            resolve_eval_dtype(np.int32)
