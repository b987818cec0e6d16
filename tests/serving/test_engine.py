"""Tests for the micro-batching serving engine.

The load-bearing properties:

- *bit-identity* (float64): responses equal calling greedy
  ``policy.act`` serially on the same observation sequence — near ties
  via the batch-1 fallback — across size, deadline, and forced flushes.
- *hot-swap atomicity*: a swap staged mid-queue applies at the next
  flush boundary, every decision of one flush carries one version, and
  no request is dropped or reordered by the swap.
- *backpressure*: the queue-depth cap sheds submits and counts them.

All trigger timing runs on a virtual clock, so these tests are exact
and wall-clock-free.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.rl.policy import ActorCriticPolicy
from repro.serving import Decision, ServingConfig, ServingEngine

OBS_DIM = 12
NUM_ACTIONS = 5


class FakeClock:
    """Manually advanced virtual time source."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_policy(rng=0, obs_dim=OBS_DIM, num_actions=NUM_ACTIONS):
    return ActorCriticPolicy(obs_dim, num_actions, hidden=(32, 32), rng=rng)


def make_obs(n, seed=7, obs_dim=OBS_DIM):
    return np.random.default_rng(seed).normal(size=(n, obs_dim))


def make_engine(policy=None, clock=None, **config):
    policy = policy or make_policy()
    kwargs = {}
    if "recorder" in config:
        kwargs["recorder"] = config.pop("recorder")
    return ServingEngine(
        policy,
        ServingConfig(**config) if config else ServingConfig(),
        clock=clock or FakeClock(),
        **kwargs,
    )


def serial_actions(policy, observations):
    """The serial reference: one greedy policy.act call per observation."""
    actions = []
    for row in observations:
        a, _, _ = policy.act(row[None, :], np.random.default_rng(0), deterministic=True)
        actions.append(int(a[0]))
    return actions


class TestTriggers:
    def test_size_trigger_fires_at_max_batch(self):
        clock = FakeClock()
        engine = make_engine(clock=clock, max_batch=4, deadline_s=10.0)
        obs = make_obs(4)
        for row in obs[:3]:
            engine.submit(row)
            assert engine.ready() is None
        engine.submit(obs[3])
        assert engine.ready() == "size"
        decisions = engine.poll()
        assert len(decisions) == 4
        assert all(d.trigger == "size" for d in decisions)
        assert engine.pending == 0

    def test_deadline_trigger_fires_on_oldest_age(self):
        clock = FakeClock()
        engine = make_engine(clock=clock, max_batch=8, deadline_s=0.002)
        engine.submit(make_obs(1)[0])
        clock.advance(0.0015)
        assert engine.ready() is None and engine.poll() == []
        clock.advance(0.0006)  # oldest now 2.1ms old
        assert engine.ready() == "deadline"
        decisions = engine.poll()
        assert len(decisions) == 1
        assert decisions[0].trigger == "deadline"
        assert decisions[0].latency_seconds == pytest.approx(0.0021)

    def test_poll_on_empty_queue_is_noop(self):
        engine = make_engine()
        assert engine.poll() == [] and engine.flush() == []

    def test_forced_flush_and_drain(self):
        engine = make_engine(max_batch=4, deadline_s=10.0)
        obs = make_obs(10)
        for row in obs:
            engine.submit(row)
        assert engine.pending == 10
        first = engine.flush()
        assert len(first) == 4 and all(d.trigger == "forced" for d in first)
        rest = engine.drain()
        assert len(rest) == 6
        assert engine.pending == 0
        ids = [d.request_id for d in first + rest]
        assert ids == list(range(10))


class TestBitIdentity:
    def test_deterministic_matches_serial_policy_act(self):
        policy = make_policy()
        clock = FakeClock()
        engine = make_engine(policy=policy, clock=clock, max_batch=8,
                             deadline_s=0.001, queue_capacity=64)
        obs = make_obs(60)
        got = {}
        for i, row in enumerate(obs):
            engine.submit(row)
            # Interleave deadline flushes with size flushes.
            if i % 13 == 5:
                clock.advance(0.002)
            for d in engine.poll():
                got[d.request_id] = d.action
        for d in engine.drain():
            got[d.request_id] = d.action
        expected = serial_actions(policy, obs)
        assert [got[i] for i in range(len(obs))] == expected

    def test_deterministic_near_ties_fall_back_to_serial(self):
        """A constant-output actor makes every decision a tie; the
        fallback must keep batched == serial on all of them."""
        policy = make_policy()
        for p in policy.actor.parameters:
            p[:] = 0.0  # all logits identical -> maximal ties
        engine = make_engine(policy=policy, max_batch=8)
        obs = make_obs(16)
        for row in obs:
            engine.submit(row)
        decisions = engine.drain()
        expected = serial_actions(policy, obs)
        assert [d.action for d in decisions] == expected
        assert engine.stats.tie_fallbacks == len(obs)

    def test_float32_mode_close_to_float64(self):
        policy = make_policy()
        obs = make_obs(32)
        exact = make_engine(policy=policy, max_batch=8)
        fast = make_engine(policy=policy, max_batch=8, dtype="f32")
        for row in obs:
            exact.submit(row)
            fast.submit(row)
        exact_actions = [d.action for d in exact.drain()]
        fast_actions = [d.action for d in fast.drain()]
        # Same decisions on well-separated logits (float32 drift is far
        # below the margins of a random network on random inputs).
        assert fast_actions == exact_actions
        # And the fast path really skips the exactness fallback.
        assert fast.stats.tie_fallbacks == 0


class TestHotSwap:
    def test_swap_applies_at_flush_boundary(self):
        """Requests queued before the install are served by the NEW
        policy (the swap lands at flush start), the whole flush carries
        one version, and nothing is dropped or reordered."""
        old = make_policy(rng=0)
        new = make_policy(rng=99)
        engine = make_engine(policy=old, max_batch=8)
        obs = make_obs(6)
        for row in obs:
            engine.submit(row)
        engine.install(new)
        assert engine.policy is old  # staged, not yet applied
        assert engine.policy_version == 0
        decisions = engine.flush()
        assert engine.policy is new
        assert engine.policy_version == 1
        assert [d.request_id for d in decisions] == list(range(6))
        assert {d.policy_version for d in decisions} == {1}
        assert [d.action for d in decisions] == serial_actions(new, obs)

    def test_flushes_before_install_keep_old_version(self):
        old = make_policy(rng=0)
        engine = make_engine(policy=old, max_batch=4)
        obs = make_obs(8)
        for row in obs[:4]:
            engine.submit(row)
        before = engine.poll()
        assert {d.policy_version for d in before} == {0}
        engine.install(make_policy(rng=99))
        for row in obs[4:]:
            engine.submit(row)
        after = engine.poll()
        assert {d.policy_version for d in after} == {1}
        # Every flush is uniform in version; ids stay sequential.
        assert [d.request_id for d in before + after] == list(range(8))

    def test_staging_twice_keeps_latest(self):
        engine = make_engine(max_batch=4)
        middle, latest = make_policy(rng=5), make_policy(rng=6)
        engine.install(middle, version=10)
        engine.install(latest, version=20)
        for row in make_obs(4):
            engine.submit(row)
        decisions = engine.flush()
        assert engine.policy is latest
        assert engine.policy_version == 20
        assert {d.policy_version for d in decisions} == {20}
        assert engine.stats.swaps == 1

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_swap_rebinds_the_workspace_it_already_has(self, dtype):
        """An applied swap allocates no workspace array: the engine keeps
        its one ``MLPInference`` and every buffer in it, answers as a new
        engine over the new policy would, and versions as before."""
        old, new = make_policy(rng=0), make_policy(rng=99)
        engine = make_engine(policy=old, max_batch=8, dtype=dtype)
        obs = make_obs(8)
        for row in obs:
            engine.submit(row)
        engine.flush()
        inference = engine._inference
        buffers = inference._aug + inference._out
        engine.install(new)
        for row in obs:
            engine.submit(row)
        decisions = engine.flush()
        assert engine._inference is inference
        assert all(a is b for a, b in zip(inference._aug + inference._out, buffers))
        assert engine.policy is new and engine.policy_version == 1
        assert {d.policy_version for d in decisions} == {1}
        fresh = make_engine(policy=new, max_batch=8, dtype=dtype)
        for row in obs:
            fresh.submit(row)
        assert [d.action for d in decisions] == [d.action for d in fresh.flush()]
        if dtype == "f64":
            assert [d.action for d in decisions] == serial_actions(new, obs)

    def test_swap_to_other_hidden_sizes_rebuilds_the_workspace(self):
        engine = make_engine(policy=make_policy(rng=0), max_batch=4)
        obs = make_obs(4)
        for row in obs:
            engine.submit(row)
        engine.flush()
        wider = ActorCriticPolicy(OBS_DIM, NUM_ACTIONS, hidden=(48,), rng=3)
        engine.install(wider)
        for row in obs:
            engine.submit(row)
        assert [d.action for d in engine.flush()] == serial_actions(wider, obs)

    def test_install_validates_shapes(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="shape mismatch"):
            engine.install(make_policy(obs_dim=OBS_DIM + 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            engine.install(make_policy(num_actions=NUM_ACTIONS + 1))

    def test_swap_under_sustained_load_never_drops(self):
        policy = make_policy()
        engine = make_engine(policy=policy, max_batch=4, queue_capacity=16)
        served = []
        submitted = 0
        for round_ in range(20):
            for _ in range(3):
                assert engine.submit(make_obs(1, seed=submitted)[0]) is not None
                submitted += 1
            if round_ % 5 == 2:
                engine.install(policy.clone())
            served.extend(engine.poll())
        served.extend(engine.drain())
        assert [d.request_id for d in served] == list(range(submitted))
        assert engine.stats.swaps == 4
        # Each flush is served by exactly one policy version.
        by_flush = {}
        for d in served:
            by_flush.setdefault(d.flush_index, set()).add(d.policy_version)
        assert all(len(v) == 1 for v in by_flush.values())

    def test_install_from_a_real_thread(self):
        """A trainer thread stages K versioned installs while this thread
        submits and polls: every request is answered once, versions never
        go back, and the last staged version is the one left applied."""
        installs, requests = 40, 400
        policies = [make_policy(rng=seed) for seed in range(4)]
        engine = make_engine(policy=policies[0], max_batch=4, queue_capacity=requests)
        obs = make_obs(requests)

        def trainer():
            for version in range(1, installs + 1):
                engine.install(policies[version % len(policies)], version=version)
                time.sleep(0)

        thread = threading.Thread(target=trainer)
        served = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads finely
        try:
            thread.start()
            for row in obs:
                assert engine.submit(row) is not None
                served.extend(engine.poll())
            thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert engine.submit(obs[0]) == requests  # flushes the last staged swap
        served.extend(engine.drain())

        assert [d.request_id for d in served] == list(range(requests + 1))
        versions = [d.policy_version for d in served]
        assert versions == sorted(versions)
        assert versions[-1] == engine.policy_version == installs
        assert engine.policy is policies[installs % len(policies)]
        # Each answer comes from the policy its version names.
        rows = np.vstack([obs, obs[:1]])
        for d in served:
            policy = policies[d.policy_version % len(policies)]
            assert [d.action] == serial_actions(policy, rows[d.request_id:d.request_id + 1])


class TestBackpressure:
    def test_submit_sheds_at_queue_capacity(self):
        engine = make_engine(max_batch=4, queue_capacity=4)
        obs = make_obs(6)
        ids = [engine.submit(row) for row in obs]
        assert ids[:4] == [0, 1, 2, 3]
        assert ids[4:] == [None, None]
        assert engine.stats.submitted == 6
        assert engine.stats.shed == 2
        assert engine.stats.max_queue_depth == 4
        # Queued requests survive the shed pressure untouched.
        assert [d.request_id for d in engine.drain()] == [0, 1, 2, 3]

    def test_shed_requests_never_get_ids_or_decisions(self):
        engine = make_engine(max_batch=2, queue_capacity=2)
        obs = make_obs(5)
        accepted = [engine.submit(row) for row in obs[:2]]
        assert engine.submit(obs[2]) is None
        engine.drain()
        # Ids continue densely after the shed request.
        assert engine.submit(obs[3]) == accepted[-1] + 1

    @pytest.mark.parametrize(
        "payload", [np.zeros(3), np.zeros((2, OBS_DIM)), 1.0], ids=["short", "2d", "scalar"]
    )
    def test_rejected_payload_is_not_counted(self, payload):
        """A payload the queue refuses never enters the accounting, so
        served + shed + pending == submitted survives the error."""
        engine = make_engine(max_batch=4)
        with pytest.raises(ValueError):
            engine.submit(payload)
        assert engine.stats.submitted == 0
        assert engine.submit(make_obs(1)[0]) == 0
        engine.drain()
        stats = engine.stats
        assert (stats.submitted, stats.served, stats.shed, engine.pending) == (1, 1, 0, 0)
        assert stats.served + stats.shed + engine.pending == stats.submitted

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_payload_is_rejected(self, bad):
        """A NaN or inf observation is refused at submit, is not counted,
        and leaves the queue ready for the next finite request."""
        policy = make_policy()
        engine = make_engine(policy=policy, max_batch=4)
        obs = make_obs(2)
        assert engine.submit(obs[0]) == 0
        payload = obs[1].copy()
        payload[3] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            engine.submit(payload)
        assert (engine.stats.submitted, engine.pending) == (1, 1)
        assert engine.submit(obs[1]) == 1
        decisions = engine.drain()
        assert [d.request_id for d in decisions] == [0, 1]
        assert [d.action for d in decisions] == serial_actions(policy, obs)


class TestStatsAndTelemetry:
    def test_flush_statistics(self):
        clock = FakeClock()
        engine = make_engine(clock=clock, max_batch=4, deadline_s=0.002)
        for row in make_obs(4):
            engine.submit(row)
        engine.poll()  # size flush
        engine.submit(make_obs(1, seed=9)[0])
        clock.advance(0.003)
        engine.poll()  # deadline flush
        engine.submit(make_obs(1, seed=10)[0])
        engine.flush()  # forced
        stats = engine.stats
        assert stats.flushes == 3
        assert (stats.size_flushes, stats.deadline_flushes,
                stats.forced_flushes) == (1, 1, 1)
        assert stats.batch_histogram == {4: 1, 1: 2}
        assert stats.mean_batch == pytest.approx(2.0)
        assert stats.max_batch == 4
        assert stats.served == 6 and stats.submitted == 6

    def test_telemetry_record_validates(self, tmp_path):
        from repro.telemetry import start_run, validate_record
        from repro.telemetry.summarize import load_stream, summarize_run

        run = start_run(tmp_path / "run", name="serving-test", config={},
                        seeds=())
        engine = make_engine(max_batch=4, recorder=run.recorder)
        for row in make_obs(4):
            engine.submit(row)
        engine.poll()
        engine.emit_telemetry(rate=0.0)
        run.close()
        records = load_stream(tmp_path / "run" / "metrics.jsonl")
        serving = [r for r in records if r["kind"] == "serving"]
        assert len(serving) == 1
        validate_record(serving[0])
        record = serving[0]
        assert record["requests"] == 4 and record["served"] == 4
        assert record["shed"] == 0 and record["flushes"] == 1
        assert record["batch"] == 4 and record["dtype"] == "float64"
        assert record["batch_histogram"] == {"4": 1}
        assert "latency_p99_ms" in record
        rendered = summarize_run(tmp_path / "run")
        assert "serving:" in rendered and "4 requests" in rendered
