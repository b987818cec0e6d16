"""Tests for the micro-batching serving engine.

The load-bearing properties:

- *bit-identity*: responses equal calling greedy float64 ``policy.act``
  serially on the same observation sequence — rows the certified float32
  forward declines via the batch-1 fallback — across size, deadline, and
  forced flushes.
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
from repro.serving import ServingConfig, ServingEngine

from tests.rl.reference_policy import act

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


def flush_all(engine):
    """Force flushes until the queue is empty; every decision, in order."""
    decisions = []
    while engine.pending:
        decisions.extend(engine.flush())
    return decisions


def serial_actions(policy, observations):
    """The serial reference: one greedy allocating ``act`` per observation."""
    actions = []
    for row in observations:
        a, _, _ = act(policy, row[None, :], np.random.default_rng(0), deterministic=True)
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
        rest = flush_all(engine)
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
        for d in flush_all(engine):
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
        decisions = flush_all(engine)
        expected = serial_actions(policy, obs)
        assert [d.action for d in decisions] == expected
        assert engine.stats.tie_fallbacks == len(obs)

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
        engine.install(middle)
        engine.install(latest)
        for row in make_obs(4):
            engine.submit(row)
        decisions = engine.flush()
        assert engine.policy is latest
        assert engine.policy_version == 1
        assert {d.policy_version for d in decisions} == {1}
        assert engine.stats.swaps == 1

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_swap_rebinds_the_workspace_it_already_has(self, dtype):
        """An applied swap allocates no workspace array: ``install`` freezes
        the new policy, which casts its actor to float32, and sizes that
        cast before it stages the policy, and the flush serves from that
        workspace and every buffer in it.  The new policy then answers as
        a new engine over it would, and versions as before.  ``dtype`` names the forward that
        decides the rows: the certified float32 one (rows inside
        [-1, 1]), or the float64 fallback (rows outside it, which the
        certificate declines), so the swap must reach both."""
        old, new = make_policy(rng=0), make_policy(rng=99)
        obs = np.random.default_rng(7).uniform(-1.0, 1.0, (8, OBS_DIM))
        if dtype == "f64":
            obs = obs + np.sign(obs)
        engine = make_engine(policy=old, max_batch=8)
        for row in obs:
            engine.submit(row)
        engine.flush()
        engine.install(new)
        staged = new.certified_workspace
        assert staged.mlp is new.actor and staged._capacity == 8
        buffers = staged._aug + staged._out
        fallbacks = engine.stats.tie_fallbacks
        for row in obs:
            engine.submit(row)
        decisions = engine.flush()
        assert engine.policy.certified_workspace is staged
        assert all(a is b for a, b in zip(staged._aug + staged._out, buffers))
        assert engine.policy is new and engine.policy_version == 1
        assert {d.policy_version for d in decisions} == {1}
        declined = engine.stats.tie_fallbacks - fallbacks
        assert declined == len(obs) if dtype == "f64" else declined < len(obs)
        fresh = make_engine(policy=new, max_batch=8)
        for row in obs:
            fresh.submit(row)
        assert [d.action for d in decisions] == [d.action for d in fresh.flush()]
        assert [d.action for d in decisions] == serial_actions(new, obs)

    def test_served_actors_refuse_in_place_writes(self):
        """One flush serves one weight set.  The rows the float32 cast
        declines are decided in float64 on the installed policy itself,
        so an in-place write after ``install`` used to split a flush
        between the install-time weights (certified rows) and the
        written ones (declined rows) under one ``policy_version``.  The
        engine freezes every policy it serves instead."""
        first, second = make_policy(rng=0), make_policy(rng=99)
        engine = make_engine(policy=first, max_batch=4)
        engine.install(second)
        for policy in (first, second):
            for weight in policy.actor.parameters:
                with pytest.raises(ValueError, match="read-only"):
                    weight *= -1.0
        # Only the served actor is held still; a clone of it is not.
        second.clone().actor.parameters[-1][...] *= -1.0
        obs = np.random.default_rng(3).uniform(-1.0, 1.0, (4, OBS_DIM))
        obs[1] *= 5.0  # outside the certificate's domain: float64 decides
        for row in obs:
            engine.submit(row)
        decisions = engine.flush()
        assert {d.policy_version for d in decisions} == {1}
        assert engine.stats.tie_fallbacks >= 1
        assert [d.action for d in decisions] == serial_actions(second, obs)

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
        served.extend(flush_all(engine))
        assert [d.request_id for d in served] == list(range(submitted))
        assert engine.stats.swaps == 4
        # Each flush is served by exactly one policy version.
        by_flush = {}
        for d in served:
            by_flush.setdefault(d.flush_index, set()).add(d.policy_version)
        assert all(len(v) == 1 for v in by_flush.values())

    def test_install_from_a_real_thread(self):
        """A trainer thread stages K installs while this thread submits
        and polls: every request is answered once, versions go up by one
        per applied swap, and the last staged policy is the one left
        applied."""
        installs, requests = 40, 400
        policies = [make_policy(rng=seed) for seed in range(4)]
        engine = make_engine(policy=policies[0], max_batch=4, queue_capacity=requests)
        obs = make_obs(requests)
        # The policy each version names, recorded as each swap is applied.
        applied = {0: engine.policy}
        apply_staged_swap = engine._apply_staged_swap

        def recording_apply():
            apply_staged_swap()
            applied[engine.policy_version] = engine.policy

        engine._apply_staged_swap = recording_apply

        def trainer():
            for index in range(1, installs + 1):
                engine.install(policies[index % len(policies)])
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
        served.extend(flush_all(engine))

        assert [d.request_id for d in served] == list(range(requests + 1))
        versions = [d.policy_version for d in served]
        assert versions == sorted(versions)
        assert versions[-1] == engine.policy_version == engine.stats.swaps
        assert sorted(applied) == list(range(engine.stats.swaps + 1))
        assert 1 <= engine.stats.swaps <= installs
        assert engine.policy is policies[installs % len(policies)]
        # Each answer comes from the policy its version names.
        rows = np.vstack([obs, obs[:1]])
        for d in served:
            policy = applied[d.policy_version]
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
        assert [d.request_id for d in flush_all(engine)] == [0, 1, 2, 3]

    def test_shed_requests_never_get_ids_or_decisions(self):
        engine = make_engine(max_batch=2, queue_capacity=2)
        obs = make_obs(5)
        accepted = [engine.submit(row) for row in obs[:2]]
        assert engine.submit(obs[2]) is None
        flush_all(engine)
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
        flush_all(engine)
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
        decisions = flush_all(engine)
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
        assert record["batch"] == 4 and "dtype" not in record
        assert record["batch_histogram"] == {"4": 1}
        assert "latency_p99_ms" in record
        rendered = summarize_run(tmp_path / "run")
        assert "serving:" in rendered and "4 requests" in rendered


class TestLatencyStore:
    """``ServingStats.latencies`` keeps one machine double per served
    request, bit for bit the latency its ``Decision`` reports."""

    def serve(self, engine, clock, n, seed=3):
        """Submit ``n`` requests at irregular virtual times, flushing
        whenever a trigger fires; every decision, in order."""
        gaps = np.random.default_rng(seed).exponential(1e-4, size=n)
        decisions = []
        for row, gap in zip(make_obs(n, seed=seed), gaps):
            clock.advance(float(gap))
            engine.submit(row)
            decisions.extend(engine.poll())
        clock.advance(1e-3)
        decisions.extend(flush_all(engine))
        return decisions

    def test_samples_are_eight_byte_doubles(self):
        clock = FakeClock(1000.0)
        engine = make_engine(clock=clock, max_batch=4, deadline_s=0.0005)
        self.serve(engine, clock, 10)
        latencies = engine.stats.latencies
        assert latencies.itemsize == 8 and latencies.typecode == "d"
        assert len(latencies) == 10

    def test_each_sample_is_its_decisions_latency_bit_for_bit(self):
        clock = FakeClock(1000.0)
        engine = make_engine(clock=clock, max_batch=4, deadline_s=0.0005)
        decisions = self.serve(engine, clock, 23)
        assert [v.hex() for v in engine.stats.latencies] == [
            (d.completion_time - d.enqueue_time).hex() for d in decisions
        ]

    def test_percentiles_match_numpy_over_a_list(self):
        clock = FakeClock(1000.0)
        engine = make_engine(clock=clock, max_batch=4, deadline_s=0.0005)
        self.serve(engine, clock, 23)
        values = list(engine.stats.latencies)
        pct = engine.stats.latency_percentiles_ms()
        p50, p95, p99 = np.percentile(values, [50.0, 95.0, 99.0])
        assert pct == {
            "p50": float(p50) * 1e3,
            "p95": float(p95) * 1e3,
            "p99": float(p99) * 1e3,
            "max": max(values) * 1e3,
        }
        # Reading the percentiles leaves the store growable.
        self.serve(engine, clock, 5, seed=4)
        assert len(engine.stats.latencies) == 28

    def test_cap_keeps_the_first_samples_and_counts_the_rest(self, monkeypatch):
        from repro.serving import records

        monkeypatch.setattr(records, "_MAX_LATENCY_SAMPLES", 6)
        clock = FakeClock(1000.0)
        engine = make_engine(clock=clock, max_batch=4, deadline_s=10.0)
        decisions = self.serve(engine, clock, 11)
        stats = engine.stats
        # Flushes of 4, 4 and 3: the second overflows the cap by 2.
        assert [d.batch_size for d in decisions[::4]] == [4, 4, 3]
        assert [v.hex() for v in stats.latencies] == [
            (d.completion_time - d.enqueue_time).hex() for d in decisions[:6]
        ]
        assert stats.latency_samples_dropped == 5
        assert stats.served == 11
        assert stats.to_record()["latency_samples_dropped"] == 5
