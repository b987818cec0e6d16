"""The per-request path of the serving engine: submit → poll/flush → Decision.

The queue stores no request ids; the engine numbers accepted requests
consecutively and a flush derives its ids from that count.  These tests
pin what that design must keep: every accepted request is answered once,
in FIFO order, under its own id, with the time it was submitted at; shed
and malformed submits leave no trace; and the clock may misbehave.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import ServingConfig, ServingEngine

from tests.serving.test_engine import OBS_DIM, FakeClock, make_obs, make_policy

MAX_BATCH = 3
CAPACITY = 5
ROWS = make_obs(8, seed=3)
POLICIES = [make_policy(rng=seed) for seed in (0, 1, 2)]


def make_engine(clock, capacity=CAPACITY, deadline_s=0.002):
    config = ServingConfig(
        max_batch=MAX_BATCH, deadline_s=deadline_s, queue_capacity=capacity
    )
    return ServingEngine(POLICIES[0], config, clock=clock)


def malformed(kind, index):
    if kind == "short":
        return np.zeros(OBS_DIM - 1)
    payload = ROWS[0].copy()
    payload[index] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return payload


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, len(ROWS) - 1)),
        st.tuples(
            st.just("malformed"),
            st.tuples(st.sampled_from(["nan", "inf", "-inf", "short"]),
                      st.sampled_from([0, -1])),
        ),
        st.tuples(st.just("advance"), st.floats(0.0, 0.003)),
        st.tuples(st.just("poll"), st.none()),
        st.tuples(st.just("flush"), st.none()),
        st.tuples(st.just("drain"), st.none()),
        st.tuples(st.just("install"), st.integers(0, len(POLICIES) - 1)),
    ),
    max_size=60,
)


class TestImplicitIds:
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS)
    def test_random_interleavings_answer_each_accepted_request_once(self, ops):
        clock = FakeClock()
        engine = make_engine(clock)
        accepted = []  # (id, row index, submitted now), in submit order
        decisions = []
        versions = {0: POLICIES[0]}  # policy_version -> the policy behind it
        shed = 0
        for op, arg in ops:
            if op == "submit":
                now = clock.now
                request_id = engine.submit(ROWS[arg], now=now)
                if len(accepted) - len(decisions) == CAPACITY:
                    assert request_id is None
                    shed += 1
                else:
                    assert request_id == len(accepted)
                    accepted.append((request_id, arg, now))
            elif op == "malformed":
                before = (engine.stats.submitted, engine.stats.shed, engine.pending)
                with pytest.raises(ValueError):
                    engine.submit(malformed(*arg))
                assert (engine.stats.submitted, engine.stats.shed,
                        engine.pending) == before
            elif op == "advance":
                clock.advance(arg)
            elif op == "install":
                engine.install(POLICIES[arg])
            else:
                decisions += {"poll": engine.poll, "flush": engine.flush,
                              "drain": engine.drain}[op]()
            versions[engine.policy_version] = engine.policy
        decisions += engine.drain()
        versions[engine.policy_version] = engine.policy

        assert [d.request_id for d in decisions] == list(range(len(accepted)))
        for d, (_, row, now) in zip(decisions, accepted):
            assert d.enqueue_time == now
            policy = versions[d.policy_version]
            assert d.action == policy.act_single(ROWS[row], deterministic=True)
        served_versions = [d.policy_version for d in decisions]
        assert served_versions == sorted(served_versions)
        stats = engine.stats
        assert stats.shed == shed
        assert stats.submitted == len(accepted) + shed
        assert stats.served == len(accepted)


class TestSubmitValidation:
    @pytest.mark.parametrize(
        "value", [1e308, -1e308, -0.0, 5e-324], ids=["max", "min", "negzero", "subnormal"]
    )
    def test_finite_extremes_are_accepted_without_warnings(self, value):
        engine = make_engine(FakeClock())
        payload = ROWS[0].copy()
        payload[0] = payload[-1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert engine.submit(payload) == 0
            assert engine.submit(payload.tolist()) == 1
        assert engine.pending == 2
        assert [d.request_id for d in engine.drain()] == [0, 1]

    @pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("queued", [0, CAPACITY], ids=["empty", "full"])
    def test_non_finite_raises_before_anything_is_counted(self, index, bad, queued):
        """A malformed payload raises even when the queue is full: it is
        rejected, not shed."""
        engine = make_engine(FakeClock())
        for row in ROWS[:queued]:
            engine.submit(row)
        payload = ROWS[0].copy()
        payload[index] = bad
        before = (engine.stats.submitted, engine.stats.shed, engine.pending)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sent in (payload, payload.tolist()):
                with pytest.raises(ValueError, match="NaN or inf"):
                    engine.submit(sent)
        assert (engine.stats.submitted, engine.stats.shed, engine.pending) == before
        # The queued rows were not touched by the rejected copies.
        decisions = engine.drain()
        assert [d.action for d in decisions] == [
            POLICIES[0].act_single(row) for row in ROWS[:queued]
        ]


class TestNonMonotonicClock:
    def test_a_clock_stepping_backwards_keeps_order_and_accounting(self):
        deadline = 0.25  # exact in binary, so oldest + deadline is exact too
        clock = FakeClock(10.0)
        engine = make_engine(clock, capacity=4, deadline_s=deadline)
        assert engine.submit(ROWS[0]) == 0
        clock.now = 9.0  # the second request is stamped before the head
        assert engine.submit(ROWS[1]) == 1
        for now in (9.5, 5.0, 10.0 + deadline / 2):
            clock.now = now
            assert engine.ready() is None and engine.poll() == []
        clock.now = 10.0 + deadline  # oldest (the head, at 10.0) + deadline
        decisions = engine.poll()
        assert [(d.request_id, d.enqueue_time, d.trigger) for d in decisions] == [
            (0, 10.0, "deadline"), (1, 9.0, "deadline"),
        ]

        # Past capacity while the clock keeps running backwards.
        ids = []
        for now in (8.0, 7.0, 7.5, 3.0, 2.0, 1.0):
            clock.now = now
            ids.append(engine.submit(ROWS[len(ids)]))
        assert ids == [2, 3, 4, 5, None, None]
        decisions = engine.poll()
        assert [(d.request_id, d.trigger) for d in decisions] == [
            (2, "size"), (3, "size"), (4, "size"),
        ]
        clock.now = 2.0
        assert engine.poll() == []
        clock.now = 3.0 + deadline  # request 5 was stamped 3.0
        (decision,) = engine.poll()
        assert (decision.request_id, decision.trigger) == (5, "deadline")
        stats = engine.stats
        assert (stats.submitted, stats.served, stats.shed) == (8, 6, 2)
        assert stats.served + stats.shed == stats.submitted
