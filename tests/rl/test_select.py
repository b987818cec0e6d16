"""The one select: ``ActorCriticPolicy.select_actions`` under both drivers.

Lockstep evaluation and the serving engine both hand the select of a
frozen policy the float64 rows they built; either way it must answer
exactly as a loop of the writable policy's float64 ``act_single`` over
the same rows would.  The runner decides on a frozen clone of its own
and the engine freezes the policy it is given, so the matrix spies on
the method itself, for every policy object, instead of re-stating how
each driver builds its arguments.
"""

import numpy as np
import pytest

from repro.analysis.invariants import InvariantViolation
from repro.core.env import ServiceCoordinationEnv
from repro.eval.scenarios import base_scenario
from repro.nn.mlp import MLPInference
from repro.rl.batched import BatchedEpisodeRunner
from repro.rl.policy import ActorCriticPolicy
from repro.rl.training import evaluate_policy
from repro.serving import ServingConfig, ServingEngine

from tests.conftest import make_env_config, make_simple_catalog
from tests.serving.test_engine import flush_all
from tests.topology.networks import star_network

WIDTHS = [1, 2, 3, 8, 32]


def make_env(seed=0):
    net = star_network(4, node_capacity=10.0, link_capacity=10.0, link_delay=1.0)
    config = make_env_config(
        net, make_simple_catalog(processing_delay=2.0), horizon=90.0, interval=5.0
    )
    return ServiceCoordinationEnv(config, seed=seed)


def make_policy(env, actor):
    policy = ActorCriticPolicy(
        env.observation_size, env.num_actions, hidden=(32, 32), rng=3
    )
    if actor == "all-ties":
        for weight in policy.actor.parameters:
            weight[:] = 0.0
    else:
        # Trained-like: logits an order of magnitude apart, not the
        # near-uniform 0.01-gain initialisation.
        policy.actor.parameters[-1][:] *= 100.0
    return policy


def spy_on_select(policy, monkeypatch):
    """Check every ``select_actions`` call against the float64
    ``act_single`` loop of a writable copy of ``policy`` and check that
    it leaves the driver's rows as it found them; returns the list of
    ``(rows, fallbacks, distinct rows)`` seen."""
    real = ActorCriticPolicy.select_actions
    reference = policy.clone()
    calls = []

    def checked(self, x, actions):
        assert self.certified_workspace is not None
        assert not np.shares_memory(x, self.workspace.input_rows(1))
        before = x.copy()
        fallbacks = real(self, x, actions)
        assert np.array_equal(x, before)
        assert actions.tolist() == [reference.act_single(row) for row in x]
        calls.append((len(x), fallbacks, len(np.unique(before, axis=0))))
        return fallbacks

    monkeypatch.setattr(ActorCriticPolicy, "select_actions", checked)
    return calls


def drive_runner(policy, env, width):
    outcomes, stats = BatchedEpisodeRunner(
        policy, env, episodes=width + 2, batch=width
    ).run()
    assert all(o.length > 0 for o in outcomes)
    return stats.tie_fallbacks


def drive_engine(policy, env, width, rows=None):
    if rows is None:
        rows = np.random.default_rng(5).uniform(
            -1.0, 1.0, (3 * width + 1, policy.obs_dim)
        )
    engine = ServingEngine(
        policy, ServingConfig(max_batch=width, queue_capacity=len(rows))
    )
    for row in rows:
        engine.submit(row)
    assert len(flush_all(engine)) == len(rows)
    return engine.stats.tie_fallbacks


@pytest.mark.parametrize("actor", ["trained-like", "all-ties"])
@pytest.mark.parametrize("driver", [drive_runner, drive_engine])
@pytest.mark.parametrize("width", WIDTHS, ids=[f"{w}-greedy" for w in WIDTHS])
def test_select_matches_act_single_loop(width, driver, actor, monkeypatch):
    env = make_env(seed=width)
    policy = make_policy(env, actor)
    calls = spy_on_select(policy, monkeypatch)
    total = driver(policy, env, width)
    assert max(n for n, _, _ in calls) == width
    assert total == sum(fallbacks for _, fallbacks, _ in calls)
    if actor == "all-ties":
        # An exact tie is never certified: every row goes to float64.
        assert all(fallbacks == n for n, fallbacks, _ in calls)
    else:
        assert total == 0


@pytest.mark.parametrize("driver", ["runner", "engine"])
def test_declined_rows_leave_the_drivers_rows_intact(driver, monkeypatch):
    """A declined row j > 0 is recomputed through the batch-1 forward,
    which overwrites ``policy.workspace.input_rows(1)``; the driver's rows
    must live elsewhere, so every row reads as built after the select and
    every answer is the ``act_single`` one (the spy checks both)."""
    if driver == "runner":
        # Abilene traffic keeps the slots' observations apart (the star
        # fixture's all-ties episodes build identical rows).
        env = ServiceCoordinationEnv(
            base_scenario(pattern="poisson", num_ingress=2, horizon=60.0), seed=0
        )
        policy = make_policy(env, "all-ties")
        calls = spy_on_select(policy, monkeypatch)
        drive_runner(policy, env, 8)
    else:
        env = make_env(seed=8)
        policy = make_policy(env, "trained-like")
        calls = spy_on_select(policy, monkeypatch)
        rows = np.random.default_rng(5).uniform(-1.0, 1.0, (16, policy.obs_dim))
        rows[[3, 9], 1] = 1.5  # outside the bound's domain
        drive_engine(policy, env, 8, rows)
    assert any(fallbacks and distinct > 1 for _, fallbacks, distinct in calls)


def test_single_action_policy_has_no_runner_up_to_guard():
    policy = ActorCriticPolicy(6, 1, hidden=(8,), rng=0).freeze()
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 6))
    actions = np.full(4, -1, dtype=np.intp)
    assert policy.select_actions(x, actions) == 0
    assert actions.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("frozen", [False, True], ids=["writable", "frozen-overflow"])
def test_without_a_cast_every_row_is_decided_in_float64(frozen):
    """A writable policy has no float32 cast, and neither has a frozen one
    whose weights could overflow a float32 sum: the select decides every
    row through the float64 ``logits_single`` and counts each as
    declined."""
    policy = ActorCriticPolicy(6, 3, hidden=(8,), rng=0)
    if frozen:
        for w in policy.actor.parameters:
            w *= 1e35
    reference = policy.clone()
    if frozen:
        policy.freeze()
    assert policy.certified_workspace is None
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 6))
    actions = np.empty(5, dtype=np.intp)
    assert policy.select_actions(x, actions) == 5
    assert actions.tolist() == [reference.act_single(row) for row in x]


def spy_on_casts(monkeypatch):
    """Count the float32 ``MLPInference`` workspaces built from now on."""
    real = MLPInference.__init__
    casts = []

    def counted(self, mlp, dtype=np.float64):
        if np.dtype(dtype) == np.dtype(np.float32):
            casts.append(mlp)
        real(self, mlp, dtype)

    monkeypatch.setattr(MLPInference, "__init__", counted)
    return casts


class TestOneCast:
    """``freeze()`` makes the only float32 cast; each driver takes one per
    policy it decides with, and none for a policy already frozen."""

    def test_evaluate_policy_casts_once(self, monkeypatch):
        env = make_env()
        policy = make_policy(env, "trained-like")
        casts = spy_on_casts(monkeypatch)
        evaluate_policy(policy, env, episodes=12)
        assert len(casts) == 1
        assert policy.certified_workspace is None  # the caller's stays writable

    def test_engine_casts_once_per_distinct_policy(self, monkeypatch):
        env = make_env()
        policies = [make_policy(env, "trained-like").clone() for _ in range(4)]
        casts = spy_on_casts(monkeypatch)
        engine = ServingEngine(policies[0], ServingConfig(max_batch=4))
        rows = np.random.default_rng(3).uniform(-1.0, 1.0, (6, env.observation_size))
        for policy in policies[1:]:
            engine.install(policy)
            for row in rows:
                engine.submit(row)
            flush_all(engine)
        assert len(casts) == len(policies)
        assert engine.policy is policies[-1]

    def test_reinstalling_a_policy_casts_nothing(self, monkeypatch):
        env = make_env()
        first, second = make_policy(env, "trained-like"), make_policy(env, "all-ties")
        engine = ServingEngine(first, ServingConfig(max_batch=4))
        engine.install(second)
        casts = spy_on_casts(monkeypatch)
        row = np.random.default_rng(4).uniform(-1.0, 1.0, env.observation_size)
        for policy in (first, second, second, first):
            engine.install(policy)
            engine.submit(row)
            engine.flush()
        assert casts == []
        assert engine.stats.swaps == 4


class TestSanitizer:
    """Under ``REPRO_CHECK_INVARIANTS`` every certified row is re-decided
    in float64, as a deployed agent's decisions are."""

    def _select(self, monkeypatch, sanitize, rows=8):
        if sanitize:
            monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        else:
            monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        policy = make_policy(make_env(), "trained-like")
        x = np.random.default_rng(1).uniform(-1.0, 1.0, (rows, policy.obs_dim))
        exact = [policy.act_single(row) for row in x]
        inference = policy.freeze().certified_workspace
        singles = []
        real_single = policy.logits_single

        def counted(obs):
            singles.append(1)
            return real_single(obs)

        monkeypatch.setattr(policy, "logits_single", counted)
        return policy, x, inference, exact, singles

    def test_a_wrong_certified_answer_raises(self, monkeypatch):
        policy, x, inference, exact, _ = self._select(monkeypatch, True)
        real = inference.certified_argmax

        def wrong(rows, actions):
            declined = real(rows, actions)
            actions[2] = (exact[2] + 1) % policy.num_actions
            return declined

        monkeypatch.setattr(inference, "certified_argmax", wrong)
        with pytest.raises(InvariantViolation) as excinfo:
            policy.select_actions(x, np.empty(len(x), dtype=np.intp))
        context = excinfo.value.context
        assert context["row"] == 2
        assert context["certified"] == (exact[2] + 1) % policy.num_actions
        assert context["exact"] == exact[2]
        assert {"margin", "delta"} <= set(context)

    def test_every_certified_row_is_re_decided(self, monkeypatch):
        policy, x, inference, exact, singles = self._select(monkeypatch, True)
        actions = np.empty(len(x), dtype=np.intp)
        assert policy.select_actions(x, actions) == 0
        assert actions.tolist() == exact
        assert len(singles) == len(x)

    def test_off_it_runs_no_float64_forward(self, monkeypatch):
        policy, x, inference, exact, singles = self._select(monkeypatch, False)
        actions = np.empty(len(x), dtype=np.intp)
        assert policy.select_actions(x, actions) == 0
        assert actions.tolist() == exact
        assert singles == []


@pytest.mark.parametrize("branches", [3, 9], ids=["obs16", "obs40"])
def test_one_row_prefix_forward_is_the_batch_one_forward(branches):
    """A 1-row forward through the prefix of a 32-row float64 workspace
    is ``logits_single``, bit for bit (Abilene's 16-wide observation and a
    9-branch star's 40): the reference does not depend on which widths a
    workspace served before."""
    obs_dim, num_actions = 4 * branches + 4, branches + 1
    policy = ActorCriticPolicy(obs_dim, num_actions, rng=1)
    inference = MLPInference(policy.actor)
    rng = np.random.default_rng(2)
    inference.forward(rng.uniform(-1.0, 1.0, (32, obs_dim)))
    for obs in rng.uniform(-1.0, 1.0, (25, obs_dim)):
        row = inference.input_rows(1)
        row[0] = obs
        assert np.array_equal(inference.forward(row)[0], policy.logits_single(obs))
