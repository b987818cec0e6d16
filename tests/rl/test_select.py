"""The one select: ``ActorCriticPolicy.select_actions`` under both drivers.

Lockstep evaluation and the serving engine both hand the select the
logits of one multi-row forward; either way it must answer exactly as a
loop of greedy ``act_single`` over the same rows would.  The matrix spies
on the real calls each driver makes instead of re-stating how it builds
its arguments.
"""

import numpy as np
import pytest

from repro.core.env import ServiceCoordinationEnv
from repro.rl.batched import BatchedEpisodeRunner
from repro.rl.policy import ActorCriticPolicy
from repro.serving import ServingConfig, ServingEngine
from repro.topology import star_network

from tests.conftest import make_env_config, make_simple_catalog

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
    """Check every ``select_actions`` call against the ``act_single`` loop;
    returns the list of ``(rows, fallbacks)`` seen."""
    real = policy.select_actions
    calls = []

    def checked(logits, x, actions):
        fallbacks = real(logits, x, actions)
        assert actions.tolist() == [policy.act_single(row) for row in x]
        calls.append((len(x), fallbacks))
        return fallbacks

    monkeypatch.setattr(policy, "select_actions", checked)
    return calls


def drive_runner(policy, env, width):
    outcomes, stats = BatchedEpisodeRunner(
        policy, env, episodes=width + 2, batch=width
    ).run()
    assert all(o.length > 0 for o in outcomes)
    return stats.tie_fallbacks


def drive_engine(policy, env, width):
    rows = np.random.default_rng(5).uniform(-1.0, 1.0, (3 * width + 1, policy.obs_dim))
    engine = ServingEngine(
        policy, ServingConfig(max_batch=width, queue_capacity=len(rows))
    )
    for row in rows:
        engine.submit(row)
    assert len(engine.drain()) == len(rows)
    return engine.stats.tie_fallbacks


@pytest.mark.parametrize("actor", ["trained-like", "all-ties"])
@pytest.mark.parametrize("driver", [drive_runner, drive_engine])
@pytest.mark.parametrize("width", WIDTHS, ids=[f"{w}-greedy" for w in WIDTHS])
def test_select_matches_act_single_loop(width, driver, actor, monkeypatch):
    env = make_env(seed=width)
    policy = make_policy(env, actor)
    calls = spy_on_select(policy, monkeypatch)
    total = driver(policy, env, width)
    assert max(n for n, _ in calls) == width
    assert total == sum(fallbacks for _, fallbacks in calls)
    for n, fallbacks in calls:
        if n == 1:
            assert fallbacks == 0
        elif actor == "all-ties":
            assert fallbacks == n
    if actor == "trained-like":
        assert total == 0


def test_single_action_policy_has_no_runner_up_to_guard():
    policy = ActorCriticPolicy(6, 1, hidden=(8,), rng=0)
    x = np.random.default_rng(0).normal(size=(4, 6))
    actions = np.full(4, -1, dtype=np.intp)
    assert policy.select_actions(policy.actor_inference().forward(x), x, actions) == 0
    assert actions.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("branches", [3, 9], ids=["obs16", "obs40"])
def test_one_row_prefix_forward_is_the_batch_one_forward(activation, branches):
    """What the one-row case rests on: a 1-row forward through the prefix
    of a 32-row workspace is ``logits_single``, bit for bit (Abilene's
    16-wide observation and a 9-branch star's 40)."""
    obs_dim, num_actions = 4 * branches + 4, branches + 1
    policy = ActorCriticPolicy(obs_dim, num_actions, activation=activation, rng=1)
    inference = policy.actor_inference()
    rng = np.random.default_rng(2)
    inference.forward(rng.uniform(-1.0, 1.0, (32, obs_dim)))
    for obs in rng.uniform(-1.0, 1.0, (25, obs_dim)):
        row = inference.input_rows(1)
        row[0] = obs
        assert np.array_equal(inference.forward(row)[0], policy.logits_single(obs))
