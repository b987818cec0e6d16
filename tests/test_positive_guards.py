"""Config fields that must be positive refuse NaN too, trainer counts
must be integers, and multi-seed training refuses an empty seed list and
a negative update count.

Every comparison with NaN is false, so a guard spelled ``x <= 0`` lets
NaN through: a NaN horizon made the event queue's ``head > horizon``
never true and the run ignored its end; a NaN learning rate turned the
actor weights into NaN.  The guards are spelled ``not x > 0`` (``not
x >= 0`` where 0 is allowed, ``not x >= 1`` for counts).  A count also
has to be an integer: a NaN ``stat_interval`` made ``updates % nan == 0``
never true, so every update silently skipped the Fisher refresh, and a
NaN or fractional ``n_steps`` failed later, inside ``range()``.
"""

import math

import pytest

from repro.core.trainer import CoordinationEnvBuilder
from repro.faults import FaultKind, FaultSpec
from repro.rl import training
from repro.rl.a2c import A2CConfig
from repro.rl.acktr import ACKTRConfig
from repro.sim.config import SimulationConfig

from tests.conftest import make_env_config, make_simple_catalog
from tests.topology.networks import line_network


@pytest.mark.parametrize(
    "config_cls, field",
    [
        (SimulationConfig, "horizon"),
        (A2CConfig, "learning_rate"),
    ],
    ids=lambda p: p if isinstance(p, str) else p.__name__,
)
def test_positive_field_refuses_nan(config_cls, field):
    with pytest.raises(ValueError, match=f"{field} must be > 0"):
        config_cls(**{field: math.nan})


@pytest.mark.parametrize(
    "config_cls, field",
    [
        (A2CConfig, "n_steps"),
        (A2CConfig, "n_envs"),
        (ACKTRConfig, "n_steps"),
        (ACKTRConfig, "n_envs"),
        (ACKTRConfig, "stat_interval"),
    ],
    ids=lambda p: p if isinstance(p, str) else p.__name__,
)
@pytest.mark.parametrize("value", [math.nan, 2.5, 0], ids=["nan", "fraction", "zero"])
def test_count_field_must_be_an_integer_of_at_least_one(config_cls, field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        config_cls(**{field: value})


@pytest.mark.parametrize(
    "field, message",
    [("start", "start must be >= 0"), ("duration", "duration must be > 0")],
    ids=["start", "duration"],
)
def test_fault_window_refuses_nan(field, message):
    window = {"start": 10.0, "duration": 5.0, field: math.nan}
    with pytest.raises(ValueError, match=message):
        FaultSpec(FaultKind.NODE_OUTAGE, "v1", **window)


@pytest.mark.parametrize(
    "kwargs, name",
    [({"seeds": ()}, "seeds"), ({"updates_per_seed": -3}, "updates_per_seed")],
    ids=["no-seeds", "negative-updates"],
)
def test_multi_seed_training_refuses_empty_or_negative_counts(kwargs, name, monkeypatch):
    """No seed used to die in best-agent selection with a bare ``max()``
    error after the fan-out, and a negative update count trained nothing
    and still picked a "best" agent.  Both now fail before any task runs."""
    ran = []
    monkeypatch.setattr(training, "_run_seed_task", lambda *args: ran.append(args))
    net = line_network(3, node_capacity=10.0, link_capacity=10.0)
    builder = CoordinationEnvBuilder(make_env_config(net, make_simple_catalog()))
    arguments = {"seeds": (0,), "updates_per_seed": 1, **kwargs}
    with pytest.raises(ValueError, match=name):
        training.train_multi_seed(builder, **arguments)
    assert ran == []
