"""Config fields that must be positive refuse NaN too, and multi-seed
training refuses an empty seed list and a negative update count.

Every comparison with NaN is false, so a guard spelled ``x <= 0`` lets
NaN through: a NaN horizon made the event queue's ``head > horizon``
never true and the run ignored its end; a NaN update interval never
refreshed the central rules; a NaN ``kl_clip``, ``damping`` or learning
rate turned the actor weights into NaN; a NaN ``max_grad_norm`` switched
gradient clipping off (``total > nan`` is never true); a NaN mean
downtime gave every fault the minimum window (``max(min, nan)`` is
``min``).  The guards are spelled ``not x > 0`` (``not x >= 0`` where 0
is allowed).
"""

import math

import pytest

from repro.baselines.central_drl import CentralDRLConfig
from repro.core.trainer import CoordinationEnvBuilder
from repro.faults import FaultKind, FaultScenarioConfig, FaultSpec
from repro.rl import training
from repro.rl.a2c import A2CConfig
from repro.rl.acktr import ACKTRConfig
from repro.sim.config import SimulationConfig
from repro.topology import line_network

from tests.conftest import make_env_config, make_simple_catalog


@pytest.mark.parametrize(
    "config_cls, field",
    [
        (SimulationConfig, "horizon"),
        (SimulationConfig, "keep_duration"),
        (CentralDRLConfig, "update_interval"),
        (ACKTRConfig, "kl_clip"),
        (ACKTRConfig, "damping"),
        (A2CConfig, "learning_rate"),
        (A2CConfig, "max_grad_norm"),
        (FaultScenarioConfig, "mean_downtime"),
        (FaultScenarioConfig, "min_downtime"),
    ],
    ids=lambda p: p if isinstance(p, str) else p.__name__,
)
def test_positive_field_refuses_nan(config_cls, field):
    with pytest.raises(ValueError, match=f"{field} must be > 0"):
        config_cls(**{field: math.nan})


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
