"""Config fields that must be positive refuse NaN too.

Every comparison with NaN is false, so a guard spelled ``x <= 0`` lets
NaN through: a NaN horizon made the event queue's ``head > horizon``
never true and the run ignored its end; a NaN update interval never
refreshed the central rules; a NaN ``kl_clip`` turned every K-FAC step
into NaN weights.  The guards are spelled ``not x > 0``.
"""

import math

import pytest

from repro.baselines.central_drl import CentralDRLConfig
from repro.rl.acktr import ACKTRConfig
from repro.sim.config import SimulationConfig


@pytest.mark.parametrize(
    "config_cls, field",
    [
        (SimulationConfig, "horizon"),
        (SimulationConfig, "keep_duration"),
        (CentralDRLConfig, "update_interval"),
        (ACKTRConfig, "kl_clip"),
    ],
    ids=lambda p: p if isinstance(p, str) else p.__name__,
)
def test_positive_field_refuses_nan(config_cls, field):
    with pytest.raises(ValueError, match=f"{field} must be > 0"):
        config_cls(**{field: math.nan})
