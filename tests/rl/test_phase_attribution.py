"""Phase attribution follows telemetry: a trainer built with an enabled
recorder answers "where did the time go" by itself, and one built
without pays nothing."""

import pytest

from repro.core.trainer import CoordinationEnvBuilder
from repro.parallel import CountingEnvFactory
from repro.profiling import PHASE_NAMES
from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.rl.acktr import ACKTRConfig, ACKTRTrainer
from repro.telemetry import JsonlRecorder, load_stream
from repro.topology import line_network

from tests.conftest import make_env_config, make_simple_catalog

TRAINERS = [(A2CTrainer, A2CConfig), (ACKTRTrainer, ACKTRConfig)]


def _factory():
    config = make_env_config(line_network(3), make_simple_catalog(), horizon=120.0)
    return CountingEnvFactory(CoordinationEnvBuilder(config))


@pytest.mark.parametrize("trainer_cls, config_cls", TRAINERS)
def test_enabled_recorder_ends_train_with_one_train_phases_record(
    trainer_cls, config_cls, tmp_path
):
    path = tmp_path / "metrics.jsonl"
    with JsonlRecorder(path) as recorder:
        trainer = trainer_cls(
            _factory(), config_cls(n_steps=8, n_envs=2), seed=0, recorder=recorder
        )
        assert trainer.profiler is not None
        trainer.train(3)
    (record,) = [r for r in load_stream(path) if r["kind"] == "train_phases"]
    assert record["updates"] == 3
    assert all(record[name] > 0.0 for name in PHASE_NAMES)
    assert sum(record[name] for name in PHASE_NAMES) <= record["wall_seconds"]
    if trainer_cls is ACKTRTrainer:
        assert record["kfac_threads"] == trainer.kfac_threads
        assert record["fused_backward_active"] is trainer.fused_backward_active
    else:
        assert "kfac_threads" not in record


@pytest.mark.parametrize("trainer_cls, config_cls", TRAINERS)
def test_null_recorder_attaches_nothing(trainer_cls, config_cls):
    trainer = trainer_cls(_factory(), config_cls(n_steps=8, n_envs=2), seed=0)
    assert trainer.profiler is None
    assert trainer.runner.profiler is None
    assert all(env.profiler is None for env in trainer.envs)
