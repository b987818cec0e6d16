"""Parallel results must be bit-identical to serial ones.

The determinism contract (see :mod:`repro.parallel.pool`): every task
carries its own seeds, so ``workers=N`` only changes *where* a task
runs.  These tests pin the contract for both fan-out sites — multi-seed
training and per-seed evaluation — and check that a worker failure
surfaces an error naming the offending seed.  A forked worker must also
get a working K-FAC executor, not the parent's dead one.
"""

import multiprocessing
from dataclasses import dataclass
from functools import partial

import pytest

from repro.baselines.shortest_path import ShortestPathPolicy
from repro.eval.runner import evaluate_policy_on_scenario
from repro.eval.scenarios import base_scenario
from repro.parallel import EnvBuilder, WorkerTaskError
from repro.rl import acktr
from repro.rl.acktr import ACKTRConfig
from repro.rl.training import train_multi_seed

from tests.rl.toy_envs import ContextualBanditEnv


# Module-level (picklable) builders so tasks cross process boundaries.


@dataclass(frozen=True)
class BanditBuilder(EnvBuilder):
    episode_length: int = 10

    def build(self, env_seed: int) -> ContextualBanditEnv:
        return ContextualBanditEnv(episode_length=self.episode_length, seed=env_seed)


@dataclass(frozen=True)
class ExplodingBuilder(EnvBuilder):
    """Raises for every env seed at or past ``fail_from``."""

    fail_from: int

    def build(self, env_seed: int) -> ContextualBanditEnv:
        if env_seed >= self.fail_from:
            raise RuntimeError("injected env failure")
        return ContextualBanditEnv(episode_length=10, seed=env_seed)


def _train(workers):
    return train_multi_seed(
        BanditBuilder(),
        config=ACKTRConfig(n_steps=16, n_envs=2),
        seeds=(0, 1, 2, 3),
        updates_per_seed=4,
        workers=workers,
    )


def _submit_from_forked_child():
    # The child inherits the parent's executor object but not its thread.
    if acktr._kfac_executor().submit(int, 7).result(timeout=5) != 7:
        raise SystemExit(1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_kfac_executor_works_in_a_forked_child():
    """The fork hook in ``repro.rl.acktr`` resets the module-level
    executor, so a forked pool worker gets a live one.  Without the hook
    this fails in seconds; the pooled training below, which it precedes,
    would block forever in the worker's first K-FAC update."""
    acktr._kfac_executor().submit(int).result()  # its thread now exists
    child = multiprocessing.get_context("fork").Process(
        target=_submit_from_forked_child
    )
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


class TestTrainingDeterminism:
    def test_workers_do_not_change_results(self):
        serial = _train(workers=1)
        pooled = _train(workers=4)
        assert serial.timing.mode == "serial"
        assert pooled.timing.mode == "process-pool"
        assert [r.seed for r in serial.results] == [r.seed for r in pooled.results]
        # Bit-identical, not approximately equal.
        assert [r.mean_episode_reward for r in serial.results] == [
            r.mean_episode_reward for r in pooled.results
        ]
        assert [r.episodes for r in serial.results] == [
            r.episodes for r in pooled.results
        ]
        assert serial.best.seed == pooled.best.seed

    def test_worker_failure_names_seed(self):
        # Seeds 0..2 at n_envs=2 consume env seeds 1..9 in slices of 3;
        # failing from env seed 7 breaks exactly training seed 2.
        builder = ExplodingBuilder(fail_from=7)
        for workers in (1, 3):
            with pytest.raises(WorkerTaskError, match="seed 2"):
                train_multi_seed(
                    builder,
                    config=ACKTRConfig(n_steps=8, n_envs=2),
                    seeds=(0, 1, 2),
                    updates_per_seed=2,
                    workers=workers,
                )


class TestEvaluationDeterminism:
    @pytest.fixture(scope="class")
    def scenario(self):
        return base_scenario(pattern="poisson", num_ingress=1, horizon=300.0)

    def test_workers_do_not_change_results(self, scenario):
        factory = partial(ShortestPathPolicy, scenario.network, scenario.catalog)
        seeds = list(range(8))
        serial = evaluate_policy_on_scenario(
            scenario, factory, "SP", eval_seeds=seeds, workers=1
        )
        pooled = evaluate_policy_on_scenario(
            scenario, factory, "SP", eval_seeds=seeds, workers=4
        )
        assert serial.timing.mode == "serial"
        assert pooled.timing.mode == "process-pool"
        # Bit-identical success ratios and delays.
        assert serial.success_ratios == pooled.success_ratios
        assert serial.avg_delays == pooled.avg_delays
