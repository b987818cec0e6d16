"""Tests for the experiment runner (with tiny training budgets)."""

import math
from functools import partial

import numpy as np
import pytest

from repro.eval.runner import (
    ALL_ALGORITHMS,
    DISTRIBUTED_DRL,
    GCASP,
    SP,
    AlgorithmResult,
    SuiteConfig,
    build_algorithm_suite,
    evaluate_policy_on_scenario,
)
from repro.core.trainer import TrainingConfig
from repro.eval.scenarios import base_scenario
from repro.baselines.shortest_path import ShortestPathPolicy
from repro.rl.acktr import ACKTRConfig
from repro.telemetry import JsonlRecorder, canonical_stream, load_stream


TINY = SuiteConfig(
    training=TrainingConfig(
        seeds=(0,), updates_per_seed=3, rl=ACKTRConfig(n_envs=2, n_steps=8)
    ),
    central_train_updates=3,
)


@pytest.fixture(scope="module")
def scenario():
    return base_scenario(pattern="poisson", num_ingress=1, horizon=300.0)


@pytest.fixture(scope="module")
def suite(scenario):
    return build_algorithm_suite(scenario, TINY)


class TestAlgorithmResult:
    def test_aggregates(self):
        result = AlgorithmResult(
            name="x",
            success_ratios=[0.5, 0.7],
            avg_delays=[20.0, float("nan")],
            mean_decision_seconds=[0.001, 0.003],
        )
        assert result.mean_success == pytest.approx(0.6)
        assert result.std_success == pytest.approx(0.1)
        assert result.mean_delay == pytest.approx(20.0)  # NaN ignored
        assert result.excluded_delay_seeds == 1
        assert result.mean_decision_ms == pytest.approx(2.0)
        assert "x" in result.summary()

    def test_weighted_delay(self):
        # A seed with many surviving flows dominates the delay mean; a
        # seed where every flow dropped (NaN delay, weight 0) is excluded.
        result = AlgorithmResult(
            name="x",
            success_ratios=[0.9, 0.1, 0.0],
            avg_delays=[10.0, 40.0, float("nan")],
            delay_weights=[300.0, 3.0, 0.0],
        )
        expected = (10.0 * 300.0 + 40.0 * 3.0) / 303.0
        assert result.mean_delay == pytest.approx(expected)
        assert result.excluded_delay_seeds == 1

    def test_empty(self):
        # An empty aggregate is NaN across the board: 0.0 would be
        # indistinguishable from "every flow dropped in every seed".
        result = AlgorithmResult(name="x")
        assert math.isnan(result.mean_success)
        assert math.isnan(result.std_success)
        assert math.isnan(result.mean_delay)
        assert math.isnan(result.mean_decision_ms)
        assert "n/a" in result.summary()


class TestEvaluatePolicy:
    def test_runs_per_seed(self, scenario):
        result = evaluate_policy_on_scenario(
            scenario,
            lambda: ShortestPathPolicy(scenario.network, scenario.catalog),
            "SP",
            eval_seeds=(0, 1, 2),
        )
        assert len(result.success_ratios) == 3
        assert all(0.0 <= r <= 1.0 for r in result.success_ratios)

    def test_timing_collected_when_requested(self, scenario):
        result = evaluate_policy_on_scenario(
            scenario,
            lambda: ShortestPathPolicy(scenario.network, scenario.catalog),
            "SP",
            eval_seeds=(0,),
            time_decisions=True,
        )
        assert len(result.mean_decision_seconds) == 1
        assert result.mean_decision_seconds[0] > 0

    def test_same_seed_same_traffic(self, scenario):
        a = evaluate_policy_on_scenario(
            scenario,
            lambda: ShortestPathPolicy(scenario.network, scenario.catalog),
            "SP", eval_seeds=(7,),
        )
        b = evaluate_policy_on_scenario(
            scenario,
            lambda: ShortestPathPolicy(scenario.network, scenario.catalog),
            "SP", eval_seeds=(7,),
        )
        assert a.success_ratios == b.success_ratios


class TestRepeatedSeedTelemetry:
    """Two tasks with one label used to share one worker-local file."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equal_seeds_give_two_well_formed_records(
        self, scenario, tmp_path, workers
    ):
        recorder = JsonlRecorder(tmp_path / "metrics.jsonl")
        evaluate_policy_on_scenario(
            scenario,
            partial(ShortestPathPolicy, scenario.network, scenario.catalog),
            "SP",
            eval_seeds=(0, 0),
            workers=workers,
            recorder=recorder,
        )
        recorder.close()
        stream = canonical_stream(load_stream(tmp_path / "metrics.jsonl"))
        first, second = [r for r in stream if r["kind"] == "sim_run"]
        assert first == second


class TestSuite:
    def test_builds_all_four_algorithms(self, suite):
        assert set(suite.factories_for(suite.env_config)) == set(ALL_ALGORITHMS)
        assert suite.coordinator is not None
        assert suite.central is not None

    def test_compare_returns_results(self, suite):
        results = suite.compare(eval_seeds=(5,))
        assert list(results) == list(ALL_ALGORITHMS)
        assert all(isinstance(r, AlgorithmResult) for r in results.values())

    def test_factories_for_other_scenario_redeploys(self, suite, scenario):
        other = base_scenario(pattern="fixed", num_ingress=2, horizon=300.0)
        factories = suite.factories_for(other)
        assert set(factories) == set(ALL_ALGORITHMS)
        # The redeployed distributed DRL runs on the new scenario.
        drl = factories[DISTRIBUTED_DRL]()
        assert drl.network.ingress == other.network.ingress

    @staticmethod
    def _assert_factories_match_compare(suite, env_config, seed=5):
        """The grid has one implementation: each factory, evaluated on its
        own for one seed, gives that algorithm's row of ``compare``."""
        compared = suite.compare(env_config, eval_seeds=(seed,))
        factories = suite.factories_for(env_config)
        assert list(factories) == list(compared)
        for name, factory in factories.items():
            single = evaluate_policy_on_scenario(
                env_config, factory, name, eval_seeds=(seed,)
            )
            assert single.success_ratios == compared[name].success_ratios
            assert single.delay_weights == compared[name].delay_weights
            np.testing.assert_array_equal(
                single.avg_delays, compared[name].avg_delays
            )

    def test_factories_for_same_scenario_is_identity(self, suite):
        """On the training scenario ``factories_for`` is what ``compare``
        deploys — there is no second construction."""
        self._assert_factories_match_compare(suite, suite.env_config)

    def test_factories_for_other_scenario_match_compare(self, suite):
        other = base_scenario(pattern="fixed", num_ingress=2, horizon=300.0)
        self._assert_factories_match_compare(suite, other)

    def test_subset_include(self, scenario):
        subset = build_algorithm_suite(scenario, TINY, include=(SP, GCASP))
        assert set(subset.factories_for(scenario)) == {SP, GCASP}
        assert subset.coordinator is None
