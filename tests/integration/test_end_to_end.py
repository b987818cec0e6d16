"""Integration tests: the full pipeline, end to end.

These exercise the complete stack — scenario construction, centralized
training, distributed deployment, and evaluation against the baselines —
with budgets small enough for CI but large enough that learning is
detectable.
"""

import numpy as np
import pytest

from repro.baselines import GCASPPolicy, RandomPolicy, ShortestPathPolicy
from repro.core import (
    DistributedCoordinator,
    ServiceCoordinationEnv,
    TrainingConfig,
    train_coordinator,
)
from repro.eval import base_scenario, evaluate_policy_on_scenario
from repro.rl.acktr import ACKTRConfig
from repro.sim import Simulator

from tests.conftest import make_env_config, make_simple_catalog
from tests.rl.toy_envs import mean_recent_episode_reward
from tests.topology.networks import line_network


@pytest.fixture(scope="module")
def trained():
    """One small but real training run, shared by the tests below."""
    net = line_network(4, node_capacity=3.0, link_capacity=3.0)
    catalog = make_simple_catalog(num_components=2, processing_delay=2.0)
    config = make_env_config(net, catalog, horizon=300.0, interval=8.0)
    result = train_coordinator(
        config,
        TrainingConfig(
            seeds=(0,), updates_per_seed=120, rl=ACKTRConfig(n_envs=2, n_steps=32)
        ),
    )
    return net, catalog, config, result


class TestTrainingPipeline:
    def test_produces_coordinator_with_agent_per_node(self, trained):
        net, catalog, config, result = trained
        assert set(result.coordinator.decision_counts()) == set(net.node_names)
        assert result.best_seed == 0

    def test_trained_policy_beats_random(self, trained):
        net, catalog, config, result = trained

        def run(policy):
            ratios = []
            for seed in (50, 51, 52):
                traffic = config.traffic_factory(np.random.default_rng(seed))
                sim = Simulator(net, catalog, traffic, config.sim_config)
                ratios.append(sim.run(policy).success_ratio)
            return float(np.mean(ratios))

        drl = run(DistributedCoordinator(net, catalog, result.coordinator.policy))
        rnd = run(RandomPolicy(net, seed=0))
        assert drl > rnd + 0.2, f"DRL ({drl:.2f}) did not beat random ({rnd:.2f})"

    def test_trained_policy_achieves_decent_success(self, trained):
        net, catalog, config, result = trained
        traffic = config.traffic_factory(np.random.default_rng(99))
        sim = Simulator(net, catalog, traffic, config.sim_config)
        metrics = sim.run(DistributedCoordinator(net, catalog, result.coordinator.policy))
        assert metrics.success_ratio > 0.5

    def test_policy_survives_save_load_roundtrip(self, trained, tmp_path):
        net, catalog, config, result = trained
        from repro.rl.policy import ActorCriticPolicy

        path = tmp_path / "trained.npz"
        result.multi_seed.best_policy.save(path)
        reloaded = ActorCriticPolicy.load(path)
        coordinator = DistributedCoordinator(net, catalog, reloaded)
        traffic = config.traffic_factory(np.random.default_rng(123))
        sim_a = Simulator(net, catalog, traffic, config.sim_config)
        ratio_a = sim_a.run(coordinator).success_ratio

        traffic = config.traffic_factory(np.random.default_rng(123))
        sim_b = Simulator(net, catalog, traffic, config.sim_config)
        ratio_b = sim_b.run(
            DistributedCoordinator(net, catalog, result.coordinator.policy)
        ).success_ratio
        assert ratio_a == pytest.approx(ratio_b)


class TestBaselineComparison:
    def test_all_algorithms_run_on_base_scenario(self):
        scenario = base_scenario(pattern="fixed", num_ingress=1, horizon=300.0)
        for factory in (
            lambda: ShortestPathPolicy(scenario.network, scenario.catalog),
            lambda: GCASPPolicy(scenario.network, scenario.catalog),
            lambda: RandomPolicy(scenario.network, seed=0),
        ):
            result = evaluate_policy_on_scenario(
                scenario, factory, "algo", eval_seeds=(0,)
            )
            assert 0.0 <= result.mean_success <= 1.0

    def test_gcasp_at_least_matches_sp(self):
        """GCASP strictly extends SP's behaviour with rerouting, so across
        a few scenarios it must do at least as well on average."""
        gcasp_scores, sp_scores = [], []
        for capacity_seed in (0, 1, 2):
            scenario = base_scenario(
                pattern="poisson", num_ingress=3, horizon=400.0,
                capacity_seed=capacity_seed,
            )
            gcasp = evaluate_policy_on_scenario(
                scenario,
                lambda: GCASPPolicy(scenario.network, scenario.catalog),
                "GCASP", eval_seeds=(0, 1),
            )
            sp = evaluate_policy_on_scenario(
                scenario,
                lambda: ShortestPathPolicy(scenario.network, scenario.catalog),
                "SP", eval_seeds=(0, 1),
            )
            gcasp_scores.append(gcasp.mean_success)
            sp_scores.append(sp.mean_success)
        assert np.mean(gcasp_scores) >= np.mean(sp_scores) - 0.02


class TestEnvAsRLInterface:
    def test_env_trains_with_acktr_directly(self):
        """The coordination env satisfies the generic Env protocol well
        enough for the RL stack to improve on it."""
        from repro.rl import ACKTRConfig, ACKTRTrainer

        net = line_network(3, node_capacity=5.0, link_capacity=5.0)
        catalog = make_simple_catalog(processing_delay=2.0)
        config = make_env_config(net, catalog, horizon=200.0, interval=10.0)
        counter = [0]

        def env_factory():
            counter[0] += 1
            return ServiceCoordinationEnv(config, seed=counter[0])

        trainer = ACKTRTrainer(env_factory, ACKTRConfig(n_steps=16, n_envs=2), seed=0)
        trainer.train(60)
        assert trainer.episode_history, "no episodes finished during training"
        recent = mean_recent_episode_reward(trainer, 10)
        first = trainer.episode_history[0].total_reward
        assert recent > first, f"no improvement: {first} -> {recent}"
