"""Tests for the serving load generator (arrivals, pools, drive modes)."""

import numpy as np
import pytest

from repro.core.env import ServiceCoordinationEnv
from repro.rl.policy import ActorCriticPolicy
from repro.serving import (
    ServingConfig,
    collect_observation_pool,
    poisson_arrivals,
    serve_workload,
)

from tests.conftest import make_env_config, make_simple_catalog
from tests.topology.networks import line_network


def make_scenario(horizon=200.0):
    net = line_network(3, node_capacity=10.0, link_capacity=10.0, link_delay=1.0)
    catalog = make_simple_catalog(processing_delay=2.0)
    return make_env_config(net, catalog, horizon=horizon, interval=7.0)


def make_policy(scenario, rng=0):
    env = ServiceCoordinationEnv(scenario, seed=0)
    return ActorCriticPolicy(
        env.observation_size, env.num_actions, hidden=(16, 16), rng=rng
    )


class TestPoissonArrivals:
    def test_seeded_and_monotone(self):
        a = poisson_arrivals(100.0, 50, 3)
        b = poisson_arrivals(100.0, 50, 3)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)
        assert not np.array_equal(a, poisson_arrivals(100.0, 50, 4))

    def test_mean_gap_matches_rate(self):
        arrivals = poisson_arrivals(1000.0, 5000, 0)
        assert np.mean(np.diff(arrivals)) == pytest.approx(1e-3, rel=0.1)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="rate"):
            poisson_arrivals(0.0, 5, 0)
        with pytest.raises(ValueError, match="count"):
            poisson_arrivals(10.0, -1, 0)


class TestObservationPool:
    def test_harvests_requested_rows(self):
        scenario = make_scenario()
        policy = make_policy(scenario)
        pool = collect_observation_pool(scenario, policy, 40, seed=0)
        assert pool.shape == (40, policy.obs_dim)
        # Real decision observations, not padding.
        assert np.any(pool != 0.0)

    def test_seeded_pool_is_reproducible(self):
        scenario = make_scenario()
        policy = make_policy(scenario)
        a = collect_observation_pool(scenario, policy, 25, seed=3)
        b = collect_observation_pool(scenario, policy, 25, seed=3)
        assert np.array_equal(a, b)

    def test_rejects_bad_pool_size(self):
        scenario = make_scenario()
        with pytest.raises(ValueError, match="pool"):
            collect_observation_pool(scenario, make_policy(scenario), 0)


class TestServeWorkload:
    def _pool(self):
        scenario = make_scenario()
        policy = make_policy(scenario)
        return policy, collect_observation_pool(scenario, policy, 32, seed=0)

    def test_saturated_serves_every_request(self):
        policy, pool = self._pool()
        engine = serve_workload(
            policy, pool, requests=300, rate=0.0,
            config=ServingConfig(max_batch=16),
        )
        stats = engine.stats
        assert stats.submitted == 300 and stats.served == 300
        assert stats.shed == 0
        assert stats.max_batch == 16
        assert stats.decisions_per_second > 0
        assert stats.wall_seconds > 0

    def test_open_loop_serves_every_request_at_feasible_rate(self):
        policy, pool = self._pool()
        engine = serve_workload(
            policy, pool, requests=200, rate=5000.0,
            config=ServingConfig(max_batch=8, deadline_s=0.002),
        )
        stats = engine.stats
        assert stats.served == 200 and stats.shed == 0
        assert stats.flushes >= 200 // 8
        assert len(stats.latencies) == 200

    def test_open_loop_overload_sheds(self):
        """Arrivals far beyond service capacity must overflow the capped
        queue and shed instead of growing without bound."""
        policy, pool = self._pool()
        engine = serve_workload(
            policy, pool, requests=400, rate=10_000_000.0,
            config=ServingConfig(max_batch=8, queue_capacity=16),
        )
        stats = engine.stats
        assert stats.shed > 0
        assert stats.served + stats.shed == 400
        assert stats.max_queue_depth <= 16

    def test_swap_every_installs_under_load(self):
        policy, pool = self._pool()
        engine = serve_workload(
            policy, pool, requests=300, rate=0.0,
            config=ServingConfig(max_batch=16), swap_every=100,
        )
        assert engine.stats.swaps == 3
        assert engine.policy_version == 3
        assert engine.stats.served == 300  # swaps never drop requests

    def test_emits_serving_telemetry(self, tmp_path):
        from repro.telemetry import start_run
        from repro.telemetry.summarize import load_stream

        policy, pool = self._pool()
        run = start_run(tmp_path / "run", name="loadgen", config={}, seeds=())
        serve_workload(
            policy, pool, requests=64, rate=0.0,
            config=ServingConfig(max_batch=8), recorder=run.recorder,
        )
        run.close()
        records = load_stream(tmp_path / "run" / "metrics.jsonl")
        serving = [r for r in records if r["kind"] == "serving"]
        assert len(serving) == 1
        assert serving[0]["requests"] == 64
        assert serving[0]["rate"] == 0.0

    def test_validates_inputs(self):
        policy, pool = self._pool()
        with pytest.raises(ValueError, match="requests"):
            serve_workload(policy, pool, requests=0)
        with pytest.raises(ValueError, match="swap_every"):
            serve_workload(policy, pool, requests=1, swap_every=-1)
        with pytest.raises(ValueError, match="observations"):
            serve_workload(policy, pool[0], requests=1)
        for rate in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="rate must be >= 0"):
                serve_workload(policy, pool, requests=1, rate=rate)
