"""The observation-ablation bench deploys its masked agents.

``benchmarks/bench_ablation_observations.py`` masks observation parts in
training (``MaskedObservationEnv``) and in deployment
(``MaskedCoordinator``).  The deployed agent builds its observation into
its workspace row with ``build(..., out=row)``, so the masked build must
zero the parts in that very row, or the agent decides on an unmasked
observation (or, with a two-argument build, not at all).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.observations import ObservationAdapter
from repro.eval.scenarios import base_scenario
from repro.rl.policy import ActorCriticPolicy
from repro.sim.simulator import Simulator

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture(scope="module")
def masked_coordinator_cls():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        from bench_ablation_observations import MaskedCoordinator
    finally:
        sys.path.remove(str(BENCHMARKS))
    return MaskedCoordinator


@pytest.mark.parametrize("masked", [("links",), ("delays", "instances")])
def test_agents_decide_on_the_masked_row(masked_coordinator_cls, monkeypatch, masked):
    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=300.0)
    net, catalog = scenario.network, scenario.catalog
    adapter = ObservationAdapter(net, catalog)
    policy = ActorCriticPolicy(adapter.size, net.degree + 1, rng=0)
    coordinator = masked_coordinator_cls(masked, net, catalog, policy)

    decided_on = []
    act_single = ActorCriticPolicy.act_single

    def spy(self, obs, *args, **kwargs):
        decided_on.append(np.array(obs, dtype=np.float64).reshape(-1))
        return act_single(self, obs, *args, **kwargs)

    monkeypatch.setattr(ActorCriticPolicy, "act_single", spy)
    sim = Simulator(
        net, catalog, scenario.traffic_factory(np.random.default_rng(0)),
        scenario.sim_config,
    )
    metrics = sim.run(coordinator)

    assert metrics.decisions == len(decided_on) > 50
    rows = np.array(decided_on)
    slices = adapter.part_slices
    for part in masked:
        assert not rows[:, slices[part]].any(), part
    kept = [p for p in slices if p not in masked]
    assert any(rows[:, slices[p]].any() for p in kept)
