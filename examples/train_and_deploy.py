#!/usr/bin/env python
"""Train once, save, and re-deploy the policy on a different scenario.

Demonstrates the operational story of Sec. V-D (generalization): a trained
policy is a small ``.npz`` of weights; it can be persisted, shipped to the
nodes, and — because its observation/action spaces depend only on the
network degree — deployed *without retraining* when traffic changes or
(same-degree) networks differ.

Steps:
1. train on the base scenario with *fixed* deterministic flow arrival,
2. save the selected best policy to disk and reload it,
3. deploy the reloaded policy on previously unseen bursty MMPP traffic
   and on higher load (4 ingresses), without any retraining.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import DistributedCoordinator, TrainingConfig, train_coordinator
from repro.eval import base_scenario
from repro.rl import ACKTRConfig, ActorCriticPolicy
from repro.sim import Simulator


def evaluate(scenario, coordinator, label: str) -> None:
    ratios = []
    for seed in (200, 201, 202):
        traffic = scenario.traffic_factory(np.random.default_rng(seed))
        sim = Simulator(scenario.network, scenario.catalog, traffic,
                        scenario.sim_config)
        ratios.append(sim.run(coordinator).success_ratio)
    print(f"  {label}: success ratio {np.mean(ratios):.3f} ± {np.std(ratios):.3f}")


def main() -> None:
    train_scenario = base_scenario(pattern="fixed", num_ingress=2, horizon=1000.0)
    print("Training on deterministic fixed-interval traffic...")
    result = train_coordinator(
        train_scenario,
        TrainingConfig(seeds=(0, 1), updates_per_seed=400, rl=ACKTRConfig(n_steps=64)),
    )
    trained_policy = result.multi_seed.best_policy

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coordinator.npz"
        trained_policy.save(path)
        print(f"Saved policy to {path.name} "
              f"({trained_policy.actor.num_parameters()} actor parameters)")
        reloaded = ActorCriticPolicy.load(path)

    print("\nDeploying the reloaded policy without retraining:")
    evaluate(train_scenario,
             DistributedCoordinator(train_scenario.network,
                                    train_scenario.catalog, reloaded),
             "seen scenario (fixed arrival)   ")

    mmpp = base_scenario(pattern="mmpp", num_ingress=2, horizon=1000.0)
    evaluate(mmpp,
             DistributedCoordinator(mmpp.network, mmpp.catalog, reloaded),
             "unseen bursty MMPP traffic      ")

    high_load = base_scenario(pattern="fixed", num_ingress=4, horizon=1000.0)
    evaluate(high_load,
             DistributedCoordinator(high_load.network, high_load.catalog, reloaded),
             "unseen load (4 ingress nodes)   ")


if __name__ == "__main__":
    main()
