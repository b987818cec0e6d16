#!/usr/bin/env python
"""Quickstart: train a distributed DRL coordinator and watch it work.

Runs the paper's pipeline end to end on a laptop-scale budget:

1. build the base scenario — the Abilene network, the video-streaming
   service ⟨FW, IDS, video⟩, Poisson flow arrivals at two ingresses;
2. train the shared actor-critic centrally (ACKTR, multi-seed with
   best-agent selection — Alg. 1);
3. deploy one DRL agent per node (distributed inference) and evaluate on
   fresh traffic, comparing against the greedy shortest-path baseline.

Takes about a minute.  Raise ``UPDATES`` / ``SEEDS`` for better policies.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import ShortestPathPolicy
from repro.core import DistributedCoordinator, TrainingConfig, train_coordinator
from repro.eval import base_scenario
from repro.rl import ACKTRConfig
from repro.sim import Simulator

#: Training budget (paper: 10 seeds and far more updates).
SEEDS = (0, 1)
UPDATES = 400


def main() -> None:
    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=1000.0)
    network, catalog = scenario.network, scenario.catalog
    print(f"Scenario: {network.name}, ingress={network.ingress}, "
          f"egress={network.egress}, degree={network.degree}")

    print(f"Training distributed DRL ({len(SEEDS)} seeds x {UPDATES} updates)...")
    result = train_coordinator(
        scenario,
        TrainingConfig(seeds=SEEDS, updates_per_seed=UPDATES, rl=ACKTRConfig(n_steps=64)),
        verbose=True,
    )
    print(f"Selected best agent from seed {result.best_seed}.")

    print("\nEvaluating on fresh traffic (3 seeds):")
    for label, policy_factory in (
        ("Distributed DRL",
         lambda: DistributedCoordinator(network, catalog, result.coordinator.policy)),
        ("Shortest path  ", lambda: ShortestPathPolicy(network, catalog)),
    ):
        ratios = []
        for seed in (100, 101, 102):
            traffic = scenario.traffic_factory(np.random.default_rng(seed))
            sim = Simulator(network, catalog, traffic, scenario.sim_config)
            metrics = sim.run(policy_factory(), time_decisions=True)
            ratios.append(metrics.success_ratio)
        print(f"  {label}: success ratio {np.mean(ratios):.3f} "
              f"(last run: {metrics.summary()})")
        print(f"    mean decision time: {sim.mean_decision_seconds * 1000:.3f} ms")


if __name__ == "__main__":
    main()
