#!/usr/bin/env python
"""Scalability: deploy the distributed DRL on large real-world networks.

The key architectural property of the paper (Sec. IV / Fig. 9): the
per-node agent's observation and action spaces depend only on the network
degree Δ_G, *not* on the number of nodes.  Online decisions therefore take
constant time — around a millisecond — whether the network has 11 nodes
(Abilene) or 110 (Interroute), while a centralized controller's work grows
with the node count.

This example trains a coordinator per topology (budget kept small) and
prints success ratios and per-decision latencies across the Table I
networks.
"""

from __future__ import annotations

import numpy as np

from repro.core import TrainingConfig, train_coordinator
from repro.eval import base_scenario
from repro.rl import ACKTRConfig
from repro.sim import Simulator

TOPOLOGIES = ("Abilene", "BT Europe", "China Telecom", "Interroute")


def main() -> None:
    print(f"{'network':<15} {'nodes':>5} {'deg':>4} {'obs':>5} "
          f"{'success':>8} {'ms/decision':>12}")
    for topology in TOPOLOGIES:
        scenario = base_scenario(
            pattern="poisson", num_ingress=2, topology=topology, horizon=800.0
        )
        network = scenario.network
        result = train_coordinator(
            scenario,
            TrainingConfig(seeds=(0,), updates_per_seed=300, rl=ACKTRConfig(n_steps=64)),
        )
        traffic = scenario.traffic_factory(np.random.default_rng(100))
        sim = Simulator(network, scenario.catalog, traffic, scenario.sim_config)
        metrics = sim.run(result.coordinator, time_decisions=True)
        obs_size = 4 * network.degree + 4
        print(f"{topology:<15} {network.num_nodes:>5} {network.degree:>4} "
              f"{obs_size:>5} {metrics.success_ratio:>8.3f} "
              f"{sim.mean_decision_seconds * 1000:>12.3f}")
    print("\nNote how the decision time tracks the network *degree* (the "
          "observation size), never the node count.")


if __name__ == "__main__":
    main()
