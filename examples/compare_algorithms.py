#!/usr/bin/env python
"""Compare all four algorithms of the paper on one scenario.

Reproduces a single cell of Fig. 6: the base scenario under Poisson
arrival, evaluated with the distributed DRL (the paper's contribution),
the centralized DRL baseline [10], the GCASP heuristic [11], and greedy
shortest-path (SP).  Prints a per-algorithm summary plus drop-reason
breakdowns — useful for understanding *why* each algorithm loses flows:

- SP drops on node/link capacity along the one path it knows;
- the central DRL drops when bursts overload the scheduled target nodes
  between its (delayed, periodic) rule refreshes;
- GCASP reroutes around bottlenecks but follows fixed greedy rules;
- the distributed DRL balances load per flow, per node, at runtime.

Usage::

    python examples/compare_algorithms.py [num_ingress]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core import TrainingConfig
from repro.eval import (
    ALL_ALGORITHMS,
    SuiteConfig,
    base_scenario,
    build_algorithm_suite,
)
from repro.rl import ACKTRConfig
from repro.sim import Simulator


def main(num_ingress: int = 3) -> None:
    scenario = base_scenario(
        pattern="poisson", num_ingress=num_ingress, horizon=1000.0
    )
    print(f"Base scenario: Abilene, {num_ingress} ingress node(s), Poisson arrival")

    print("Training DRL approaches (this takes a couple of minutes)...")
    suite = build_algorithm_suite(
        scenario,
        SuiteConfig(
            training=TrainingConfig(
                seeds=(0, 1), updates_per_seed=500, rl=ACKTRConfig(n_steps=64)
            ),
            central_train_updates=250,
        ),
    )

    results = suite.compare(eval_seeds=(100, 101, 102))
    print(f"\n{'algorithm':<18} {'success':>14} {'avg delay':>10}")
    for name in ALL_ALGORITHMS:
        r = results[name]
        print(f"{name:<18} {r.mean_success:>8.3f}±{r.std_success:.3f} "
              f"{r.mean_delay:>10.1f}")

    print("\nDrop-reason breakdown (one fresh run each):")
    for name in ALL_ALGORITHMS:
        policy = suite.factories_for(scenario)[name]()
        traffic = scenario.traffic_factory(np.random.default_rng(999))
        sim = Simulator(scenario.network, scenario.catalog, traffic,
                        scenario.sim_config)
        metrics = sim.run(policy)
        reasons = ", ".join(f"{k}={v}" for k, v in sorted(metrics.drop_reasons.items()))
        print(f"  {name:<18} {metrics.summary()}  [{reasons or 'no drops'}]")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
