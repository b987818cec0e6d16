"""repro — Distributed Online Service Coordination Using Deep RL.

A from-scratch Python reproduction of Schneider, Qarawlus & Karl,
"Distributed Online Service Coordination Using Deep Reinforcement
Learning" (IEEE ICDCS 2021): a flow-level network simulator, a pure-numpy
ACKTR/A2C reinforcement-learning stack, the paper's distributed per-node
DRL coordination approach, the compared baselines (central DRL, GCASP,
SP), and the full evaluation harness for every table and figure.

Quickstart::

    from repro.eval import base_scenario
    from repro.core import train_coordinator, TrainingConfig
    from repro.sim import Simulator
    import numpy as np

    scenario = base_scenario(pattern="poisson", num_ingress=2)
    result = train_coordinator(
        scenario, TrainingConfig(seeds=(0, 1), updates_per_seed=25)
    )
    traffic = scenario.traffic_factory(np.random.default_rng(0))
    sim = Simulator(scenario.network, scenario.catalog, traffic,
                    scenario.sim_config)
    print(sim.run(result.coordinator).summary())

See README.md for the architecture overview and DESIGN.md / EXPERIMENTS.md
for the paper-reproduction inventory.
"""

__version__ = "1.0.0"

from repro import (
    analysis,
    baselines,
    core,
    eval,
    nn,
    rl,
    services,
    sim,
    topology,
    traffic,
)

__all__ = [
    "__version__",
    "analysis",
    "baselines",
    "core",
    "eval",
    "nn",
    "rl",
    "services",
    "sim",
    "topology",
    "traffic",
]
