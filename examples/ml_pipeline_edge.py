#!/usr/bin/env python
"""Domain example: an ML inference pipeline on an edge network.

The paper's introduction motivates service coordination with machine
learning functions chained in a pipeline (ITU-T Y.3172).  This example
builds that workload from the library's public API *without* the canned
scenario helpers:

- a random geometric edge network (25 nodes, heterogeneous capacities),
- a four-stage pipeline ⟨ingest, preprocess, model, postprocess⟩ whose
  stages have very different resource demands (the model stage is heavy),
- bursty MMPP traffic from two edge ingresses toward a cloud egress,
- tight deadlines (inference is latency-critical).

It then trains the distributed coordinator and reports where instances
were placed — showing the *scaling and placement* the agents derived
implicitly from their per-flow decisions.
"""

from __future__ import annotations

import numpy as np

from repro.core import CoordinationEnvConfig, TrainingConfig, train_coordinator
from repro.rl import ACKTRConfig
from repro.services import ServiceCatalog, ml_inference_pipeline
from repro.sim import SimulationConfig, Simulator
from repro.topology import random_geometric_network
from repro.traffic import FlowTemplate, MMPPArrival, TrafficSource

HORIZON = 800.0


def main() -> None:
    network = random_geometric_network(
        25,
        radius=30.0,
        seed=7,
        node_capacity_range=(0.5, 3.0),
        link_capacity_range=(2.0, 6.0),
        ingress=["v3", "v11"],
        egress=["v20"],
    )
    service = ml_inference_pipeline(processing_delay=4.0)
    catalog = ServiceCatalog([service])
    print(f"Edge network: {network.num_nodes} nodes, degree {network.degree}, "
          f"pipeline of {service.length} stages")

    def traffic_factory(rng: np.random.Generator):
        processes = {
            ingress: MMPPArrival(
                mean_interval_slow=14.0,
                mean_interval_fast=7.0,
                rng=rng.integers(2**31),
            )
            for ingress in network.ingress
        }
        template = FlowTemplate(
            service=service.name, egress=network.egress[0], deadline=60.0
        )
        return TrafficSource(processes, template).flows_until(HORIZON)

    scenario = CoordinationEnvConfig(
        network=network,
        catalog=catalog,
        traffic_factory=traffic_factory,
        sim_config=SimulationConfig(horizon=HORIZON),
    )

    print("Training (bursty MMPP traffic, tight 60 ms deadline)...")
    result = train_coordinator(
        scenario,
        TrainingConfig(seeds=(0, 1), updates_per_seed=400, rl=ACKTRConfig(n_steps=64)),
    )

    traffic = scenario.traffic_factory(np.random.default_rng(42))
    sim = Simulator(network, catalog, traffic, scenario.sim_config)
    metrics = sim.run(result.coordinator)
    print(f"\n{metrics.summary()}")
    print(f"drop reasons: {metrics.drop_reasons or 'none'}")

    print("\nDerived placement (instances alive at the end of the run):")
    for instance in sorted(
        sim.state.placed_instances, key=lambda i: (i.component, i.node)
    ):
        print(f"  {instance.component:<12} @ {instance.node:<5} "
              f"(busy flows: {instance.busy_flows})")

    print("\nPer-node decision counts (how the work spread over the agents):")
    counts = result.coordinator.decision_counts()
    # The coordinator used for this run is `result.coordinator` itself, so
    # its counters reflect the evaluation we just did.
    busy = {n: c for n, c in counts.items() if c > 0}
    for node, count in sorted(busy.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {node:<5} {count}")


if __name__ == "__main__":
    main()
