"""Integration: coordination with multiple concurrent services.

The paper notes: "While we successfully tested our approach with multiple
services, we focus on a single service in our evaluation for simplicity."
This test covers the multi-service code path end to end: two services
with different chain lengths share the substrate, flows of both arrive
interleaved, and both the heuristics and a (briefly) trained DRL
coordinator handle the mix.
"""

import numpy as np
import pytest

from repro.baselines import GCASPPolicy
from repro.core import CoordinationEnvConfig, TrainingConfig, train_coordinator
from repro.rl.acktr import ACKTRConfig
from repro.services import Component, Service, ServiceCatalog
from repro.sim import SimulationConfig, Simulator
from repro.topology import line_network
from repro.traffic import FixedArrival, FlowTemplate, TrafficSource


@pytest.fixture(scope="module")
def multi_service_setup():
    net = line_network(4, node_capacity=4.0, link_capacity=6.0)
    catalog = ServiceCatalog([
        Service("video", [
            Component("vFW", processing_delay=2.0),
            Component("vCDN", processing_delay=2.0),
        ]),
        Service("iot", [Component("iAgg", processing_delay=1.0,
                                  resource_coefficient=0.5)]),
    ])

    def traffic_factory(rng: np.random.Generator):
        processes = {"v1": FixedArrival(8.0), "v2": FixedArrival(8.0)}
        templates = {
            "v1": FlowTemplate(service="video", egress="v4", deadline=60.0),
            "v2": FlowTemplate(service="iot", egress="v4", deadline=40.0),
        }
        return TrafficSource(processes, templates).flows_until(250.0)

    config = CoordinationEnvConfig(
        network=net,
        catalog=catalog,
        traffic_factory=traffic_factory,
        sim_config=SimulationConfig(horizon=250.0),
    )
    return net, catalog, config


class TestMultiServiceCoordination:
    def test_gcasp_handles_both_services(self, multi_service_setup):
        net, catalog, config = multi_service_setup
        traffic = config.traffic_factory(np.random.default_rng(0))
        sim = Simulator(net, catalog, traffic, config.sim_config)
        metrics = sim.run(GCASPPolicy(net, catalog))
        assert metrics.flows_generated > 30
        assert metrics.success_ratio > 0.8

    def test_drl_trains_on_service_mix(self, multi_service_setup):
        net, catalog, config = multi_service_setup
        result = train_coordinator(
            config,
            TrainingConfig(seeds=(0,), updates_per_seed=120,
                           rl=ACKTRConfig(n_envs=2, n_steps=32)),
        )
        traffic = config.traffic_factory(np.random.default_rng(99))
        sim = Simulator(net, catalog, traffic, config.sim_config)
        metrics = sim.run(result.coordinator)
        # A briefly trained agent must be clearly better than chance on
        # the mixed workload (random achieves ~0 here).
        assert metrics.success_ratio > 0.3

    def test_observation_reflects_requested_component(self, multi_service_setup):
        """The same node sees different resource demands depending on
        which service's flow is asking (vFW needs 1.0, iAgg 0.5)."""
        from repro.core import ObservationAdapter

        net, catalog, config = multi_service_setup
        adapter = ObservationAdapter(net, catalog)
        traffic = list(config.traffic_factory(np.random.default_rng(0)))
        sim = Simulator(net, catalog, iter(traffic), config.sim_config)
        utilizations = {}
        for _ in range(2):
            decision = sim.next_decision()
            parts = adapter.build_parts(decision, sim)
            utilizations[decision.flow.service] = parts.node_utilization[0]
            sim.apply_action(0)
        assert utilizations["video"] != utilizations["iot"]
