"""Evaluation scenarios: the paper's base scenario and every variation.

Base scenario (Sec. V-A1): the Abilene topology with node capacities drawn
uniformly from [0, 2], link capacities from [1, 5], link delays derived
from inter-city distance; a video-streaming service ⟨FW, IDS, video⟩ whose
components all have a 5 ms processing delay and resource demand linear in
load; flows of unit rate and length with deadline 100; a single egress v8
and 1-5 ingresses v1-v5.

Every figure's experiment is a variation: the traffic pattern (Fig. 6),
the deadline (Fig. 7), train/test mismatches (Fig. 8), or the topology
(Fig. 9).  :func:`base_scenario` builds the corresponding
:class:`~repro.core.env.CoordinationEnvConfig`, reproducibly: the capacity
assignment is drawn from ``capacity_seed`` and the traffic realisation
from the per-episode generator the environment supplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.core.env import CoordinationEnvConfig
from repro.faults import FaultScenarioConfig
from repro.services import default_catalog
from repro.sim.config import SimulationConfig
from repro.topology.network import Network, link_key
from repro.topology.zoo import topology_layout
from repro.traffic.arrival import (
    ArrivalProcess,
    FixedArrival,
    FlowTemplate,
    MMPPArrival,
    PoissonArrival,
    TrafficSource,
)
from repro.traffic.flows import FlowSpec
from repro.traffic.traces import RateTrace, TraceArrival, synthetic_abilene_trace

__all__ = [
    "TRAFFIC_PATTERNS",
    "SERVICE_NAME",
    "FAULT_PRESETS",
    "ScenarioTrafficFactory",
    "build_network",
    "make_traffic_factory",
    "fault_preset",
    "base_scenario",
]

#: The four traffic patterns of Fig. 6 (in figure order a-d).
TRAFFIC_PATTERNS = ("fixed", "poisson", "mmpp", "trace")

#: The base scenario's service.
SERVICE_NAME = "video-streaming"

#: Paper values.
_EGRESS = ("v8",)
_NODE_CAPACITY_RANGE = (0.0, 2.0)
_LINK_CAPACITY_RANGE = (1.0, 5.0)
_MEAN_INTERVAL = 10.0
_MMPP_SLOW = 12.0
_MMPP_FAST = 8.0
_MMPP_SWITCH_INTERVAL = 100.0
_MMPP_SWITCH_PROBABILITY = 0.05


def build_network(
    topology: str = "Abilene",
    num_ingress: int = 2,
    capacity_seed: int = 0,
) -> Network:
    """One of the Table I topologies with the paper's random capacities.

    Node capacities ~ U[0, 2] and link capacities ~ U[1, 5], drawn
    deterministically from ``capacity_seed``.  Ingresses are ``v1..vk``
    (the paper varies 1-5) and the egress is ``v8``.  Builds
    exactly one :class:`Network`, so the all-pairs tables are computed
    once per scenario.
    """
    if num_ingress < 1:
        raise ValueError(f"need at least one ingress, got {num_ingress}")
    rng = np.random.default_rng(capacity_seed)
    # Draw all capacities up front, in sorted name and link-key order, so
    # the draw order (and thus the scenario) is independent of the layout's
    # node and link order.
    layout = topology_layout(topology)
    lo_n, hi_n = _NODE_CAPACITY_RANGE
    lo_l, hi_l = _LINK_CAPACITY_RANGE
    node_caps: Dict[str, float] = {
        name: float(rng.uniform(lo_n, hi_n)) for name in sorted(layout.node_names)
    }
    link_caps: Dict[tuple, float] = {
        key: float(rng.uniform(lo_l, hi_l)) for key in sorted(layout.link_keys)
    }
    return layout.network(
        node_capacity=node_caps.__getitem__,
        link_capacity=lambda u, v: link_caps[link_key(u, v)],
        ingress=[f"v{i + 1}" for i in range(num_ingress)],
        egress=list(_EGRESS),
    )


@dataclass(frozen=True)
class ScenarioTrafficFactory:
    """Per-episode traffic factory for one of the paper's four patterns.

    Invoked once per episode with a fresh generator, so parallel training
    environments and repeated evaluation runs see independent traffic
    realisations of the same pattern.  A plain dataclass (not a closure)
    so scenario configs can be pickled into worker processes by the
    parallel execution layer.
    """

    ingress: Tuple[str, ...]
    pattern: str
    horizon: float
    template: FlowTemplate
    trace: Optional[RateTrace] = None

    def __call__(self, rng: np.random.Generator) -> Iterable[FlowSpec]:
        processes: Dict[str, ArrivalProcess] = {}
        for index, ingress in enumerate(self.ingress):
            child = rng.integers(2**31)
            if self.pattern == "fixed":
                # Stagger ingresses slightly so simultaneous arrivals do
                # not all collide on the very same event ordering.
                processes[ingress] = FixedArrival(
                    _MEAN_INTERVAL, offset=_MEAN_INTERVAL + index
                )
            elif self.pattern == "poisson":
                processes[ingress] = PoissonArrival(_MEAN_INTERVAL, rng=child)
            elif self.pattern == "mmpp":
                processes[ingress] = MMPPArrival(
                    mean_interval_slow=_MMPP_SLOW,
                    mean_interval_fast=_MMPP_FAST,
                    switch_interval=_MMPP_SWITCH_INTERVAL,
                    switch_probability=_MMPP_SWITCH_PROBABILITY,
                    rng=child,
                )
            else:  # trace
                processes[ingress] = TraceArrival(self.trace, rng=child)
        return TrafficSource(processes, self.template).flows_until(self.horizon)


def make_traffic_factory(
    network: Network,
    pattern: str = "poisson",
    horizon: float = 2000.0,
    deadline: float = 100.0,
) -> ScenarioTrafficFactory:
    """Traffic factory for one of the paper's four arrival patterns.

    The fixed and Poisson patterns arrive every 10 time steps on average
    per ingress; the ``"trace"`` pattern follows the synthetic
    Abilene-like trace scaled to the same mean rate.

    Args:
        network: Supplies the ingress set (one arrival process each).
        pattern: ``"fixed"``, ``"poisson"``, ``"mmpp"``, or ``"trace"``.
        horizon: Flows arrive in ``(0, horizon]``.
        deadline: Flow deadline τ_f.
    """
    if pattern not in TRAFFIC_PATTERNS:
        raise ValueError(
            f"unknown traffic pattern {pattern!r}; choose from {TRAFFIC_PATTERNS}"
        )
    if not network.ingress:
        raise ValueError("network has no ingress nodes")
    trace = (
        synthetic_abilene_trace(horizon=horizon, mean_rate=1.0 / _MEAN_INTERVAL)
        if pattern == "trace"
        else None
    )
    egress = network.egress[0]
    template = FlowTemplate(
        service=SERVICE_NAME, egress=egress, data_rate=1.0, duration=1.0,
        deadline=deadline,
    )
    return ScenarioTrafficFactory(
        ingress=tuple(network.ingress),
        pattern=pattern,
        horizon=horizon,
        template=template,
        trace=trace,
    )


#: The named fault scenarios for robustness-under-churn comparisons.
FAULT_PRESETS = ("links", "nodes", "churn")


def fault_preset(name: str, seed: int = 0) -> FaultScenarioConfig:
    """One of the named fault scenarios, parameterised only by seed.

    - ``links``: two link failures (transient connectivity loss),
    - ``nodes``: one node outage (instance eviction + rerouting),
    - ``churn``: the combined stress — two link failures, one node
      outage, and two capacity degradations.
    """
    if name == "links":
        return FaultScenarioConfig(seed=seed, link_failures=2)
    if name == "nodes":
        return FaultScenarioConfig(seed=seed, node_outages=1)
    if name == "churn":
        return FaultScenarioConfig(
            seed=seed, link_failures=2, node_outages=1, degradations=2
        )
    raise ValueError(
        f"unknown fault preset {name!r}; choose from {FAULT_PRESETS}"
    )


def base_scenario(
    pattern: str = "poisson",
    num_ingress: int = 2,
    deadline: float = 100.0,
    horizon: float = 2000.0,
    topology: str = "Abilene",
    capacity_seed: int = 0,
    shaping: bool = True,
    faults: Optional[Union[str, FaultScenarioConfig]] = None,
) -> CoordinationEnvConfig:
    """The paper's base scenario with one variation knob per experiment.

    - Fig. 6: sweep ``pattern`` x ``num_ingress`` (1-5).
    - Fig. 7: ``num_ingress=2, pattern="poisson"``, sweep ``deadline``.
    - Fig. 8a: train on one ``pattern``, evaluate on ``pattern="trace"``.
    - Fig. 8b: train with ``num_ingress=2``, evaluate on 1-5.
    - Fig. 9: sweep ``topology`` over Table I.
    - Reward-shaping ablation: ``shaping=False`` pays only the terminal
      ±10 rewards.
    - Robustness extension: pass ``faults`` — a preset name from
      :data:`FAULT_PRESETS` or a full :class:`FaultScenarioConfig` — to
      inject link/node failures during evaluation.

    ``horizon`` defaults to 2000 time steps — a laptop-scale fraction of
    the paper's 20000 — and can be raised for full-fidelity runs.
    """
    if isinstance(faults, str):
        faults = fault_preset(faults)
    network = build_network(
        topology=topology, num_ingress=num_ingress, capacity_seed=capacity_seed
    )
    traffic_factory = make_traffic_factory(
        network, pattern=pattern, horizon=horizon, deadline=deadline
    )
    return CoordinationEnvConfig(
        network=network,
        catalog=default_catalog(),
        traffic_factory=traffic_factory,
        sim_config=SimulationConfig(horizon=horizon, faults=faults),
        shaping=shaping,
    )
