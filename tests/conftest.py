"""Shared fixtures and scenario builders for the test suite."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np
import pytest

from repro.core.env import CoordinationEnvConfig
from repro.services import Component, Service, ServiceCatalog
from repro.sim import SimulationConfig, Simulator
from repro.sim.state import Allocation, NetworkState
from repro.topology import Network
from repro.topology.network import link_key
from repro.traffic import FixedArrival, FlowSpec, FlowTemplate, TrafficSource

from tests.topology.networks import line_network, triangle_network

#: The sanitizer switch.  A simulator reads it once, when it is built, and
#: sweeps its invariants after every event if it was on; a policy reads
#: it when it is built too, and then cross-checks each certified decision
#: in float64.
SANITIZER = "REPRO_CHECK_INVARIANTS"
_SANITIZER_AT_START = os.environ.get(SANITIZER)


def _set_sanitizer(value: Optional[str]) -> None:
    if value is None:
        os.environ.pop(SANITIZER, None)
    else:
        os.environ[SANITIZER] = value


@contextmanager
def sanitizer_on() -> Iterator[None]:
    """The sanitizer switch on inside the block, as it was after it."""
    before = os.environ.get(SANITIZER)
    os.environ[SANITIZER] = "1"
    try:
        yield
    finally:
        _set_sanitizer(before)


@pytest.fixture(autouse=True)
def _sanitizer_is_per_test() -> Iterator[None]:
    """A :func:`make_env_config` scenario turns the sanitizer on for the
    rest of the test that draws its traffic; every test ends with the
    switch as the session found it."""
    yield
    _set_sanitizer(_SANITIZER_AT_START)


def make_simple_catalog(
    num_components: int = 1,
    processing_delay: float = 2.0,
    startup_delay: float = 0.0,
    idle_timeout: float = 50.0,
    resource_coefficient: float = 1.0,
) -> ServiceCatalog:
    """A catalog with one service of ``num_components`` identical components."""
    components = [
        Component(
            f"c{i + 1}",
            processing_delay=processing_delay,
            startup_delay=startup_delay,
            idle_timeout=idle_timeout,
            resource_coefficient=resource_coefficient,
        )
        for i in range(num_components)
    ]
    return ServiceCatalog([Service("svc", components)])


def make_flow_specs(
    times: Iterable[float],
    ingress: str = "v1",
    egress: str = "v3",
    service: str = "svc",
    deadline: float = 100.0,
    data_rate: float = 1.0,
    duration: float = 1.0,
) -> List[FlowSpec]:
    """Hand-scheduled flows at explicit arrival times."""
    return [
        FlowSpec(
            service=service,
            ingress=ingress,
            egress=egress,
            data_rate=data_rate,
            arrival_time=t,
            duration=duration,
            deadline=deadline,
        )
        for t in times
    ]


def make_simulator(
    network: Network,
    catalog: ServiceCatalog,
    flows: Iterable[FlowSpec],
    horizon: float = 200.0,
    **config_kwargs,
) -> Simulator:
    """Simulator with invariant checking on (tests always verify state)."""
    config = SimulationConfig(horizon=horizon, **config_kwargs)
    with sanitizer_on():
        return Simulator(network, catalog, list(flows), config)


class LoadPeaks(NamedTuple):
    """Peak loads by node name (``node``) and link key (``link``)."""

    node: Dict[str, float]
    link: Dict[Tuple[str, str], float]


def record_peaks(state: NetworkState) -> LoadPeaks:
    """Track the peak load of every node and link of ``state`` from now
    on: the returned dicts update as the simulator allocates, so a
    baseline test can read where a flow was processed and routed."""
    peaks = LoadPeaks(
        dict.fromkeys(state.network.node_index, 0.0),
        dict.fromkeys(state.network.link_index, 0.0),
    )

    def recording(allocate: Callable[..., Allocation], seen: dict, loads: np.ndarray):
        def allocate_and_record(index: int, amount: float, flow_id: int) -> Allocation:
            allocation = allocate(index, amount, flow_id)
            seen[allocation.key] = max(seen[allocation.key], float(loads[index]))
            return allocation

        return allocate_and_record

    state.allocate_node_id = recording(  # type: ignore[method-assign]
        state.allocate_node_id, peaks.node, state._node_loads
    )
    state.allocate_link_id = recording(  # type: ignore[method-assign]
        state.allocate_link_id, peaks.link, state._link_loads
    )
    return peaks


def link_load(state: NetworkState, u: str, v: str) -> float:
    """Current data rate on the undirected link (u, v)."""
    return float(state._link_loads[state.network.link_index[link_key(u, v)]])


@pytest.fixture
def line3() -> Network:
    """v1 - v2 - v3 with generous capacities; ingress v1, egress v3."""
    return line_network(3, node_capacity=10.0, link_capacity=10.0, link_delay=1.0)


@pytest.fixture
def triangle() -> Network:
    return triangle_network(node_capacity=10.0, link_capacity=10.0, link_delay=1.0)


@pytest.fixture
def simple_catalog() -> ServiceCatalog:
    return make_simple_catalog()


def make_env_config(
    network: Network,
    catalog: ServiceCatalog,
    horizon: float = 200.0,
    interval: float = 10.0,
    deadline: float = 100.0,
) -> CoordinationEnvConfig:
    """Env config with deterministic fixed-interval traffic on all
    ingresses.  Its traffic factory turns the sanitizer on: an env builds
    each episode's simulator right after it draws the traffic, so every
    simulator built from this config sweeps its invariants (tests always
    verify state)."""
    service = next(iter(catalog._services))
    egress = network.egress[0]

    def traffic_factory(rng: np.random.Generator):
        os.environ[SANITIZER] = "1"
        processes = {ing: FixedArrival(interval) for ing in network.ingress}
        template = FlowTemplate(service=service, egress=egress, deadline=deadline)
        return TrafficSource(processes, template).flows_until(horizon)

    return CoordinationEnvConfig(
        network=network,
        catalog=catalog,
        traffic_factory=traffic_factory,
        sim_config=SimulationConfig(horizon=horizon),
    )
