"""The scalar observation oracle for ``ObservationAdapter.build``.

``build`` assembles the paper's local observation (Sec. IV-B1) as one
row of python floats from integer gather tables.  This module computes
the same five parts the plain way — string-keyed state reads, one
``np.clip`` per part — exactly as the paper states each formula, so a
test can check one part against its formula and the whole row against
``build`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.observations import DUMMY, ObservationAdapter
from repro.sim.simulator import DecisionPoint, Simulator
from repro.traffic.flows import Flow


@dataclass(frozen=True)
class ObservationParts:
    """The five observation components, before concatenation."""

    flow_attributes: np.ndarray   # F_f, size 2
    link_utilization: np.ndarray  # R^L_v, size Δ_G
    node_utilization: np.ndarray  # R^V_v, size Δ_G + 1
    delays_to_egress: np.ndarray  # D_{v,f}, size Δ_G
    available_instances: np.ndarray  # X_v, size Δ_G + 1

    def concatenate(self) -> np.ndarray:
        return np.concatenate(
            [
                self.flow_attributes,
                self.link_utilization,
                self.node_utilization,
                self.delays_to_egress,
                self.available_instances,
            ]
        )


def build_parts(
    adapter: ObservationAdapter, decision: DecisionPoint, sim: Simulator
) -> ObservationParts:
    """The five observation components ``adapter`` observes for a
    pending decision; ``build_parts(...).concatenate()`` is bitwise what
    ``adapter.build(decision, sim)`` returns."""
    flow, node, now = decision.flow, decision.node, decision.time
    neighbors = adapter.network.neighbors(node)
    pad = adapter.degree - len(neighbors)
    return ObservationParts(
        flow_attributes=_flow_attributes(flow, now),
        link_utilization=_link_utilization(adapter, flow, node, neighbors, pad, sim),
        node_utilization=_node_utilization(adapter, flow, node, neighbors, pad, sim),
        delays_to_egress=_delays_to_egress(adapter, flow, node, neighbors, pad, now),
        available_instances=_available_instances(
            adapter, flow, node, neighbors, pad, sim
        ),
    )


def chain_progress(flow: Flow) -> float:
    """Chain progress ``p̂_f ∈ [0, 1]``: the share of the chain traversed."""
    if flow.component_index is None:
        return 1.0
    return flow.component_index / flow.chain_length


def _flow_attributes(flow: Flow, now: float) -> np.ndarray:
    """F_f = <p̂_f, τ̂_f>: chain progress and remaining time over the
    deadline, clipped at 0."""
    return np.array(
        [chain_progress(flow), max(0.0, flow.remaining_time(now) / flow.deadline)],
        dtype=np.float64,
    )


def _link_utilization(
    adapter: ObservationAdapter,
    flow: Flow,
    node: str,
    neighbors: List[str],
    pad: int,
    sim: Simulator,
) -> np.ndarray:
    """R^L_v: free rate minus λ_f per outgoing link, normalised by the
    largest outgoing-link capacity; >= 0 iff the link can carry f."""
    norm = max(adapter.network.max_link_capacity_at(node), 1e-12)
    values = [
        (sim.state.link_free(node, nb) - flow.data_rate) / norm for nb in neighbors
    ]
    values.extend([DUMMY] * pad)
    return np.clip(np.array(values, dtype=np.float64), -1.0, 1.0)


def _node_utilization(
    adapter: ObservationAdapter,
    flow: Flow,
    node: str,
    neighbors: List[str],
    pad: int,
    sim: Simulator,
) -> np.ndarray:
    """R^V_v: free compute minus r_c(λ_f) at v and each neighbor,
    normalised by the network-wide max node capacity; >= 0 iff the node
    could process f's requested component."""
    if flow.fully_processed:
        demand = 0.0
    else:
        service = adapter.catalog.service(flow.service)
        component = service.component_at(flow.component_index)
        demand = component.resources(flow.data_rate)
    norm = max(adapter.network.max_node_capacity, 1e-12)
    values = [(sim.state.node_free(v) - demand) / norm for v in [node] + neighbors]
    values.extend([DUMMY] * pad)
    return np.clip(np.array(values, dtype=np.float64), -1.0, 1.0)


def _delays_to_egress(
    adapter: ObservationAdapter,
    flow: Flow,
    node: str,
    neighbors: List[str],
    pad: int,
    now: float,
) -> np.ndarray:
    """D_{v,f}: per neighbor v', the margin of the remaining deadline
    over the shortest-path delay via v' to f's egress; < 0 means
    forwarding via v' cannot possibly meet the deadline."""
    network = adapter.network
    remaining = flow.remaining_time(now)
    values = []
    for nb in neighbors:
        via = network.link(node, nb).delay + network.shortest_path_delay(
            nb, flow.egress
        )
        if remaining <= 0 or not np.isfinite(via):
            values.append(-1.0)
        else:
            values.append(max(-1.0, (remaining - via) / remaining))
    values.extend([DUMMY] * pad)
    return np.array(values, dtype=np.float64)


def _available_instances(
    adapter: ObservationAdapter,
    flow: Flow,
    node: str,
    neighbors: List[str],
    pad: int,
    sim: Simulator,
) -> np.ndarray:
    """X_v: 1 where an instance of the requested component is placed at
    v / its neighbors (always 0 once the flow is fully processed)."""
    if flow.fully_processed:
        values = [0.0] * (1 + len(neighbors))
    else:
        service = adapter.catalog.service(flow.service)
        component = service.component_at(flow.component_index)
        values = [
            0.0 if sim.state.instance(v, component.name) is None else 1.0
            for v in [node] + neighbors
        ]
    values.extend([DUMMY] * pad)
    return np.array(values, dtype=np.float64)
