"""Observation adapter: the local, partial observation of Sec. IV-B1.

Each DRL agent observes only the incoming flow, its own node, and its
direct neighbors:

    O = < F_f, R^L_v, R^V_v, D_{v,f}, X_v >

======  ============================  =========  ==========================
Part    Meaning                       Size       Range
======  ============================  =========  ==========================
F_f     flow progress + deadline      2          [0, 1]
R^L_v   free link rate per neighbor   Δ_G        [-1, 1] (dummy: -1)
R^V_v   free compute at v+neighbors   Δ_G + 1    [-1, 1] (dummy: -1)
D_v,f   egress reachability/neighbor  Δ_G        [-1, 1] (dummy: -1)
X_v     instance of c_f available?    Δ_G + 1    {0, 1}  (dummy: -1)
======  ============================  =========  ==========================

Total: ``4 Δ_G + 4``.  All agents share the same observation size — nodes
with fewer than Δ_G neighbors are padded with dummy entries of -1 — which
is what allows training a single network from all agents' experience.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.services.service import ServiceCatalog
from repro.sim.simulator import DecisionPoint, Simulator
from repro.topology.network import Network

__all__ = ["ObservationAdapter"]

#: Value marking dummy (non-existing) neighbors in padded observations.
DUMMY = -1.0


class ObservationAdapter:
    """Builds the paper's padded local observation vector for any node.

    Args:
        network: Substrate network (provides Δ_G, neighbor order, shortest
            path delays, capacity normalisers).
        catalog: Service catalog (resource demand of the requested
            component).
    """

    def __init__(self, network: Network, catalog: ServiceCatalog) -> None:
        self.network = network
        self.catalog = catalog
        self.degree = network.degree
        self.size = 4 * self.degree + 4
        # max_{v'' in V} cap_{v''}: node observations are normalised by the
        # network-wide maximum so agents can spot absolutely large nodes.
        self._max_node_capacity = max(network.max_node_capacity, 1e-12)
        # Cached neighbor tuples: build() assembles the row as a list of
        # python floats and writes it to its destination in one
        # assignment, instead of five parts plus their clipped/concatenated
        # intermediates.
        self._neighbors = {v: tuple(network.neighbors(v)) for v in network.node_names}
        # Integer gather tables per node, one dict lookup per build():
        # (degree k, combined gather ids, capacities as a python-float
        # tuple, link norm, self+neighbor node ids).  The combined ids
        # address NetworkState.loads_vector — k outgoing-link slots
        # followed by 1+k node slots — so one gather fetches every load
        # the observation needs; the arithmetic then runs on python floats
        # (via ``tolist``), which beats a pile of length-≤5 ufunc
        # dispatches while performing the exact same IEEE operations per
        # element as the scalar, one-part-at-a-time reference the tests
        # keep (tests/core/reference_observation.py).
        num_links = network.num_links
        self._node_tables: Dict[
            str, Tuple[int, np.ndarray, Tuple[float, ...], float, np.ndarray]
        ] = {
            v: (
                len(self._neighbors[v]),
                np.concatenate(
                    [
                        network.neighbor_link_ids(v),
                        network.self_and_neighbor_ids(v) + num_links,
                    ]
                ).astype(np.intp),
                tuple(network.neighbor_link_capacities(v).tolist())
                + tuple(network.self_and_neighbor_capacities(v).tolist()),
                max(network.max_link_capacity_at(v), 1e-12),
                network.self_and_neighbor_ids(v),
            )
            for v in network.node_names
        }
        # Scratch for effective capacities under fault injection; the
        # fault-free hot path never touches it (static cached caps).
        self._caps_scratch = np.empty(2 * self.degree + 1, dtype=np.float64)
        # Per-(node, egress) shortest-path-via-neighbor delays, filled
        # lazily on first use: build() then reads one cached tuple instead
        # of doing a dict lookup per neighbor per decision.  Each entry is
        # (via_delays as python floats, non_finite_indices_or_None).
        self._delay_via: Dict[
            Tuple[str, str], Tuple[Tuple[float, ...], Optional[Tuple[int, ...]]]
        ] = {}

    @property
    def part_slices(self) -> Dict[str, slice]:
        """Index ranges of the five parts inside the concatenated vector.

        Keys: ``flow``, ``links``, ``nodes``, ``delays``, ``instances``.
        Used by observation-ablation experiments to mask single parts.
        """
        d = self.degree
        return {
            "flow": slice(0, 2),
            "links": slice(2, 2 + d),
            "nodes": slice(2 + d, 3 + 2 * d),
            "delays": slice(3 + 2 * d, 3 + 3 * d),
            "instances": slice(3 + 3 * d, 4 + 4 * d),
        }

    # ------------------------------------------------------------------

    def _delays_via(
        self, node: str, egress: str
    ) -> Tuple[Tuple[float, ...], Optional[Tuple[int, ...]]]:
        """Cached ``link(node, nb).delay + spd(nb, egress)`` per neighbor,
        plus the indices of non-finite entries (unreachable egress), or
        None when all entries are finite (the common case)."""
        key = (node, egress)
        entry = self._delay_via.get(key)
        if entry is None:
            via = tuple(
                float(
                    self.network.link(node, nb).delay
                    + self.network.shortest_path_delay(nb, egress)
                )
                for nb in self._neighbors[node]
            )
            bad = tuple(j for j, value in enumerate(via) if not np.isfinite(value))
            entry = (via, bad if bad else None)
            self._delay_via[key] = entry
        return entry

    def build(
        self,
        decision: DecisionPoint,
        sim: Simulator,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Observation vector for a pending decision.

        Computed on python floats and written to the destination as one
        row, with no per-part arrays; bitwise the concatenation of the
        five parts computed one by one from their formulas (the oracle in
        ``tests/core/reference_observation.py``).

        One hand-off for every driver: the driver owns the destination
        row and ``build`` writes into it — the training runner's rollout
        storage, the lockstep evaluation runner's rows, and the input row
        ``policy.workspace.input_rows(1)[0]`` of a deployed
        ``DistributedCoordinator``'s snapshot.

        Args:
            out: Destination vector of shape ``(size,)``, written in place
                and returned.  Without it the result is a fresh array the
                caller owns (no adapter state is shared between calls).
        """
        now, flow, node = decision
        d = self.degree
        if out is None:
            out = np.empty(self.size, dtype=np.float64)
        elif out.shape != (self.size,):
            raise ValueError(
                f"observation out= must have shape ({self.size},), got {out.shape}"
            )
        state = sim.state
        k, combo_ids, caps, link_norm, sn_ids = self._node_tables[node]

        # One gather for every load this observation reads (k outgoing
        # links, then the 1+k self-and-neighbor nodes), converted to
        # python floats: the per-element arithmetic below is then plain
        # float math — the exact same IEEE ops, in the same order, as the
        # scalar reference the tests keep.
        loads = state.loads_vector[combo_ids].tolist()

        # Under fault injection the static capacity cache is replaced by
        # the state's *effective* capacities: a failed neighbor link/node
        # has capacity 0, so it reads as fully utilised (<= -λ̂ margin)
        # and agents learn to route around it.  Delay entries stay static
        # — topology knowledge, not load observation (Sec. IV-B1d).
        if sim.faults is not None:
            eff = self._caps_scratch[: 2 * k + 1]
            state.effective_link_capacities.take(combo_ids[:k], out=eff[:k])
            state.effective_node_capacities.take(sn_ids, out=eff[k:])
            caps = eff.tolist()

        spec = flow.spec
        ci = flow.component_index
        deadline = spec.deadline
        remaining = deadline - (now - spec.arrival_time)
        # Dummy entries for nodes below the maximum degree, appended after
        # each per-neighbor part.
        pad = [DUMMY] * (d - k)

        # The row is assembled as a list of python floats and written to
        # the target in one assignment at the end.
        # F_f = <p̂_f, τ̂_f>
        values = [
            1.0 if ci is None else ci / flow.chain_length,
            max(0.0, remaining / deadline),
        ]
        append = values.append

        # R^L_v: free rate minus λ_f per outgoing link, clipped to [-1, 1].
        rate = spec.data_rate
        for j in range(k):
            value = (caps[j] - loads[j] - rate) / link_norm
            append(-1.0 if value < -1.0 else (1.0 if value > 1.0 else value))
        values += pad

        # R^V_v: free compute minus r_c(λ_f) at v and neighbors, clipped.
        component_name: Optional[str]
        if ci is None:
            component_name = None
            demand = 0.0
        else:
            service = flow.service_obj
            if service is not None and flow.demands is not None:
                component_name = service.components[ci].name
                demand = flow.demands[ci]
            else:
                service = self.catalog.service(flow.service)
                component = service.component_at(ci)
                component_name = component.name
                demand = component.resources(rate)
        node_norm = self._max_node_capacity
        for j in range(k, 2 * k + 1):
            value = (caps[j] - loads[j] - demand) / node_norm
            append(-1.0 if value < -1.0 else (1.0 if value > 1.0 else value))
        values += pad

        # D_{v,f}: deadline margin via each neighbor (no upper clip).
        if remaining <= 0:
            values += [-1.0] * k
        else:
            via, bad = self._delays_via(node, spec.egress)
            if bad is None:
                for delay in via:
                    value = (remaining - delay) / remaining
                    append(-1.0 if value < -1.0 else value)
            else:
                for j in range(k):
                    value = (remaining - via[j]) / remaining
                    append(-1.0 if j in bad or value < -1.0 else value)
        values += pad

        # X_v: instance of the requested component at v / neighbors, read
        # as one gather from the state's per-component presence vector.
        presence = (
            state.instance_presence(component_name)
            if component_name is not None
            else None
        )
        if presence is None:
            values += [0.0] * (1 + k)
        else:
            values += presence[sn_ids].tolist()
        values += pad

        out[:] = values
        return out
