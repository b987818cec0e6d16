"""Mutable runtime state of the substrate network.

Tracks, at any simulation instant:

- **node load** ``r_v(t)`` — total resources consumed by flows currently
  processed at each node (must stay <= ``cap_v``),
- **link load** ``r_l(t)`` — total data rate of flows currently traversing
  each link in either direction (must stay <= ``cap_l``),
- **placed instances** ``x_{c,v}(t)`` — which components have an instance
  at which node, when each instance last processed a flow (for idle
  timeout) and when it becomes ready (startup delay).

Loads live in flat float64 arrays indexed by the network's integer node
and link ids (see ``Network._build_index_tables``): allocations update one
array slot incrementally, and the observation adapter gathers whole
neighborhoods with a single fancy index instead of per-neighbor dict
lookups.  The name-based query API (``node_load(name)`` etc.) is kept for
baselines and tests.

Allocations are explicit records so that a flow that is dropped mid-flight
(deadline expiry) can release everything it still holds, and so the later
scheduled release events turn into no-ops instead of double-releasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.invariants import InvariantViolation, check
from repro.topology.network import Network, link_key

__all__ = ["Allocation", "InstanceState", "NetworkState", "CapacityError"]


class CapacityError(Exception):
    """Raised when an allocation would exceed a node or link capacity."""


@dataclass(slots=True)
class Allocation:
    """One resource hold: ``amount`` on a node or link until released.

    Attributes:
        kind: ``"node"`` or ``"link"``.
        key: Node name, or canonical link key tuple.
        amount: Resources (node) or data rate (link) held.
        flow_id: Flow holding the allocation.
        index: Integer node/link id of ``key`` in the network's index
            tables; release() updates the load array at it.
        released: Set once released; further releases are no-ops.
    """

    kind: str
    key: Union[str, Tuple[str, str]]
    amount: float
    flow_id: int
    index: int
    released: bool = False


@dataclass(slots=True)
class InstanceState:
    """Runtime state of one component instance at one node.

    Attributes:
        node: Hosting node.
        component: Component name.
        ready_at: Simulation time at which the instance finished starting
            up (flows scheduled before that wait).
        busy_flows: Number of flows currently being processed / resident.
        idle_since: Time the instance last became idle (None while busy).
    """

    node: str
    component: str
    ready_at: float
    busy_flows: int = 0
    idle_since: Optional[float] = None


class NetworkState:
    """Mutable utilisation + placement state over a fixed :class:`Network`."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._node_index = network.node_index
        self._link_index = network.link_index
        # Names by integer id (both index dicts are in id order): the
        # allocation records carry the name next to the id.
        self._node_names: Tuple[str, ...] = tuple(self._node_index)
        self._link_keys: Tuple[Tuple[str, str], ...] = tuple(self._link_index)
        # Effective capacities live in one links-then-nodes vector that
        # mirrors :attr:`loads_vector`, with private per-kind views (as
        # the loads have).  It starts out
        # *aliasing* the network's static vector;
        # :meth:`enable_capacity_overrides` swaps in a private copy so
        # fault injection can mask entries without touching the shared
        # topology.  Invariant checks always compare against the base
        # arrays: a degradation may legitimately strand load above the
        # (reduced) effective capacity, never above the base one.
        self._base_caps = network.capacities_vector
        self._base_node_caps = network.node_capacities
        self._base_link_caps = network.link_capacities
        self._point_capacities(self._base_caps)
        # One backing buffer for all loads — links first, then nodes — so
        # the observation adapter can gather a whole neighborhood (links +
        # self-and-neighbor nodes) with a single fancy index into
        # :attr:`loads_vector`.  The per-kind arrays are views.
        self._loads = np.zeros(
            network.num_links + network.num_nodes, dtype=np.float64
        )
        self._link_loads = self._loads[: network.num_links]
        self._node_loads = self._loads[network.num_links :]
        self._instances: Dict[Tuple[str, str], InstanceState] = {}
        # Per-component instance-presence arrays (1.0 where an instance of
        # the component is placed, indexed by node id); created lazily on
        # the first placement of each component.  The observation adapter
        # reads X_v as one gather from these.
        self._presence: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Effective-capacity overrides (fault injection)
    # ------------------------------------------------------------------

    def _point_capacities(self, caps: np.ndarray) -> None:
        num_links = self.network.num_links
        self._caps = caps
        self._link_caps = caps[:num_links]
        self._node_caps = caps[num_links:]

    def enable_capacity_overrides(self) -> None:
        """Switch to a private, writable capacity vector.  Idempotent.

        Fault-free runs never call this, so their capacities stay the
        network's own (zero copies, bit-identical behaviour).
        """
        if self._caps is self._base_caps:
            self._point_capacities(self._base_caps.copy())

    def set_node_capacity_id(self, node_id: int, capacity: float) -> None:
        """Set the effective capacity of one node (requires overrides)."""
        if self._caps is self._base_caps:
            raise InvariantViolation(
                "capacity override before enable_capacity_overrides()",
                node_id=node_id,
            )
        self._node_caps[node_id] = capacity

    def set_link_capacity_id(self, link_id: int, capacity: float) -> None:
        """Set the effective capacity of one link (requires overrides)."""
        if self._caps is self._base_caps:
            raise InvariantViolation(
                "capacity override before enable_capacity_overrides()",
                link_id=link_id,
            )
        self._link_caps[link_id] = capacity

    @property
    def capacities_vector(self) -> np.ndarray:
        """Capacities as currently seen by admission, in
        :attr:`loads_vector`'s layout: link id ``i`` at slot ``i``, node
        id ``j`` at slot ``num_links + j``.  Treat as read-only."""
        return self._caps

    # ------------------------------------------------------------------
    # Load queries
    # ------------------------------------------------------------------

    @property
    def loads_vector(self) -> np.ndarray:
        """All loads in one vector: link id ``i`` at slot ``i``, node id
        ``j`` at slot ``num_links + j``.  Treat as read-only."""
        return self._loads

    def node_load(self, node: str) -> float:
        """Current total resource consumption ``r_v(t)`` at ``node``."""
        return float(self._node_loads[self._node_index[node]])

    def node_free(self, node: str) -> float:
        """Remaining compute capacity at ``node``."""
        i = self._node_index[node]
        return float(self._node_caps[i] - self._node_loads[i])

    def link_free(self, u: str, v: str) -> float:
        """Remaining data rate on the undirected link (u, v)."""
        i = self._link_index[link_key(u, v)]
        return float(self._link_caps[i] - self._link_loads[i])

    # ------------------------------------------------------------------
    # Allocation / release
    # ------------------------------------------------------------------

    def allocate_node_id(self, node_id: int, amount: float, flow_id: int) -> Allocation:
        """Reserve ``amount`` compute at node ``node_id`` for ``flow_id``.

        Raises :class:`CapacityError` when the node cannot hold it —
        callers translate that into a dropped flow, matching the paper's
        "when exceeding this capacity, flows ... are dropped".  Each array
        slot is read once with ``.item()`` and written once;
        the add and the comparisons in between run on Python floats,
        which are the same IEEE-754 doubles the ndarray ``+=`` operates
        on, so the stored loads are bitwise what in-place array
        arithmetic produces.
        """
        loads = self._node_loads
        load = loads.item(node_id)
        capacity = self._node_caps.item(node_id)
        new_load = load + amount
        # Small epsilon tolerates float accumulation across release/allocate
        # cycles; a genuinely over-capacity request still fails.
        if new_load > capacity + 1e-9:
            raise CapacityError(
                f"node {self._node_names[node_id]}: load {load:.4f} + {amount:.4f} "
                f"exceeds capacity {capacity:.4f}"
            )
        loads[node_id] = new_load
        return Allocation(
            "node", self._node_names[node_id], amount, flow_id, node_id
        )

    def allocate_link_id(self, link_id: int, rate: float, flow_id: int) -> Allocation:
        """Reserve ``rate`` on link ``link_id`` for ``flow_id``;
        :class:`CapacityError` if it is full."""
        loads = self._link_loads
        load = loads.item(link_id)
        capacity = self._link_caps.item(link_id)
        new_load = load + rate
        if new_load > capacity + 1e-9:
            raise CapacityError(
                f"link {self._link_keys[link_id]}: load {load:.4f} + {rate:.4f} "
                f"exceeds capacity {capacity:.4f}"
            )
        loads[link_id] = new_load
        return Allocation(
            "link", self._link_keys[link_id], rate, flow_id, link_id
        )

    def release(self, allocation: Allocation) -> None:
        """Release an allocation; idempotent (double release is a no-op)."""
        if allocation.released:
            return
        allocation.released = True
        kind = allocation.kind
        i = allocation.index
        if kind == "node":
            loads = self._node_loads
        elif kind == "link":
            loads = self._link_loads
        else:  # pragma: no cover - allocation kinds are fixed above
            raise ValueError(f"unknown allocation kind {kind!r}")
        load = loads.item(i) - allocation.amount
        # Clamp float dust so long simulations cannot drift negative.
        if -1e-9 < load < 0:
            load = 0.0
        loads[i] = load
        if not load >= 0:
            raise InvariantViolation(
                f"negative {kind} load after release",
                **{kind: allocation.key}, load=load,
                released=allocation.amount, flow_id=allocation.flow_id,
            )

    # ------------------------------------------------------------------
    # Instances (scaling & placement state x_{c,v})
    # ------------------------------------------------------------------

    def instance_presence(self, component: str) -> Optional[np.ndarray]:
        """Presence vector of ``component`` indexed by node id (1.0 where an
        instance is placed), or None when the component was never placed.
        Treat as read-only."""
        return self._presence.get(component)

    def instance(self, node: str, component: str) -> Optional[InstanceState]:
        return self._instances.get((node, component))

    def place_instance(self, node: str, component: str, now: float, startup_delay: float) -> InstanceState:
        """Place a new instance (scaling out); at most one per (node, component)."""
        key = (node, component)
        if key in self._instances:
            raise ValueError(f"instance of {component!r} already placed at {node!r}")
        inst = InstanceState(node=node, component=component, ready_at=now + startup_delay,
                             idle_since=now + startup_delay)
        self._instances[key] = inst
        presence = self._presence.get(component)
        if presence is None:
            presence = np.zeros(len(self._node_index), dtype=np.float64)
            self._presence[component] = presence
        presence[self._node_index[node]] = 1.0
        return inst

    def remove_instance(self, node: str, component: str, force: bool = False) -> int:
        """Remove an instance; returns its busy count at removal.

        Scale-in removal (``force=False``, the default) requires the
        instance to be idle.  ``force=True`` evicts a busy instance — the
        node-outage path — and the returned busy count tells the caller
        how many tail-leave sentinels are still in flight for it.
        """
        inst = self._instances.get((node, component))
        if inst is None:
            raise KeyError(f"no instance of {component!r} at {node!r}")
        if inst.busy_flows > 0 and not force:
            raise ValueError(
                f"cannot remove busy instance of {component!r} at {node!r} "
                f"({inst.busy_flows} flows resident)"
            )
        del self._instances[(node, component)]
        self._presence[component][self._node_index[node]] = 0.0
        return inst.busy_flows

    def instance_begin_flow(self, node: str, component: str) -> None:
        """Mark one more flow resident in the instance (it is now busy)."""
        inst = self._instances[(node, component)]
        inst.busy_flows += 1
        inst.idle_since = None

    def instance_end_flow(self, node: str, component: str, now: float) -> None:
        """Mark one flow as having fully left the instance."""
        inst = self._instances.get((node, component))
        if inst is None:
            # The instance may already have been force-removed; tolerate.
            return
        inst.busy_flows -= 1
        check(inst.busy_flows >= 0, "negative instance busy count",
              node=node, component=component, busy_flows=inst.busy_flows)
        if inst.busy_flows == 0:
            inst.idle_since = now

    @property
    def placed_instances(self) -> List[InstanceState]:
        """All currently placed instances."""
        return list(self._instances.values())

    def instances_at(self, node: str) -> List[InstanceState]:
        """All instances placed at ``node``."""
        return [inst for (n, _), inst in self._instances.items() if n == node]

    # ------------------------------------------------------------------
    # Invariant check (used by property-based tests and debug runs)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify capacity conservation: no load negative or above capacity.

        Vectorised over the load arrays so the sanitizer sweep
        (``REPRO_CHECK_INVARIANTS=1``) stays cheap even on large
        topologies; the detailed per-entry report is only assembled once a
        violation is found.

        Raises:
            InvariantViolation: A node/link load left ``[0, capacity]``,
                an instance has a negative busy count, or a presence
                vector disagrees with the instance table.
        """
        # Bounds are checked against the *base* capacities: a fault may
        # shrink the effective capacity below load already admitted (that
        # load drains naturally), but load above the physical capacity is
        # always a bug.
        node_loads, link_loads = self._node_loads, self._link_loads
        node_caps, link_caps = self._base_node_caps, self._base_link_caps
        if np.any(node_loads < -1e-9) or np.any(node_loads > node_caps + 1e-6):
            for node, i in self._node_index.items():
                check(-1e-9 <= node_loads[i] <= node_caps[i] + 1e-6,
                      "node load outside capacity bounds",
                      node=node, load=float(node_loads[i]),
                      capacity=float(node_caps[i]))
        if np.any(link_loads < -1e-9) or np.any(link_loads > link_caps + 1e-6):
            for key, i in self._link_index.items():
                check(-1e-9 <= link_loads[i] <= link_caps[i] + 1e-6,
                      "link load outside capacity bounds",
                      link=key, load=float(link_loads[i]),
                      capacity=float(link_caps[i]))
        for (node, comp), inst in self._instances.items():
            check(inst.busy_flows >= 0, "negative instance busy count",
                  node=node, component=comp, busy_flows=inst.busy_flows)
        for comp, presence in self._presence.items():
            placed = {n for (n, c) in self._instances if c == comp}
            marked = {
                self.network.node_name_at(i)
                for i in np.nonzero(presence)[0]
            }
            check(placed == marked,
                  "instance presence vector out of sync with instance table",
                  component=comp, placed=sorted(placed), marked=sorted(marked))
