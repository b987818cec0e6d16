"""Substrate network model.

The paper (Sec. III-A) models the substrate as an undirected graph
``G = (V, L)`` where every node has a generic compute capacity ``cap_v``
and every link has a propagation delay ``d_l`` and a maximum data rate
``cap_l`` shared across both directions.

:class:`Network` is the immutable *description* of such a graph: topology,
capacities, delays, ingress/egress designation, and derived quantities that
the DRL observation space needs (network degree ``Δ_G``, diameter ``D_G`` in
terms of path delay, all-pairs shortest path delays).  Mutable runtime state
(utilisation, placed instances) lives in :class:`repro.sim.state.NetworkState`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Node:
    """A substrate network node.

    Attributes:
        name: Unique node identifier, e.g. ``"v1"`` or ``"Seattle"``.
        capacity: Finite generic compute capacity ``cap_v >= 0``.  The total
            resource consumption of component instances processing flows at
            this node must never exceed it.
        position: Optional ``(x, y)`` coordinate used to derive link delays
            from geographic distance (as the paper does for Abilene).
    """

    name: str
    capacity: float = 1.0
    position: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        # Written so NaN fails too: it compares false with everything.
        if not 0 <= self.capacity < math.inf:
            raise ValueError(
                f"node {self.name!r}: capacity must be finite and >= 0, got {self.capacity}"
            )


@dataclass(frozen=True)
class Link:
    """An undirected substrate link between two nodes.

    Attributes:
        u: First endpoint (node name).
        v: Second endpoint (node name).
        delay: Finite propagation delay ``d_l >= 0`` (simulation time
            units; the paper uses milliseconds).
        capacity: Finite maximum data rate ``cap_l > 0`` shared in both
            directions.
    """

    u: str
    v: str
    delay: float = 1.0
    capacity: float = 1.0

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-loop on node {self.u!r} is not allowed")
        if not 0 <= self.delay < math.inf:
            raise ValueError(
                f"link ({self.u},{self.v}): delay must be finite and >= 0, got {self.delay}"
            )
        if not 0 < self.capacity < math.inf:
            raise ValueError(
                f"link ({self.u},{self.v}): capacity must be finite and > 0, "
                f"got {self.capacity}"
            )

    @property
    def key(self) -> Tuple[str, str]:
        """Canonical (sorted) endpoint pair identifying this undirected link."""
        return link_key(self.u, self.v)


def link_key(u: str, v: str) -> Tuple[str, str]:
    """Canonical undirected key for the link between ``u`` and ``v``."""
    return (u, v) if u <= v else (v, u)


class Network:
    """Immutable substrate network ``G = (V, L)``.

    Construction validates the graph (no duplicate nodes/links, endpoints
    exist, ingress/egress are real nodes) and precomputes everything the
    coordination algorithms need in O(1) at runtime:

    - sorted neighbor lists (the *a-th neighbor* of the action space),
    - network degree ``Δ_G`` (maximum number of neighbors of any node),
    - all-pairs shortest path delays and next-hop tables (two ``N x N``
      arrays by node id, one Dijkstra per source),
    - network diameter ``D_G`` in terms of path delay (used to normalise the
      link-delay penalty in the reward function).

    Args:
        name: Human-readable topology name (e.g. ``"Abilene"``).
        nodes: Node descriptions; names must be unique.
        links: Undirected links; at most one link per node pair.
        ingress: Names of ingress nodes ``V^in`` where flows may arrive.
        egress: Names of egress nodes ``V^eg`` where flows depart.
    """

    def __init__(
        self,
        name: str,
        nodes: Sequence[Node],
        links: Sequence[Link],
        ingress: Sequence[str] = (),
        egress: Sequence[str] = (),
    ) -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        for node in nodes:
            if node.name in self._nodes:
                raise ValueError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node

        self._links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {n: [] for n in self._nodes}
        for link in links:
            for endpoint in (link.u, link.v):
                if endpoint not in self._nodes:
                    raise ValueError(
                        f"link ({link.u},{link.v}) references unknown node {endpoint!r}"
                    )
            if link.key in self._links:
                raise ValueError(f"duplicate link between {link.u!r} and {link.v!r}")
            self._links[link.key] = link
            self._adjacency[link.u].append(link.v)
            self._adjacency[link.v].append(link.u)

        # Deterministic neighbor order: action a > 0 selects the a-th
        # neighbor, so the order must be stable across runs and identical
        # for training and inference.
        for neighbor_list in self._adjacency.values():
            neighbor_list.sort()

        for group, names in (("ingress", ingress), ("egress", egress)):
            for node_name in names:
                if node_name not in self._nodes:
                    raise ValueError(f"{group} node {node_name!r} is not in the network")
        self.ingress: Tuple[str, ...] = tuple(ingress)
        self.egress: Tuple[str, ...] = tuple(egress)

        self._degree: int = max((len(v) for v in self._adjacency.values()), default=0)
        self._build_index_tables()
        self._dist, self._next_hop = self._all_pairs_shortest_delay()
        finite = self._dist[np.isfinite(self._dist)]
        self._diameter: float = float(finite.max()) if finite.size else 0.0

    def _build_index_tables(self) -> None:
        """Integer-indexed views of the topology for the simulation hot path.

        Node and link ids follow insertion order; the per-node neighbor
        tables follow the sorted neighbor order (so position ``a - 1`` in
        every table corresponds to DRL action ``a``).  The runtime state
        (:class:`repro.sim.state.NetworkState`) keeps utilisation in flat
        arrays indexed by these ids, and the observation adapter gathers
        whole neighborhoods with one fancy index instead of per-neighbor
        dict lookups.
        """
        self._node_name_list: Tuple[str, ...] = tuple(self._nodes)
        self.node_index: Dict[str, int] = {
            name: i for i, name in enumerate(self._node_name_list)
        }
        self._link_key_list: Tuple[Tuple[str, str], ...] = tuple(self._links)
        self.link_index: Dict[Tuple[str, str], int] = {
            key: i for i, key in enumerate(self._link_key_list)
        }
        # Links first, then nodes: the layout of NetworkState.loads_vector.
        self._capacities = np.array(
            [link.capacity for link in self._links.values()]
            + [node.capacity for node in self._nodes.values()],
            dtype=np.float64,
        )
        idx = self.node_index
        #: Per-node ``(neighbor names, link delays, link ids)``, each
        #: aligned with the sorted neighbor order: everything the
        #: simulator needs to resolve a forwarding action, in one lookup.
        self._hop_table: Dict[
            str, Tuple[Tuple[str, ...], Tuple[float, ...], Tuple[int, ...]]
        ] = {}
        self._neighbor_link_ids: Dict[str, np.ndarray] = {}
        self._self_and_neighbor_ids: Dict[str, np.ndarray] = {}
        self._neighbor_link_caps: Dict[str, np.ndarray] = {}
        self._self_and_neighbor_caps: Dict[str, np.ndarray] = {}
        for name, adjacent in self._adjacency.items():
            node_ids = np.array([idx[nb] for nb in adjacent], dtype=np.intp)
            link_ids = [self.link_index[link_key(name, nb)] for nb in adjacent]
            self._neighbor_link_ids[name] = np.array(link_ids, dtype=np.intp)
            self._self_and_neighbor_ids[name] = np.concatenate(
                [np.array([idx[name]], dtype=np.intp), node_ids]
            )
            self._neighbor_link_caps[name] = self.link_capacities[
                self._neighbor_link_ids[name]
            ]
            self._self_and_neighbor_caps[name] = self.node_capacities[
                self._self_and_neighbor_ids[name]
            ]
            self._hop_table[name] = (
                tuple(adjacent),
                tuple(self._links[link_key(name, nb)].delay for nb in adjacent),
                tuple(link_ids),
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        """All node names in insertion order."""
        return list(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    @property
    def links(self) -> List[Link]:
        """All undirected links."""
        return list(self._links.values())

    def node(self, name: str) -> Node:
        """Return the node named ``name`` (KeyError if absent)."""
        return self._nodes[name]

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def link(self, u: str, v: str) -> Link:
        """Return the undirected link between ``u`` and ``v`` (KeyError if absent)."""
        return self._links[link_key(u, v)]

    def has_link(self, u: str, v: str) -> bool:
        return link_key(u, v) in self._links

    def neighbors(self, name: str) -> List[str]:
        """Sorted direct neighbors ``V_v`` of node ``name``.

        The index of a neighbor in this list (+1) is the DRL action that
        forwards a flow to it.
        """
        return list(self._adjacency[name])

    # ------------------------------------------------------------------
    # Integer-indexed hot-path accessors (see _build_index_tables)
    # ------------------------------------------------------------------

    @property
    def hop_table(
        self,
    ) -> Dict[str, Tuple[Tuple[str, ...], Tuple[float, ...], Tuple[int, ...]]]:
        """``node -> (neighbor names, link delays, link ids)``, each tuple
        in sorted-neighbor order (position ``a - 1`` is DRL action ``a``).

        The simulator resolves every forwarding action through one lookup
        here.  Treat as read-only.
        """
        return self._hop_table

    def node_name_at(self, node_id: int) -> str:
        """Node name for an integer node id (insertion order)."""
        return self._node_name_list[node_id]

    @property
    def capacities_vector(self) -> np.ndarray:
        """All capacities in one vector: link id ``i`` at slot ``i``, node
        id ``j`` at slot ``num_links + j``.  Treat as read-only."""
        return self._capacities

    @property
    def node_capacities(self) -> np.ndarray:
        """Node capacities indexed by node id, a view of
        :attr:`capacities_vector`.  Treat as read-only."""
        return self._capacities[len(self._links) :]

    @property
    def link_capacities(self) -> np.ndarray:
        """Link capacities indexed by link id, a view of
        :attr:`capacities_vector`.  Treat as read-only."""
        return self._capacities[: len(self._links)]

    def neighbor_link_ids(self, name: str) -> np.ndarray:
        """Link ids of ``name``'s incident links, in sorted-neighbor order."""
        return self._neighbor_link_ids[name]

    def self_and_neighbor_ids(self, name: str) -> np.ndarray:
        """Node ids of ``[name] + neighbors`` — the observation gather index."""
        return self._self_and_neighbor_ids[name]

    def neighbor_link_capacities(self, name: str) -> np.ndarray:
        """Capacities of ``name``'s incident links, aligned with neighbors."""
        return self._neighbor_link_caps[name]

    def self_and_neighbor_capacities(self, name: str) -> np.ndarray:
        """Node capacities of ``[name] + neighbors``."""
        return self._self_and_neighbor_caps[name]

    # ------------------------------------------------------------------
    # Derived quantities used by the POMDP
    # ------------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Network degree ``Δ_G``: maximum number of neighbors of any node.

        Sizes the (padded) observation vectors and the action space
        ``{0, ..., Δ_G}`` identically for every agent.
        """
        return self._degree

    @property
    def diameter(self) -> float:
        """Network diameter ``D_G`` in terms of shortest-path *delay*.

        Normalises the per-link delay penalty ``-d_l / D_G`` of the shaped
        reward.
        """
        return self._diameter

    @property
    def min_degree(self) -> int:
        return min((len(v) for v in self._adjacency.values()), default=0)

    @property
    def avg_degree(self) -> float:
        if not self._nodes:
            return 0.0
        return sum(len(v) for v in self._adjacency.values()) / len(self._nodes)

    @property
    def max_node_capacity(self) -> float:
        """``max_{v in V} cap_v`` — normalises node-utilisation observations."""
        return max((n.capacity for n in self._nodes.values()), default=0.0)

    def max_link_capacity_at(self, name: str) -> float:
        """``max_{l in L_v} cap_l`` — normalises link-utilisation observations."""
        caps = [self.link(name, nb).capacity for nb in self._adjacency[name]]
        return max(caps, default=0.0)

    def shortest_path_delay(self, source: str, target: str) -> float:
        """Shortest-path delay from ``source`` to ``target``.

        Returns ``math.inf`` when ``target`` is unreachable (``KeyError``
        for a name not in the network).  Precomputed at
        construction (the paper assumes a fixed topology so path delays can
        be computed once and accessed in constant time, Sec. IV-B1d).
        """
        return self._dist.item(self.node_index[source], self.node_index[target])

    def next_hop(self, source: str, target: str) -> Optional[str]:
        """First hop on a delay-shortest path from ``source`` to ``target``.

        Returns ``None`` when ``source == target`` or ``target`` is
        unreachable (``KeyError`` for a name not in the network).  Among equal-delay routes the one whose last
        predecessor of ``target`` Dijkstra settles first, ordered by
        ``(delay from source, name)``, wins: ties are *not* broken by the
        first hop's name.
        """
        hop = self._next_hop.item(self.node_index[source], self.node_index[target])
        return None if hop < 0 else self._node_name_list[hop]

    def stats(self) -> "TopologyStats":
        """Topology statistics as reported in Table I of the paper."""
        return TopologyStats(
            name=self.name,
            nodes=self.num_nodes,
            edges=self.num_links,
            min_degree=self.min_degree,
            max_degree=self.degree,
            avg_degree=self.avg_degree,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _all_pairs_shortest_delay(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dijkstra from every node over link delays.

        Returns ``(dist, next_hop)``, two ``N x N`` arrays indexed by node
        id: ``dist[u, v]`` is the shortest delay (``inf`` if unreachable)
        and ``next_hop[u, v]`` the id of the first hop from ``u`` towards
        ``v`` (``-1`` if none).

        The search numbers the nodes by rank in sorted-name order, so its
        ``(delay, rank)`` heap pops equal delays by name.  A node's first
        hop is set whenever it is relaxed: the node itself next to the
        source, else the first hop of the node relaxing it, which is
        already settled and so final.
        """
        names = sorted(self._node_name_list)
        n = len(names)
        rank = {name: r for r, name in enumerate(names)}
        adjacency = [
            [(rank[nb], delay) for nb, delay in zip(*self._hop_table[name][:2])]
            for name in names
        ]
        # Rank-ordered rows go out in node-id order: column i of a row is
        # entry ranks[i]; a hop rank r becomes node id node_id[r].
        ranks = np.array([rank[name] for name in self._node_name_list], dtype=np.intp)
        node_id = np.full(n + 1, -1, dtype=np.intp)
        node_id[ranks] = np.arange(n)
        dist = np.empty((n, n), dtype=np.float64)
        next_hop = np.empty((n, n), dtype=np.intp)
        push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace
        unreached = [math.inf] * n
        no_hop = [-1] * n
        for source in range(n):
            d = unreached.copy()
            first = no_hop.copy()
            d[source] = 0.0
            heap: List[Tuple[float, int]] = []
            for v, delay in adjacency[source]:
                d[v] = delay
                first[v] = v
                heap.append((delay, v))
            heapq.heapify(heap)
            while heap:
                du, u = heap[0]
                if du > d[u]:  # superseded by a shorter push
                    pop(heap)
                    continue
                via = first[u]
                on_top = True  # u's entry: the first push replaces it
                for v, delay in adjacency[u]:
                    nd = du + delay
                    if nd < d[v]:
                        d[v] = nd
                        first[v] = via
                        if on_top:
                            replace(heap, (nd, v))
                            on_top = False
                        else:
                            push(heap, (nd, v))
                if on_top:
                    pop(heap)
            row = node_id[source]
            dist[row] = np.array(d)[ranks]
            next_hop[row] = node_id[np.array(first)[ranks]]
        return dist, next_hop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.name!r}, nodes={self.num_nodes}, links={self.num_links}, "
            f"degree={self.degree})"
        )


@dataclass(frozen=True)
class TopologyStats:
    """Row of Table I: size and degree statistics of a topology."""

    name: str
    nodes: int
    edges: int
    min_degree: int
    max_degree: int
    avg_degree: float

    def as_row(self) -> Tuple[str, int, int, str]:
        """Render as (network, nodes, edges, "min / max / avg") like Table I."""
        return (
            self.name,
            self.nodes,
            self.edges,
            f"{self.min_degree} / {self.max_degree} / {self.avg_degree:.2f}",
        )


def euclidean_delay(
    position_a: Tuple[float, float],
    position_b: Tuple[float, float],
    delay_per_unit: float = 1.0,
    minimum: float = 1.0,
) -> float:
    """Derive a link delay from the distance between two node positions.

    The paper derives Abilene link delays from the geographic distance
    between connected cities.  ``delay_per_unit`` scales distance to
    simulation time units and ``minimum`` bounds the delay away from zero
    so that even co-located nodes cost a hop.
    """
    dx = position_a[0] - position_b[0]
    dy = position_a[1] - position_b[1]
    return max(minimum, math.hypot(dx, dy) * delay_per_unit)
