"""Real-world topologies used in the paper's evaluation (Table I).

The paper evaluates on four topologies from the Internet Topology Zoo [9]:

===============  =====  =====  ========================
Network          Nodes  Edges  Degree (Min./Max./Avg.)
===============  =====  =====  ========================
Abilene          11     14     2 / 3  / 2.55
BT Europe        24     37     1 / 13 / 3.08
China Telecom    42     66     1 / 20 / 3.14
Interroute       110    158    1 / 7  / 2.87
===============  =====  =====  ========================

**Abilene** is embedded here with its real 11-node / 14-edge backbone and
(approximate) city coordinates; link delays are derived from inter-city
distance exactly as the paper describes.

**BT Europe, China Telecom, and Interroute** are *statistical
reconstructions*: the original GraphML files are not redistributable inside
this offline environment, so :func:`_reconstruct` builds deterministic
graphs that match the published node count, edge count, and min/max/avg
degree of Table I (including the heavy degree skew of China Telecom that
the paper calls out explicitly).  The scalability claims of Fig. 9 depend
only on these statistics — observation/action spaces are sized by the
maximum degree and inference cost by network size — so the reconstruction
preserves the behaviour the experiments measure.  See DESIGN.md,
"Substitutions".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.analysis.invariants import InvariantViolation
from repro.topology.network import Link, Network, Node, euclidean_delay, link_key

__all__ = [
    "abilene",
    "bt_europe",
    "china_telecom",
    "interroute",
    "topology_by_name",
    "topology_layout",
    "TopologyLayout",
    "TOPOLOGY_NAMES",
    "table1_stats",
]


@dataclass(frozen=True)
class TopologyLayout:
    """A topology before capacities: named, placed nodes and delayed links.

    Everything a zoo topology fixes by itself.  Capacities are the
    scenario's to choose, so :meth:`network` takes them and builds the one
    :class:`Network` (and its all-pairs tables) per capacity assignment.

    Attributes:
        name: Topology name, e.g. ``"Abilene"``.
        nodes: ``(name, position)`` per node, in node-id order.
        links: ``(u, v, delay)`` per undirected link, in link-id order.
    """

    name: str
    nodes: Tuple[Tuple[str, Tuple[float, float]], ...]
    links: Tuple[Tuple[str, str, float], ...]

    @property
    def node_names(self) -> List[str]:
        return [name for name, _ in self.nodes]

    @property
    def link_keys(self) -> List[Tuple[str, str]]:
        return [link_key(u, v) for u, v, _ in self.links]

    def network(
        self,
        node_capacity: Callable[[str], float],
        link_capacity: Callable[[str, str], float],
        ingress: Sequence[str],
        egress: Sequence[str],
    ) -> Network:
        """The capacitated network: ``cap_v = node_capacity(v)`` and
        ``cap_l = link_capacity(u, v)``."""
        nodes = [Node(n, capacity=node_capacity(n), position=pos) for n, pos in self.nodes]
        links = [
            Link(u, v, delay=delay, capacity=link_capacity(u, v))
            for u, v, delay in self.links
        ]
        return Network(self.name, nodes, links, ingress=ingress, egress=egress)


# ---------------------------------------------------------------------------
# Abilene (real topology)
# ---------------------------------------------------------------------------

# (paper node id, city, (lon, lat)).  The mapping of v1..v11 to cities is
# chosen to satisfy the constraints stated in Sec. V-B: ingresses v1-v3 are
# co-located (US west coast) so their shortest paths to the egress overlap,
# while v4 and v5 are farther away with non-overlapping shortest paths, and
# v8 is the single egress.
_ABILENE_CITIES: List[Tuple[str, str, Tuple[float, float]]] = [
    ("v1", "Seattle", (-122.3, 47.6)),
    ("v2", "Sunnyvale", (-122.0, 37.4)),
    ("v3", "LosAngeles", (-118.2, 34.1)),
    ("v4", "Chicago", (-87.6, 41.9)),
    ("v5", "NewYork", (-74.0, 40.7)),
    ("v6", "Denver", (-105.0, 39.7)),
    ("v7", "KansasCity", (-94.6, 39.1)),
    ("v8", "Atlanta", (-84.4, 33.7)),
    ("v9", "Houston", (-95.4, 29.8)),
    ("v10", "Indianapolis", (-86.2, 39.8)),
    ("v11", "WashingtonDC", (-77.0, 38.9)),
]

# The 14 links of the Abilene backbone, by city.
_ABILENE_EDGES: List[Tuple[str, str]] = [
    ("Seattle", "Sunnyvale"),
    ("Seattle", "Denver"),
    ("Sunnyvale", "LosAngeles"),
    ("Sunnyvale", "Denver"),
    ("LosAngeles", "Houston"),
    ("Denver", "KansasCity"),
    ("KansasCity", "Houston"),
    ("KansasCity", "Indianapolis"),
    ("Houston", "Atlanta"),
    ("Chicago", "Indianapolis"),
    ("Chicago", "NewYork"),
    ("Indianapolis", "Atlanta"),
    ("Atlanta", "WashingtonDC"),
    ("NewYork", "WashingtonDC"),
]

# Scales lon/lat distance to link delay (ms).  Chosen so that the shortest
# ingress->egress path delay in the base scenario is ~6 ms, reproducing the
# paper's Fig. 7 regime: with 3 components x 5 ms processing, end-to-end
# delay along the shortest path is ~21 ms, so deadline 20 is infeasible and
# deadline 30 is feasible.
_ABILENE_DELAY_PER_DEGREE = 0.135
_ABILENE_MIN_DELAY = 0.5


def _abilene_layout() -> TopologyLayout:
    """The Abilene backbone (11 nodes, 14 edges) with distance-derived delays."""
    id_by_city = {city: vid for vid, city, _ in _ABILENE_CITIES}
    pos_by_id = {vid: pos for vid, _, pos in _ABILENE_CITIES}
    links = []
    for city_u, city_v in _ABILENE_EDGES:
        u, v = id_by_city[city_u], id_by_city[city_v]
        delay = euclidean_delay(
            pos_by_id[u],
            pos_by_id[v],
            delay_per_unit=_ABILENE_DELAY_PER_DEGREE,
            minimum=_ABILENE_MIN_DELAY,
        )
        links.append((u, v, delay))
    nodes = tuple((vid, pos) for vid, _, pos in _ABILENE_CITIES)
    return TopologyLayout("Abilene", nodes, tuple(links))


def abilene(
    node_capacity: Callable[[str], float] = lambda name: 1.0,
    link_capacity: Callable[[str, str], float] = lambda u, v: 1.0,
    ingress: Sequence[str] = ("v1",),
    egress: Sequence[str] = ("v8",),
) -> Network:
    """The Abilene backbone (11 nodes, 14 edges) with distance-derived delays.

    Args:
        node_capacity: ``cap_v`` per node id (paper: uniform in [0, 2]).
        link_capacity: ``cap_l`` per node-id pair (paper: uniform in [1, 5]).
        ingress: Ingress set (paper varies v1..v5).
        egress: Egress set (paper uses v8).
    """
    return _abilene_layout().network(node_capacity, link_capacity, ingress, egress)


# ---------------------------------------------------------------------------
# Statistical reconstructions (BT Europe, China Telecom, Interroute)
# ---------------------------------------------------------------------------


def _reconstruct(
    name: str,
    num_nodes: int,
    num_edges: int,
    max_degree: int,
    seed: int,
    delay_per_unit: float = 0.08,
) -> TopologyLayout:
    """Deterministically lay out a connected graph matching Table I statistics.

    Strategy: grow a spanning tree by preferential attachment (capped at
    ``max_degree``) to produce the hub-dominated degree skew of real ISP
    backbones, force the primary hub to reach exactly ``max_degree``, then
    add the remaining edges between geometrically close nodes, always
    keeping at least one degree-1 leaf so the published minimum degree of 1
    holds.  The spanning tree makes the graph connected by construction.
    """
    if num_edges < num_nodes - 1:
        raise ValueError("need at least num_nodes - 1 edges for connectivity")
    rng = random.Random(seed)
    names = [f"v{i + 1}" for i in range(num_nodes)]
    positions: Dict[str, Tuple[float, float]] = {
        n: (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for n in names
    }
    degree: Dict[str, int] = {n: 0 for n in names}
    edges: set = set()

    def add_edge(u: str, v: str) -> None:
        key = (u, v) if u <= v else (v, u)
        if key in edges or u == v:
            raise InvariantViolation(
                "generator proposed a duplicate edge or self-loop",
                edge=key,
            )
        edges.add(key)
        degree[u] += 1
        degree[v] += 1

    # 1) Spanning tree via capped preferential attachment.  Attaching each
    # new node to an existing node with probability proportional to
    # (degree + 1) concentrates edges on early hubs.
    for i, node in enumerate(names[1:], start=1):
        candidates = [m for m in names[:i] if degree[m] < max_degree]
        weights = [degree[m] + 1.0 for m in candidates]
        target = rng.choices(candidates, weights=weights, k=1)[0]
        add_edge(node, target)

    # 2) Force the hub (highest-degree node) up to exactly max_degree so the
    # reconstruction reproduces the published maximum.  We keep the node
    # with the globally lowest degree as an untouchable leaf so that the
    # published minimum degree of 1 survives step 3.
    hub = max(names, key=lambda n: (degree[n], n))
    leaf = min(names, key=lambda n: (degree[n], n))

    def connectable(u: str, v: str) -> bool:
        if u == v or leaf in (u, v):
            return False
        key = (u, v) if u <= v else (v, u)
        return key not in edges and degree[u] < max_degree and degree[v] < max_degree

    others = [n for n in names if n != hub]
    rng.shuffle(others)
    for candidate in others:
        if len(edges) >= num_edges or degree[hub] >= max_degree:
            break
        if connectable(hub, candidate):
            add_edge(hub, candidate)

    # 3) Fill to the published edge count, preferring short (geometrically
    # close) pairs as real backbones do.
    def distance(u: str, v: str) -> float:
        (x1, y1), (x2, y2) = positions[u], positions[v]
        return math.hypot(x1 - x2, y1 - y2)

    attempts = 0
    while len(edges) < num_edges:
        attempts += 1
        if attempts > 100 * num_edges:
            raise RuntimeError(
                f"could not reconstruct {name}: edge fill did not converge"
            )
        u = rng.choice(names)
        if degree[u] >= max_degree or u == leaf:
            continue
        nearby = sorted(
            (v for v in names if connectable(u, v)),
            key=lambda v: distance(u, v),
        )[:6]
        if not nearby:
            continue
        add_edge(u, rng.choice(nearby))

    if max(degree.values()) != max_degree:
        raise RuntimeError(
            f"reconstruction of {name} reached max degree {max(degree.values())}, "
            f"expected {max_degree}"
        )
    links = tuple(
        (
            u,
            v,
            euclidean_delay(
                positions[u], positions[v], delay_per_unit=delay_per_unit, minimum=0.5
            ),
        )
        for u, v in sorted(edges)
    )
    return TopologyLayout(name, tuple((n, positions[n]) for n in names), links)


def bt_europe(
    node_capacity: Callable[[str], float] = lambda name: 1.0,
    link_capacity: Callable[[str, str], float] = lambda u, v: 1.0,
    ingress: Sequence[str] = ("v1", "v2"),
    egress: Sequence[str] = ("v8",),
) -> Network:
    """BT Europe reconstruction: 24 nodes, 37 edges, degree 1/13/3.08."""
    return topology_layout("BT Europe").network(
        node_capacity, link_capacity, ingress, egress
    )


def china_telecom(
    node_capacity: Callable[[str], float] = lambda name: 1.0,
    link_capacity: Callable[[str, str], float] = lambda u, v: 1.0,
    ingress: Sequence[str] = ("v1", "v2"),
    egress: Sequence[str] = ("v8",),
) -> Network:
    """China Telecom reconstruction: 42 nodes, 66 edges, degree 1/20/3.14.

    The paper highlights this network's highly skewed node degree, which
    inflates the padded observation/action spaces; the reconstruction
    reproduces the 20-neighbor hub.
    """
    return topology_layout("China Telecom").network(
        node_capacity, link_capacity, ingress, egress
    )


def interroute(
    node_capacity: Callable[[str], float] = lambda name: 1.0,
    link_capacity: Callable[[str, str], float] = lambda u, v: 1.0,
    ingress: Sequence[str] = ("v1", "v2"),
    egress: Sequence[str] = ("v8",),
) -> Network:
    """Interroute reconstruction: 110 nodes, 158 edges, degree 1/7/2.87."""
    return topology_layout("Interroute").network(
        node_capacity, link_capacity, ingress, egress
    )


TOPOLOGY_NAMES: Tuple[str, ...] = (
    "Abilene",
    "BT Europe",
    "China Telecom",
    "Interroute",
)

_LAYOUTS: Dict[str, Callable[[], TopologyLayout]] = {
    "Abilene": _abilene_layout,
    "BT Europe": lambda: _reconstruct("BT Europe", 24, 37, 13, seed=2021),
    "China Telecom": lambda: _reconstruct("China Telecom", 42, 66, 20, seed=2022),
    "Interroute": lambda: _reconstruct("Interroute", 110, 158, 7, seed=2023),
}

_FACTORIES = {
    "Abilene": abilene,
    "BT Europe": bt_europe,
    "China Telecom": china_telecom,
    "Interroute": interroute,
}


def _lookup(table: Dict[str, Callable], name: str) -> Callable:
    try:
        return table[name]
    except KeyError:
        raise KeyError(
            f"unknown topology {name!r}; available: {', '.join(TOPOLOGY_NAMES)}"
        ) from None


def topology_layout(name: str) -> TopologyLayout:
    """The layout of one of the four Table I topologies, by name.

    Raises ``KeyError`` with the valid names for typos.
    """
    return _lookup(_LAYOUTS, name)()


def topology_by_name(name: str, **kwargs) -> Network:
    """Build one of the four Table I topologies by name.

    Keyword arguments are forwarded to the factory (capacities, ingress,
    egress).  Raises ``KeyError`` with the valid names for typos.
    """
    return _lookup(_FACTORIES, name)(**kwargs)


def table1_stats() -> List:
    """Statistics of all four topologies, one row per Table I entry."""
    return [topology_by_name(name).stats() for name in TOPOLOGY_NAMES]
