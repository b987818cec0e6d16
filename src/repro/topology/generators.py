"""Synthetic topology generators for examples and scaling studies.

They complement :mod:`repro.topology.zoo` (the paper's real-world
topologies): a connected random geometric graph of any size, and a
regular grid whose all-pairs tables have many equal-delay ties.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.analysis.invariants import InvariantViolation
from repro.topology.network import Link, Network, Node

__all__ = [
    "grid_network",
    "random_geometric_network",
]

#: Link delay per unit of plane distance in :func:`random_geometric_network`
#: (a link's delay is at least 0.5).
_DELAY_PER_UNIT = 0.05


def _names(n: int) -> List[str]:
    return [f"v{i + 1}" for i in range(n)]


def grid_network(
    rows: int,
    cols: int,
    node_capacity: float = 1.0,
    link_capacity: float = 1.0,
    link_delay: float = 1.0,
) -> Network:
    """A ``rows x cols`` 4-neighbor mesh; many equal-length path choices."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least 2 nodes")
    nodes = []
    links = []

    def name(r: int, c: int) -> str:
        return f"v{r * cols + c + 1}"

    for r in range(rows):
        for c in range(cols):
            nodes.append(Node(name(r, c), capacity=node_capacity, position=(float(c), float(r))))
            if c + 1 < cols:
                links.append(Link(name(r, c), name(r, c + 1), delay=link_delay, capacity=link_capacity))
            if r + 1 < rows:
                links.append(Link(name(r, c), name(r + 1, c), delay=link_delay, capacity=link_capacity))
    return Network(
        f"grid-{rows}x{cols}", nodes, links,
        ingress=[name(0, 0)], egress=[name(rows - 1, cols - 1)],
    )


def random_geometric_network(
    num_nodes: int,
    radius: float = 35.0,
    seed: int = 0,
    node_capacity_range: Sequence[float] = (0.0, 2.0),
    link_capacity_range: Sequence[float] = (1.0, 5.0),
    ingress: Optional[Sequence[str]] = None,
    egress: Optional[Sequence[str]] = None,
) -> Network:
    """A connected random geometric graph on a 100x100 plane.

    Nodes are placed uniformly at random; any pair within ``radius`` is
    linked.  If the result is disconnected, each stranded component is
    attached to its geometrically nearest outside node, so the function
    always returns a connected network.  Capacities follow the paper's base
    scenario distributions by default (node capacity U[0,2], link capacity
    U[1,5]).
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = random.Random(seed)
    names = _names(num_nodes)
    positions = {n: (rng.uniform(0, 100), rng.uniform(0, 100)) for n in names}

    def dist(u: str, v: str) -> float:
        (x1, y1), (x2, y2) = positions[u], positions[v]
        return ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5

    edges = set()
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            if dist(u, v) <= radius:
                edges.add((u, v) if u <= v else (v, u))

    # Connect stranded components through their nearest cross-component pair.
    parent = {n: n for n in names}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    for u, v in edges:
        union(u, v)
    while len({find(n) for n in names}) > 1:
        roots: dict = {}
        for n in names:
            roots.setdefault(find(n), []).append(n)
        components = list(roots.values())
        best = None
        for u in components[0]:
            for comp in components[1:]:
                for v in comp:
                    d = dist(u, v)
                    if best is None or d < best[0]:
                        best = (d, u, v)
        if best is None:
            raise InvariantViolation(
                "disconnected components left with no candidate bridge edge"
            )
        _, u, v = best
        edges.add((u, v) if u <= v else (v, u))
        union(u, v)

    lo_n, hi_n = node_capacity_range
    lo_l, hi_l = link_capacity_range
    nodes = [
        Node(n, capacity=rng.uniform(lo_n, hi_n), position=positions[n]) for n in names
    ]
    links = [
        Link(
            u, v,
            delay=max(0.5, dist(u, v) * _DELAY_PER_UNIT),
            capacity=rng.uniform(lo_l, hi_l),
        )
        for u, v in sorted(edges)
    ]
    return Network(
        f"geometric-{num_nodes}", nodes, links,
        ingress=list(ingress) if ingress else [names[0]],
        egress=list(egress) if egress else [names[-1]],
    )
