"""Small hand-checkable networks the tests build their scenarios on.

Each is fully controlled: a line has one sensible route, a ring two, a
star the most skewed degrees and a triangle the smallest routing choice,
so expected simulator behaviour can be worked out by hand.  The
package's own generators (:mod:`repro.topology.generators`) are the
random geometric graphs and the grid.
"""

from __future__ import annotations

from typing import List

from repro.topology.network import Link, Network, Node

__all__ = ["line_network", "ring_network", "star_network", "triangle_network"]


def _names(n: int) -> List[str]:
    return [f"v{i + 1}" for i in range(n)]


def line_network(
    num_nodes: int,
    node_capacity: float = 1.0,
    link_capacity: float = 1.0,
    link_delay: float = 1.0,
) -> Network:
    """A path graph ``v1 - v2 - ... - vn`` with ingress v1 and egress vn.

    The simplest possible substrate: every flow has exactly one sensible
    route, which makes expected simulator behaviour easy to compute by hand
    in tests.
    """
    if num_nodes < 2:
        raise ValueError("line network needs at least 2 nodes")
    names = _names(num_nodes)
    nodes = [Node(n, capacity=node_capacity) for n in names]
    links = [
        Link(names[i], names[i + 1], delay=link_delay, capacity=link_capacity)
        for i in range(num_nodes - 1)
    ]
    return Network(
        f"line-{num_nodes}", nodes, links, ingress=[names[0]], egress=[names[-1]]
    )


def ring_network(
    num_nodes: int,
    node_capacity: float = 1.0,
    link_capacity: float = 1.0,
    link_delay: float = 1.0,
) -> Network:
    """A cycle ``v1 - v2 - ... - vn - v1``; two disjoint routes everywhere.

    Useful for testing load balancing: the clockwise and counter-clockwise
    paths compete, so an algorithm that can split traffic wins.
    """
    if num_nodes < 3:
        raise ValueError("ring network needs at least 3 nodes")
    names = _names(num_nodes)
    nodes = [Node(n, capacity=node_capacity) for n in names]
    links = [
        Link(names[i], names[(i + 1) % num_nodes], delay=link_delay, capacity=link_capacity)
        for i in range(num_nodes)
    ]
    return Network(
        f"ring-{num_nodes}", nodes, links,
        ingress=[names[0]], egress=[names[num_nodes // 2]],
    )


def star_network(
    num_leaves: int,
    node_capacity: float = 1.0,
    link_capacity: float = 1.0,
    link_delay: float = 1.0,
) -> Network:
    """A hub ``v1`` connected to ``num_leaves`` leaves.

    Maximally skewed degree distribution (hub degree = num_leaves, leaves
    degree 1) — a miniature of the China Telecom skew that stresses the
    observation padding.
    """
    if num_leaves < 2:
        raise ValueError("star network needs at least 2 leaves")
    names = _names(num_leaves + 1)
    nodes = [Node(n, capacity=node_capacity) for n in names]
    links = [
        Link(names[0], leaf, delay=link_delay, capacity=link_capacity)
        for leaf in names[1:]
    ]
    return Network(
        f"star-{num_leaves}", nodes, links, ingress=[names[1]], egress=[names[-1]]
    )


def triangle_network(
    node_capacity: float = 1.0,
    link_capacity: float = 1.0,
    link_delay: float = 1.0,
) -> Network:
    """The 3-node complete graph — the smallest network with a routing choice."""
    names = _names(3)
    nodes = [Node(n, capacity=node_capacity) for n in names]
    links = [
        Link(names[0], names[1], delay=link_delay, capacity=link_capacity),
        Link(names[1], names[2], delay=link_delay, capacity=link_capacity),
        Link(names[0], names[2], delay=link_delay, capacity=link_capacity),
    ]
    return Network("triangle", nodes, links, ingress=[names[0]], egress=[names[2]])
