"""Reference all-pairs shortest paths: the oracle for ``Network``'s tables.

A string-keyed Dijkstra from every node whose heap breaks equal delays by
node name, and a next hop recovered by walking the parent chain back to
the source.  It reads the graph only through the public ``Network`` API,
so it checks the id-ordered tables the network builds for itself.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from typing import Dict, List, Optional, Tuple

from repro.topology.network import Network


def dijkstra(network: Network, source: str) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Shortest delays from ``source`` and each reached node's parent."""
    dist: Dict[str, float] = {source: 0.0}
    parent: Dict[str, str] = {}
    heap: List[Tuple[float, str]] = [(0.0, source)]
    done: set = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in network.neighbors(u):
            nd = d + network.link(u, v).delay
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def all_pairs(
    network: Network,
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, Dict[str, Optional[str]]]]:
    """``(dist, next_hop)`` for every ordered pair of nodes.

    Unreachable pairs have delay ``inf`` and next hop ``None``, as does
    every ``(v, v)`` next hop.
    """
    names = network.node_names
    dist: Dict[str, Dict[str, float]] = {}
    next_hop: Dict[str, Dict[str, Optional[str]]] = {}
    for source in names:
        d, parent = dijkstra(network, source)
        dist[source] = {t: d.get(t, math.inf) for t in names}
        hops: Dict[str, Optional[str]] = {t: None for t in names}
        for target in d:
            if target == source:
                continue
            current = target
            while parent[current] != source:
                current = parent[current]
            hops[target] = current
        next_hop[source] = hops
    return dist, next_hop


def shortest_path(network: Network, source: str, target: str) -> List[str]:
    """The node sequence ``network.next_hop`` routes from ``source`` to
    ``target``, both ends included; ``ValueError`` when ``target`` is
    unreachable."""
    if not math.isfinite(network.shortest_path_delay(source, target)):
        raise ValueError(f"{target!r} is unreachable from {source!r}")
    path = [source]
    while path[-1] != target:
        hop = network.next_hop(path[-1], target)
        assert hop is not None and len(path) <= network.num_nodes, path
        path.append(hop)
    return path


def is_connected(network: Network) -> bool:
    """True when the reference reaches every node from every other."""
    dist, _ = all_pairs(network)
    return all(math.isfinite(d) for row in dist.values() for d in row.values())


def assert_tables_match(network: Network) -> None:
    """``dist``, ``next_hop`` and ``diameter`` equal the reference
    exactly, tie-breaking included."""
    dist, next_hop = all_pairs(network)
    names = network.node_names
    for s in names:
        for t in names:
            got = network.shortest_path_delay(s, t)
            assert type(got) is float, (s, t, type(got))
            assert got == dist[s][t], (s, t, got, dist[s][t])
            assert network.next_hop(s, t) == next_hop[s][t], (s, t)
    finite = [d for row in dist.values() for d in row.values() if math.isfinite(d)]
    assert network.diameter == max(finite, default=0.0)


def network_digest(network: Network) -> str:
    """Digest of a network's capacities, delays, endpoints and path tables."""
    h = hashlib.sha256()
    names = network.node_names
    for name in names:
        h.update(f"{name}:{network.node(name).capacity!r};".encode())
    for link in network.links:
        h.update(f"{link.u}-{link.v}:{link.delay!r}:{link.capacity!r};".encode())
    for s in names:
        for t in names:
            h.update(f"{network.shortest_path_delay(s, t)!r}>{network.next_hop(s, t)};".encode())
    h.update(
        f"{network.diameter!r}|{is_connected(network)}|"
        f"{network.ingress}|{network.egress}".encode()
    )
    return h.hexdigest()[:16]
