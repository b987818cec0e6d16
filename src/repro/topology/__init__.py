"""Substrate network topologies: graph model, real-world zoo, generators."""

from repro.topology.network import (
    Link,
    Network,
    Node,
    TopologyStats,
    euclidean_delay,
    link_key,
)
from repro.topology.zoo import (
    TOPOLOGY_NAMES,
    table1_stats,
    topology_by_name,
)
from repro.topology.generators import (
    grid_network,
    random_geometric_network,
)

__all__ = [
    "Link",
    "Network",
    "Node",
    "TopologyStats",
    "euclidean_delay",
    "link_key",
    "TOPOLOGY_NAMES",
    "table1_stats",
    "topology_by_name",
    "grid_network",
    "random_geometric_network",
]
