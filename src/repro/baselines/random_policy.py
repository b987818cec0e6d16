"""Uniform-random policy — a sanity floor for tests and ablations.

Not part of the paper's comparison, but useful: any learning algorithm
must comfortably beat it, and its episode statistics exercise every drop
path of the simulator (invalid actions included).
"""

from __future__ import annotations


import numpy as np

from repro.sim.simulator import DecisionPoint, Simulator
from repro.topology.network import Network

__all__ = ["RandomPolicy"]


class RandomPolicy:
    """Uniform over the full padded action space ``{0, ..., Δ_G}``.

    Args:
        network: Supplies the action-space size.
        seed: Reproducible sampling.
    """

    def __init__(self, network: Network, seed: int = 0) -> None:
        self.network = network
        self.rng = np.random.default_rng(seed)

    def __call__(self, decision: DecisionPoint, sim: Simulator) -> int:
        return int(self.rng.integers(self.network.degree + 1))
