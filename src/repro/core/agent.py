"""Distributed inference: one DRL agent per node (Fig. 4b).

After centralized training, the trained actor network is *copied to every
node* (Alg. 1 line 14).  Each node's agent then makes greedy decisions
(the actor's argmax; sampling is exploration during training only) for
flows arriving at that node using only local observations — its own and
its direct neighbors' state — in O(Δ_G) time, independent of network
size.

In this process the per-node copies are *logical*: inference never writes
a weight, so every node decides on one frozen snapshot held by the
:class:`DistributedCoordinator` and decides bit-for-bit as a private copy
would, while deployment costs one array copy whatever the network size.
A node's agent is the coordinator's decision for that node: the node's
local observation, then the snapshot's ``act_single``.  The snapshot's
actor is cast to float32 once; a decision is taken on that cast when a
certified error bound proves the float32 argmax is the float64 one, and
in float64 otherwise, so every action is the float64 action (DESIGN.md
§14).
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.invariants import InvariantViolation
from repro.core.observations import ObservationAdapter
from repro.rl.policy import ActorCriticPolicy
from repro.services.service import ServiceCatalog
from repro.sim.simulator import DecisionPoint, Simulator
from repro.topology.network import Network

__all__ = ["DistributedCoordinator"]


class DistributedCoordinator:
    """The per-node agents of a network; usable as a simulator policy.

    Construction takes **one** snapshot of ``policy`` — a copy decoupled
    from the trainer's live weights, every array marked read-only, its
    actor cast to float32 once — and exposes it as :attr:`policy`; every
    node decides on it.  A decision builds the node's observation
    straight into the input row of the snapshot's float64 workspace and
    returns the snapshot's :meth:`~repro.rl.policy.ActorCriticPolicy.act_single`
    on that row, so nothing is copied.  Nodes share no state that
    outlives a decision: the snapshot's two actor workspaces are
    overwritten by every decision, and ``write=False`` turns the one thing
    that could couple them (an in-place write to a deployed weight, e.g.
    an optimiser stepping the wrong object) into a ``ValueError`` at the
    write — which also keeps the float32 cast current.  One thread drives
    a coordinator.  Deployment cost and resident weights are therefore
    independent of network size, while decisions are those of the
    paper's one-network-per-node deployment.

    Under ``REPRO_CHECK_INVARIANTS`` every certified decision is
    re-decided in float64, and a disagreement raises
    :class:`~repro.analysis.invariants.InvariantViolation` naming the
    node.  ``policy.certified_workspace.fallbacks`` counts the decisions
    the float32 forward declined.

    Pickling keeps the sharing (one weight set per coordinator, whatever
    the node count) but numpy does not carry the read-only flag across,
    so the float32 cast stays behind and the far side decides in float64
    (the same actions).  Evaluation workers therefore never run a
    pickled coordinator: each builds its own from the pickled policy
    through ``partial(DistributedCoordinator, network, catalog, policy)``
    (``AlgorithmSuite.factories_for``, ``repro evaluate --policy``),
    which snapshots, freezes and casts again.

    Args:
        network: Substrate network (one agent per node).
        catalog: Services (needed by the observation adapter).
        policy: The trained policy selected by multi-seed training.
    """

    def __init__(
        self,
        network: Network,
        catalog: ServiceCatalog,
        policy: ActorCriticPolicy,
    ) -> None:
        self.network = network
        self.adapter = ObservationAdapter(network, catalog)
        if policy.obs_dim != self.adapter.size:
            raise ValueError(
                f"policy expects observations of size {policy.obs_dim}, but this "
                f"network's degree gives size {self.adapter.size}; train on a "
                "network with the same degree or retrain"
            )
        #: The deployment's frozen snapshot of the trained policy.
        self.policy = policy.clone().freeze()
        self._counts = dict.fromkeys(network.node_names, 0)

    def __call__(self, decision: DecisionPoint, sim: Simulator) -> int:
        """The greedy action of the agent at the decision's node."""
        self._counts[decision.node] += 1  # KeyError: not this network's node
        policy = self.policy
        rows = policy.workspace.input_rows(1)
        self.adapter.build(decision, sim, out=rows[0])
        try:
            return policy.act_single(rows)
        except InvariantViolation as violation:
            raise InvariantViolation(
                violation.message, node=decision.node, **violation.context
            ) from violation

    def decision_counts(self) -> Dict[str, int]:
        """Per-node decision counts (how evenly load spreads over agents)."""
        return dict(self._counts)
