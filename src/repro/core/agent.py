"""Distributed inference: one DRL agent per node (Fig. 4b).

After centralized training, the trained actor network is *copied to every
node* (Alg. 1 line 14).  Each :class:`NodeAgent` then makes greedy
decisions (the actor's argmax; sampling is exploration during training
only) for flows arriving at its node using only local observations — its
own and its direct neighbors' state — in O(Δ_G) time, independent of
network size.  The :class:`DistributedCoordinator` is the collection of these
agents and doubles as a simulator policy callable.

In this process the per-node copies are *logical*: inference never writes
a weight, so every agent reads one frozen snapshot held by the
coordinator and decides bit-for-bit as a private copy would, while
deployment costs one array copy whatever the network size (see
:class:`DistributedCoordinator`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.core.observations import ObservationAdapter
from repro.nn.mlp import MLPInference, resolve_eval_dtype
from repro.rl.policy import ActorCriticPolicy
from repro.services.service import ServiceCatalog
from repro.sim.simulator import DecisionPoint, Simulator
from repro.topology.network import Network

__all__ = ["NodeAgent", "DistributedCoordinator"]


class NodeAgent:
    """The DRL agent deployed at one network node.

    Reads the trained policy network it is given (under a
    :class:`DistributedCoordinator` that is the deployment's shared frozen
    snapshot — this node's logical copy of π_θ, Alg. 1 line 14) and owns
    its decision counter; the batch-1 workspace it decides in is the
    deployment's, not its own.  Its decision is the actor's greedy
    (argmax) action: sampling is exploration during training only.  All
    information it uses is local: the incoming flow's attributes and the
    state of the node and its direct neighbors.

    Args:
        node: The node this agent controls.
        policy: Trained actor-critic whose actor makes the decisions.
        adapter: Observation builder (shared, stateless).
        inference: The actor workspace ``act_single`` runs on.  ``None``
            (default) is ``policy.workspace``, the exact float64 path; a
            float32 :class:`~repro.nn.mlp.MLPInference` over
            ``policy.actor`` is the fast mode (last ulps may differ).
            Either way the observation is built straight into the
            workspace's input row and never copied, and the workspace is
            shared by every agent of the deployment: an agent holds no
            state in it between two ``act`` calls, which must not run
            concurrently (as before, when the agents shared the
            snapshot's ``MLP.forward`` caches).
    """

    def __init__(
        self,
        node: str,
        policy: ActorCriticPolicy,
        adapter: ObservationAdapter,
        inference: Optional[MLPInference] = None,
    ) -> None:
        self.node = node
        self.policy = policy
        self.adapter = adapter
        self._inference = inference
        #: Decisions taken by this agent (per-node load statistics).
        self.decisions_taken = 0

    def act(self, decision: DecisionPoint, sim: Simulator) -> int:
        """Select the action for a flow at this agent's node."""
        if decision.node != self.node:
            raise ValueError(
                f"agent at {self.node!r} asked to act for node {decision.node!r}"
            )
        inference = self._inference or self.policy.workspace
        rows = inference.input_rows(1)
        self.adapter.build(decision, sim, out=rows[0])
        self.decisions_taken += 1
        return self.policy.act_single(rows, inference=inference)


class DistributedCoordinator:
    """All per-node agents of a network; usable as a simulator policy.

    Construction takes **one** snapshot of ``policy`` — a copy decoupled
    from the trainer's live weights, every array marked read-only — and
    exposes it as :attr:`policy`; each node's agent references it.  The
    agents share no state that outlives a decision: counters are per
    agent, the one actor workspace (the snapshot's ``policy.workspace``,
    or one float32 cast) is overwritten by every decision, and
    ``write=False`` turns the one thing that could couple them (an
    in-place write to a deployed weight, e.g. an optimiser stepping the
    wrong object) into a ``ValueError`` at the write.  One thread drives a
    coordinator.  Deployment cost and resident weights are therefore
    independent of network size, while decisions are those of the paper's
    one-network-per-node deployment.

    Pickling keeps the sharing (one weight set per coordinator, whatever
    the node count) but numpy does not carry the read-only flag across;
    pool workers rebuild through :meth:`fresh`, which snapshots and
    freezes again.

    Args:
        network: Substrate network (one agent per node).
        catalog: Services (needed by the observation adapter).
        policy: The trained policy selected by multi-seed training.
        dtype: Inference dtype (``"f64"``/``"f32"`` or a numpy dtype).
            Float64 is the bit-exact default; float32 casts the snapshot's
            actor once into a workspace all agents decide in — see
            :class:`NodeAgent`.
    """

    def __init__(
        self,
        network: Network,
        catalog: ServiceCatalog,
        policy: ActorCriticPolicy,
        dtype: Any = np.float64,
    ) -> None:
        self.network = network
        self.dtype = resolve_eval_dtype(dtype)
        self.adapter = ObservationAdapter(network, catalog)
        if policy.obs_dim != self.adapter.size:
            raise ValueError(
                f"policy expects observations of size {policy.obs_dim}, but this "
                f"network's degree gives size {self.adapter.size}; train on a "
                "network with the same degree or retrain"
            )
        #: The deployment's frozen snapshot of the trained policy.
        self.policy = policy.clone().freeze()
        inference = (
            None
            if self.dtype == np.dtype(np.float64)
            else self.policy.actor_inference(dtype=self.dtype)
        )
        self.agents: Dict[str, NodeAgent] = {
            node: NodeAgent(node, self.policy, self.adapter, inference=inference)
            for node in network.node_names
        }

    def __call__(self, decision: DecisionPoint, sim: Simulator) -> int:
        """Route the decision to the agent at the decision's node."""
        return self.agents[decision.node].act(decision, sim)

    def fresh(self) -> "DistributedCoordinator":
        """A new coordinator over the same trained weights (its own frozen
        snapshot) with reset decision counters."""
        return DistributedCoordinator(
            self.network, self.adapter.catalog, self.policy, dtype=self.dtype
        )

    def decision_counts(self) -> Dict[str, int]:
        """Per-node decision counts (how evenly load spreads over agents)."""
        return {node: agent.decisions_taken for node, agent in self.agents.items()}
