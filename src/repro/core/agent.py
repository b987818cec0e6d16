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
:class:`DistributedCoordinator`).  The snapshot's actor is cast to
float32 once; an agent decides on that cast when a certified error bound
proves the float32 argmax is the float64 one, and in float64 otherwise,
so every action is the float64 action (DESIGN.md §14).
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.invariants import invariants_enabled
from repro.core.observations import ObservationAdapter
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
    its decision counters; the workspaces it decides in are the
    snapshot's, not its own.  Its decision is the actor's greedy (argmax)
    action: sampling is exploration during training only.  All
    information it uses is local: the incoming flow's attributes and the
    state of the node and its direct neighbors.

    The observation is built straight into the input row of the policy's
    float64 workspace and never copied.  A frozen policy's
    ``certified_workspace`` decides on it when its error bound allows,
    and the float64 forward on that same row decides otherwise (a
    *fallback*, counted); a writable policy always decides in float64.
    The workspaces are shared by every agent of the deployment: an agent
    holds no state in them between two ``act`` calls, which must not run
    concurrently.  Under ``REPRO_CHECK_INVARIANTS`` every certified
    decision is re-decided in float64 and a disagreement raises
    :class:`~repro.analysis.invariants.InvariantViolation`.

    Args:
        node: The node this agent controls.
        policy: Trained actor-critic whose actor makes the decisions.
        adapter: Observation builder (shared, stateless).
    """

    def __init__(
        self,
        node: str,
        policy: ActorCriticPolicy,
        adapter: ObservationAdapter,
    ) -> None:
        self.node = node
        self.policy = policy
        self.adapter = adapter
        #: Decisions taken by this agent (per-node load statistics).
        self.decisions_taken = 0
        #: Decisions the certified float32 forward declined, which the
        #: float64 forward then took.
        self.fallbacks = 0
        self._sanitize = invariants_enabled()

    def act(self, decision: DecisionPoint, sim: Simulator) -> int:
        """Select the action for a flow at this agent's node."""
        if decision.node != self.node:
            raise ValueError(
                f"agent at {self.node!r} asked to act for node {decision.node!r}"
            )
        policy = self.policy
        rows = policy.workspace.input_rows(1)
        self.adapter.build(decision, sim, out=rows[0])
        self.decisions_taken += 1
        certified = policy.certified_workspace
        if certified is None:
            return policy.act_single(rows)
        declined = certified.fallbacks
        action = policy.act_single(rows, inference=certified)
        if certified.fallbacks != declined:
            self.fallbacks += 1
        elif self._sanitize:
            policy.cross_check(rows, (action,), certified, node=self.node)
        return action


class DistributedCoordinator:
    """All per-node agents of a network; usable as a simulator policy.

    Construction takes **one** snapshot of ``policy`` — a copy decoupled
    from the trainer's live weights, every array marked read-only, its
    actor cast to float32 once — and exposes it as :attr:`policy`; each
    node's agent references it.  The agents share no state that outlives
    a decision: counters are per agent, the snapshot's two actor
    workspaces are overwritten by every decision, and ``write=False``
    turns the one thing that could couple them (an in-place write to a
    deployed weight, e.g. an optimiser stepping the wrong object) into a
    ``ValueError`` at the write — which also keeps the float32 cast
    current.  One thread drives a coordinator.  Deployment cost and
    resident weights are therefore independent of network size, while
    decisions are those of the paper's one-network-per-node deployment.

    Pickling keeps the sharing (one weight set per coordinator, whatever
    the node count) but numpy does not carry the read-only flag across,
    so the float32 cast stays behind and the far side decides in float64
    (the same actions); pool workers rebuild through :meth:`fresh`,
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
        self.agents: Dict[str, NodeAgent] = {
            node: NodeAgent(node, self.policy, self.adapter)
            for node in network.node_names
        }

    def __call__(self, decision: DecisionPoint, sim: Simulator) -> int:
        """Route the decision to the agent at the decision's node."""
        return self.agents[decision.node].act(decision, sim)

    def fresh(self) -> "DistributedCoordinator":
        """A new coordinator over the same trained weights (its own frozen
        snapshot) with reset decision counters."""
        return DistributedCoordinator(
            self.network, self.adapter.catalog, self.policy
        )

    def decision_counts(self) -> Dict[str, int]:
        """Per-node decision counts (how evenly load spreads over agents)."""
        return {node: agent.decisions_taken for node, agent in self.agents.items()}

    @property
    def fallbacks(self) -> int:
        """Decisions, over all agents, taken by the float64 forward
        because the certified float32 one declined."""
        return sum(agent.fallbacks for agent in self.agents.values())
