"""Central DRL baseline [10] (Sec. V-A3).

Schneider et al., "Self-driving network and service coordination using
deep reinforcement learning" (CNSM 2020): a *single, centralized* DRL
agent periodically refreshes coarse-grained scheduling rules that every
node then applies to all incoming flows at runtime.  The ICDCS paper lists
its defining properties, all reproduced here:

- **periodic rule updates** — the agent acts once per monitoring interval,
  not per flow; between updates the same rules apply to every flow;
- **partial, delayed global observations** — the agent sees node
  utilisations from the *previous* monitoring interval (periodic
  monitoring à la Prometheus), so bursts within an interval are invisible;
- **shortest-path routing, no link capacities** — flows always travel on
  delay-shortest paths between their scheduled processing nodes; the rules
  say nothing about links, so full links simply drop flows;
- **no per-flow control** — all flows of a service in one interval are
  scheduled to the same component targets.

Rule model (the "scheduling weights" of [10], discretised): each interval
the central agent assigns every service component a **target node**.  A
flow requesting component ``c`` travels along shortest paths to ``c``'s
target, is processed there (dropping on overflow — coarse rules cannot
react within an interval), then heads for the next component's target, and
finally to its egress.  The observation and action spaces grow linearly
with the number of nodes — the centralized approach's scalability burden
that Fig. 9 measures.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import BasePolicy
from repro.core.env import CoordinationEnvConfig
from repro.core.rewards import RewardFunction
from repro.parallel import EnvBuilder
from repro.rl.acktr import ACKTRConfig
from repro.rl.policy import ActorCriticPolicy
from repro.rl.training import MultiSeedResult, train_multi_seed
from repro.services.service import ServiceCatalog
from repro.sim.simulator import ACTION_PROCESS_LOCALLY, DecisionPoint, Simulator
from repro.topology.network import Network

__all__ = [
    "UPDATE_INTERVAL",
    "RuleExecutor",
    "CentralizedCoordinationEnv",
    "CentralizedEnvBuilder",
    "CentralDRLPolicy",
    "train_central_coordinator",
]


#: Simulation time I between rule refreshes (at the boundaries k·I); also
#: the monitoring period — the utilisation sampled at a boundary stands
#: for the whole interval.  Read when a :class:`_RuleRefresh` is built.
UPDATE_INTERVAL = 50.0


class RuleExecutor(BasePolicy):
    """Applies the current component-target rules to flows at runtime.

    This is the distributed *mechanism* of [10]: nodes execute the
    installed rules locally; only the rule *computation* is centralized.
    """

    def __init__(self, network: Network, catalog: ServiceCatalog) -> None:
        super().__init__(network, catalog)
        self.component_names: List[str] = [c.name for c in catalog.components]
        # Default rules: every component targeted at the first node; the
        # agent overwrites these at the first refresh.
        first = network.node_names[0]
        self.targets: Dict[str, str] = {c: first for c in self.component_names}
        #: Flows that arrived at their scheduled target and found it full;
        #: they fall back to greedy processing along the path to egress.
        self._spilled: set = set()

    def set_targets(self, targets: Dict[str, str]) -> None:
        """Install the per-component targets of one interval."""
        missing = set(self.component_names) - set(targets)
        if missing:
            raise ValueError(f"rules missing targets for components: {sorted(missing)}")
        for component, node in targets.items():
            if not self.network.has_node(node):
                raise ValueError(f"target {node!r} for {component!r} not in network")
        self.targets = dict(targets)

    def __call__(self, decision: DecisionPoint, sim: Simulator) -> int:
        flow, node = decision.flow, decision.node
        if flow.fully_processed:
            # Shortest-path routing toward the egress.
            return self.shortest_path_action(decision)
        service = self.catalog.service(flow.service)
        component = service.component_at(flow.component_index)
        spill_key = (flow.flow_id, component.name)
        if spill_key in self._spilled:
            # Burst overflow: the scheduled target was full when the flow
            # got there.  The rules cannot reschedule within the interval,
            # so the flow limps toward its egress, processing wherever free
            # capacity happens to exist on the way (best-effort salvage).
            if self.can_process_here(decision, sim):
                return ACTION_PROCESS_LOCALLY
            return self.shortest_path_action(decision)
        target = self.targets[component.name]
        if node == target:
            if self.can_process_here(decision, sim):
                return ACTION_PROCESS_LOCALLY
            if node == flow.egress:
                return ACTION_PROCESS_LOCALLY  # forced attempt; will drop
            self._spilled.add(spill_key)
            return self.shortest_path_action(decision)
        next_hop = self.network.next_hop(node, target)
        if next_hop is None:
            # Target unreachable: process locally as a degenerate fallback.
            return ACTION_PROCESS_LOCALLY
        return self.forward_action(node, next_hop)


def _observation_size(network: Network, catalog: ServiceCatalog) -> int:
    return 2 * network.num_nodes + len(catalog.components) + 1


def _build_observation(
    capacities: np.ndarray,
    snapshot: np.ndarray,
    component_index: int,
    num_components: int,
    progress: float,
) -> np.ndarray:
    one_hot = np.zeros(num_components)
    one_hot[component_index] = 1.0
    return np.concatenate([capacities, snapshot, one_hot, [progress]])


class _RuleRefresh:
    """The central agent's periodic rule refresh over one simulator run —
    the one copy :class:`CentralizedCoordinationEnv` trains on and
    :class:`CentralDRLPolicy` deploys.

    Interval k covers ``[k·I, (k+1)·I)``.  Its rules come from one row per
    component: static node capacities, the node utilisation at the first
    decision at or after ``k·I`` (all zero for k = 0), the component's
    one-hot, and progress ``(k+1)·I / T`` with T the simulator's horizon.
    They then apply to every flow until the first decision at or after
    ``(k+1)·I``.
    """

    def __init__(self, network: Network, catalog: ServiceCatalog) -> None:
        self.nodes = network.node_names
        self.num_components = len(catalog.components)
        self.interval = UPDATE_INTERVAL
        capacities = np.array([network.node(n).capacity for n in self.nodes])
        # Static capacities normalised by the network-wide maximum —
        # global knowledge a centralized controller legitimately has.
        self.capacities = capacities / max(network.max_node_capacity, 1e-12)
        self._load_divisors = np.maximum(capacities, 1e-12)
        self.snapshot = np.zeros(len(self.nodes))
        self.executor = RuleExecutor(network, catalog)
        #: End of the interval the rules decided next are for.
        self.next_boundary = self.interval

    def row(self, component_index: int, sim: Simulator) -> np.ndarray:
        """The observation the agent picks ``component_index``'s target from."""
        progress = min(1.0, self.next_boundary / sim.config.horizon)
        return _build_observation(
            self.capacities, self.snapshot, component_index, self.num_components, progress
        )

    def advance(self, sim: Simulator) -> None:
        """Sample the node utilisation now and move on one interval."""
        loads = np.array([sim.state.node_load(n) for n in self.nodes])
        self.snapshot = loads / self._load_divisors
        self.next_boundary += self.interval


class CentralizedCoordinationEnv:
    """RL environment training the centralized rule-setting agent.

    One *interval* of simulated time is decomposed into one micro-step per
    service component: the agent picks that component's target node
    (action space = |V|) from the row :class:`_RuleRefresh` builds.  After
    the last component's target is set, the simulator runs the whole
    interval under the new rules; the interval's accumulated reward (same
    reward function as the distributed approach) is granted on the last
    micro-step.
    """

    def __init__(
        self, env_config: CoordinationEnvConfig, seed: Optional[int] = None
    ) -> None:
        self.env_config = env_config
        self.network = env_config.network
        self.catalog = env_config.catalog
        self.nodes: List[str] = self.network.node_names
        self.component_names = [c.name for c in self.catalog.components]
        self.observation_size = _observation_size(self.network, self.catalog)
        self.num_actions = len(self.nodes)
        self.reward_function = RewardFunction(self.network, env_config.shaping)
        self._seed_seq = np.random.SeedSequence(seed)
        self._sim: Optional[Simulator] = None
        self._rules = _RuleRefresh(self.network, self.catalog)
        self._pending: Optional[DecisionPoint] = None
        self._component_index = 0
        self._draft: Dict[str, str] = {}
        self._done = True

    # ------------------------------------------------------------------

    def _observation(self) -> np.ndarray:
        if self._sim is None:
            raise RuntimeError("call reset() before observing")
        return self._rules.row(self._component_index, self._sim)

    def reset(self) -> np.ndarray:
        child = self._seed_seq.spawn(1)[0]
        rng = np.random.default_rng(child)
        traffic = self.env_config.traffic_factory(rng)
        self._sim = Simulator(
            self.network, self.catalog, traffic, self.env_config.sim_config
        )
        self._rules = _RuleRefresh(self.network, self.catalog)
        self._pending = None
        self._component_index = 0
        self._draft = {}
        self._done = False
        return self._observation()

    def step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        if self._sim is None:
            raise RuntimeError("call reset() before step()")
        if not 0 <= action < len(self.nodes):
            raise ValueError(f"central action must index a node, got {action}")
        component = self.component_names[self._component_index]
        self._draft[component] = self.nodes[action]
        self._component_index += 1
        if self._component_index < len(self.component_names):
            return self._observation(), 0.0, False, {}

        # Rules complete: install them, run the interval, then sample the
        # state the next interval's rules are decided from.
        self._rules.executor.set_targets(self._draft)
        self._draft = {}
        self._component_index = 0
        reward = self._run_interval()
        info: Dict[str, Any] = {}
        if self._done:
            metrics = self._sim.finalize()
            info = {
                "success_ratio": metrics.success_ratio,
                "flows_generated": metrics.flows_generated,
                "flows_succeeded": metrics.flows_succeeded,
                "flows_dropped": metrics.flows_dropped,
                "avg_end_to_end_delay": metrics.avg_end_to_end_delay,
            }
            return np.zeros(self.observation_size), reward, True, info
        self._rules.advance(self._sim)
        return self._observation(), reward, False, info

    def _run_interval(self) -> float:
        """Drive the simulator to the next interval boundary under the
        current rules; returns the interval's accumulated reward."""
        if self._sim is None:
            raise RuntimeError("call reset() before running an interval")
        rules = self._rules
        reward = 0.0
        while True:
            if self._pending is None:
                self._pending = self._sim.next_decision()
                reward += self.reward_function.total(self._sim.drain_outcomes())
                if self._pending is None:
                    self._done = True
                    return reward
            if self._pending.time >= rules.next_boundary:
                return reward
            decision = self._pending
            self._pending = None
            self._sim.apply_action(rules.executor(decision, self._sim))
            reward += self.reward_function.total(self._sim.drain_outcomes())


class CentralDRLPolicy:
    """Inference-time central DRL coordinator (simulator policy callable).

    Wraps the trained rule-setting network and runs the refresh it was
    trained on (:class:`_RuleRefresh`): on the first decision of a run and
    on the first decision at or after each interval boundary, the central
    agent recomputes all component targets — the centralized work whose
    latency grows with network size (Fig. 9b).  A stretch without
    decisions skips to the last elapsed boundary and refreshes once there
    (the training env's refreshes in between see the same snapshot and
    their rules are never consulted).  All flow decisions are answered
    from the installed rules, so on the same traffic a deployed run
    replays the greedy training episode flow for flow.

    Like :class:`~repro.core.agent.DistributedCoordinator`, it decides on
    a frozen snapshot of the network it is given (``policy.clone().freeze()``):
    a later in-place write to the caller's network changes no deployed
    rule, and a refresh takes each target from the certified float32
    forward, or the float64 one where the certificate declines.

    Attributes:
        executor: The installed rules.
        rule_update_seconds: Wall-clock seconds per rule refresh.
    """

    def __init__(
        self,
        network: Network,
        catalog: ServiceCatalog,
        policy: ActorCriticPolicy,
    ) -> None:
        expected = _observation_size(network, catalog)
        if policy.obs_dim != expected:
            raise ValueError(
                f"central policy expects obs size {policy.obs_dim}, this network/"
                f"catalog needs {expected}"
            )
        self.network = network
        self.catalog = catalog
        self.nodes = network.node_names
        self.component_names = [c.name for c in catalog.components]
        #: The deployment's frozen snapshot of the trained network.
        self.policy = policy.clone().freeze()
        self.rule_update_seconds: List[float] = []
        self._rules = _RuleRefresh(network, catalog)
        self.executor = self._rules.executor

    def _refresh_rules(self, decision: DecisionPoint, sim: Simulator) -> None:
        start = _time.perf_counter()
        rules = self._rules
        while decision.time >= rules.next_boundary:
            rules.advance(sim)
        self.executor.set_targets(
            {
                component: self.nodes[self.policy.act_single(rules.row(index, sim))]
                for index, component in enumerate(self.component_names)
            }
        )
        self.rule_update_seconds.append(_time.perf_counter() - start)

    def __call__(self, decision: DecisionPoint, sim: Simulator) -> int:
        if decision.time >= self._rules.next_boundary or not self.rule_update_seconds:
            self._refresh_rules(decision, sim)
        return self.executor(decision, sim)

    @property
    def mean_rule_update_seconds(self) -> float:
        if not self.rule_update_seconds:
            return 0.0
        return float(np.mean(self.rule_update_seconds))


@dataclass(frozen=True)
class CentralizedEnvBuilder(EnvBuilder):
    """Picklable seed-to-environment factory for the centralized baseline,
    enabling the per-seed training fan-out of :func:`train_multi_seed`."""

    env_config: CoordinationEnvConfig

    def build(self, env_seed: int) -> CentralizedCoordinationEnv:
        return CentralizedCoordinationEnv(self.env_config, seed=env_seed)


def train_central_coordinator(
    env_config: CoordinationEnvConfig,
    rl_config: ACKTRConfig = ACKTRConfig(),
    seeds: Sequence[int] = (0, 1),
    updates_per_seed: int = 60,
    workers: Optional[int] = None,
) -> Tuple[CentralDRLPolicy, MultiSeedResult]:
    """Train the central rule-setting agent and wrap it for inference."""
    multi_seed = train_multi_seed(
        CentralizedEnvBuilder(env_config),
        config=rl_config,
        seeds=seeds,
        updates_per_seed=updates_per_seed,
        workers=workers,
    )
    policy = CentralDRLPolicy(
        env_config.network, env_config.catalog, multi_seed.best_policy
    )
    return policy, multi_seed
