"""Gym-style environment over the flow-level simulator.

This is the "adapter" of the paper's implementation (Fig. 5): it connects
a DRL agent to the network simulation by translating pending coordination
decisions into observations, agent outputs into simulator actions, and
simulator outcomes into rewards.

One *episode* is one simulated horizon; one *step* is one coordination
decision (any flow at any node).  Training one shared network over this
stream of per-node decisions is exactly the paper's centralized-training
scheme: experience from all (virtual) per-node agents flows into a single
policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.analysis.invariants import InvariantViolation
from repro.core.observations import ObservationAdapter
from repro.core.rewards import RewardConfig, RewardFunction
from repro.services.service import ServiceCatalog
from repro.sim.config import SimulationConfig
from repro.sim.simulator import DecisionPoint, Simulator
from repro.topology.network import Network
from repro.traffic.flows import FlowSpec

__all__ = ["CoordinationEnvConfig", "ServiceCoordinationEnv"]

#: Builds the (time-ordered) traffic for one episode from an rng.
TrafficFactory = Callable[[np.random.Generator], Iterable[FlowSpec]]


@dataclass(frozen=True)
class CoordinationEnvConfig:
    """Everything needed to instantiate episodes of one scenario.

    Attributes:
        network: Substrate network (with ingress/egress sets).
        catalog: Available services.
        traffic_factory: Called once per episode with a fresh generator;
            must return the episode's flows in arrival-time order.
        sim_config: Simulator knobs (horizon etc.).
        reward: Reward magnitudes / shaping switches.
    """

    network: Network
    catalog: ServiceCatalog
    traffic_factory: TrafficFactory
    sim_config: SimulationConfig = SimulationConfig()
    reward: RewardConfig = RewardConfig()


class ServiceCoordinationEnv:
    """Per-decision RL environment over :class:`~repro.sim.simulator.Simulator`.

    Implements the :class:`repro.rl.runner.Env` protocol.  Observation and
    action spaces are sized by the network degree Δ_G (``4Δ_G + 4`` and
    ``Δ_G + 1``), invariant to the number of nodes — the paper's key
    scalability property.

    Args:
        config: Scenario description.
        seed: Base seed; each :meth:`reset` draws a fresh child seed so
            parallel env copies and successive episodes see different
            traffic realisations.  Episode ``k``'s traffic depends only on
            ``(seed, k)`` — see :meth:`reset_episode` — so clones can
            replay the exact episode stream in any interleaving.
    """

    def __init__(self, config: CoordinationEnvConfig, seed: Optional[int] = None) -> None:
        self.config = config
        self.observation_adapter = ObservationAdapter(config.network, config.catalog)
        self.reward_function = RewardFunction(config.network, config.reward)
        self.observation_size = self.observation_adapter.size
        #: ``Δ_G + 1``: process locally, or forward to the a-th neighbor.
        self.num_actions = config.network.degree + 1
        seed_seq = np.random.SeedSequence(seed)
        self._entropy = seed_seq.entropy
        self._spawn_key = seed_seq.spawn_key
        self._next_episode = 0
        #: When set (a float vector of shape ``(observation_size,)``),
        #: observations are written into this array in place and it is
        #: returned from reset/step — drivers bind a row they own (the
        #: training runner's storage, the batched evaluation engine's actor
        #: workspace).  Unset, every reset/step returns a fresh array.
        self.observation_out: Optional[np.ndarray] = None
        #: Optional :class:`repro.profiling.PhaseAccumulator`; when set,
        #: step()/reset() attribute their wall time to the ``sim_advance``
        #: and ``obs_build`` phases (one branch per step when unset).
        self.profiler = None
        self._sim: Optional[Simulator] = None
        self._decision: Optional[DecisionPoint] = None
        self._episode_done = True

    # ------------------------------------------------------------------

    @property
    def simulator(self) -> Simulator:
        """The live simulator of the current episode (for baselines/tests)."""
        if self._sim is None:
            raise RuntimeError("environment not reset yet")
        return self._sim

    @property
    def current_decision(self) -> Optional[DecisionPoint]:
        return self._decision

    @property
    def next_episode_index(self) -> int:
        """Absolute index of the episode the next :meth:`reset` will play."""
        return self._next_episode

    def episode_rng(self, index: int) -> np.random.Generator:
        """The traffic generator for absolute episode ``index``.

        Reconstructs the ``index``-th spawn child of the env's base
        :class:`numpy.random.SeedSequence` explicitly (spawn child ``k``
        is the sequence with ``spawn_key = parent_key + (k,)``), so any
        episode can be replayed without consuming the parent's spawn
        counter — the basis of :meth:`reset_episode` and :meth:`clone`.
        """
        seq = np.random.SeedSequence(
            entropy=self._entropy, spawn_key=(*self._spawn_key, index)
        )
        return np.random.default_rng(seq)

    def consume_episodes(self, count: int) -> None:
        """Advance the episode counter without playing — the master env's
        bookkeeping when clones replay its next ``count`` episodes."""
        if count < 0:
            raise ValueError(f"cannot consume {count} episodes")
        self._next_episode += count

    def clone(self) -> "ServiceCoordinationEnv":
        """An independent env replaying this env's episode stream.

        The clone shares the immutable pieces (config, observation and
        reward adapters) but has its own simulator state and
        episode counter, so many clones can run logically-parallel
        episodes.  The clone starts with no ``observation_out`` bound.
        """
        twin = self.__class__.__new__(self.__class__)
        twin.config = self.config
        twin.observation_adapter = self.observation_adapter
        twin.reward_function = self.reward_function
        twin.observation_size = self.observation_size
        twin.num_actions = self.num_actions
        twin._entropy = self._entropy
        twin._spawn_key = self._spawn_key
        twin._next_episode = self._next_episode
        twin.observation_out = None
        twin.profiler = None
        twin._sim = None
        twin._decision = None
        twin._episode_done = True
        return twin

    def reset(self) -> np.ndarray:
        """Start a new episode; returns the first decision's observation."""
        return self.reset_episode(self._next_episode)

    def reset_episode(self, index: int) -> np.ndarray:
        """Start absolute episode ``index`` — the traffic realisation the
        ``index + 1``-th :meth:`reset` of a same-seed env would play.
        Sets the counter so a subsequent plain ``reset()`` plays
        ``index + 1``."""
        prof = self.profiler
        start = perf_counter() if prof is not None else 0.0
        rng = self.episode_rng(index)
        self._next_episode = index + 1
        traffic = self.config.traffic_factory(rng)
        self._sim = Simulator(
            self.config.network, self.config.catalog, traffic, self.config.sim_config
        )
        self._decision = self._sim.next_decision()
        self._sim.drain_outcomes()
        self._episode_done = self._decision is None
        if prof is not None:
            mid = perf_counter()
            prof.sim_advance += mid - start
        if self._decision is None:
            # Degenerate scenario with no flows before the horizon: return
            # a zero observation; the first step will terminate immediately.
            return self._zero_observation()
        obs = self._observe(self._decision)
        if prof is not None:
            prof.obs_build += perf_counter() - mid
        return obs

    def _observe(self, decision: DecisionPoint) -> np.ndarray:
        return self.observation_adapter.build(
            decision, self._sim, out=self.observation_out
        )

    def _zero_observation(self) -> np.ndarray:
        if self.observation_out is not None:
            self.observation_out[:] = 0.0
            return self.observation_out
        return np.zeros(self.observation_size)

    def step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        """Resolve the pending decision and advance to the next one.

        The step reward aggregates every outcome that materialised between
        this decision and the next — immediate shaping (link penalty,
        instance bonus) as well as terminal credits of *other* flows that
        completed or dropped in the meantime.  Pooling credit this way is
        what lets one shared network learn from all agents' experience.
        """
        sim = self._sim
        if sim is None:
            raise RuntimeError("call reset() before step()")
        if self._episode_done:
            raise RuntimeError("episode finished; call reset()")
        if self._decision is None:
            raise InvariantViolation(
                "pending decision missing while the episode is still live"
            )
        prof = self.profiler
        start = perf_counter() if prof is not None else 0.0
        sim.apply_action(action)
        next_decision = sim.next_decision()
        reward = float(self.reward_function.total(sim.drain_outcomes()))
        self._decision = next_decision
        if next_decision is None:
            self._episode_done = True
            metrics = sim.finalize()
            if prof is not None:
                prof.sim_advance += perf_counter() - start
                prof.steps += 1
            return self._zero_observation(), reward, True, {
                "success_ratio": metrics.success_ratio,
                "flows_generated": metrics.flows_generated,
                "flows_succeeded": metrics.flows_succeeded,
                "flows_dropped": metrics.flows_dropped,
                "avg_end_to_end_delay": metrics.avg_end_to_end_delay,
            }
        if prof is None:
            obs = self._observe(next_decision)
        else:
            mid = perf_counter()
            prof.sim_advance += mid - start
            prof.steps += 1
            obs = self._observe(next_decision)
            prof.obs_build += perf_counter() - mid
        return obs, reward, False, {}
