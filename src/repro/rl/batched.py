"""Lockstep evaluation: M episodes advance together, one forward per round.

Driving one simulator at a time pays a batch-1 MLP forward per flow
decision — allocator and ufunc-dispatch overhead per call dwarfs the
actual FLOPs at the paper's network sizes.  :class:`BatchedEpisodeRunner`
amortises that overhead by advancing M logically-parallel episodes in
*lockstep rounds*.  Each round it holds every episode at its pending
decision, with the M observation vectors living as rows of one
``(M, obs_dim)`` matrix (each env clone writes its observation directly
into its row via ``observation_out`` — zero copies), issues a single
actor forward over the live prefix of the matrix, selects every row's
action with :meth:`ActorCriticPolicy.select_actions`, and steps each
episode by its action.  M = 1 is the same loop with one slot — there is
no separate serial path; :func:`repro.rl.training.evaluate_policy` picks
M from the episode count.

Ragged termination
------------------

Episodes finish after different numbers of decisions.  When a slot's
episode ends and no unplayed episode remains, the runner *compacts*: the
last live slot is swapped into the dead slot's position (env, matrix
row, and accumulators move together), and the live count shrinks — so
the forward always runs on the contiguous prefix ``matrix[:L]`` with no
index gathering.  While unplayed episodes remain, the freed slot is
simply re-seeded with the next episode, keeping the batch full.

Bit-identical metrics
---------------------

The regression contract: for float64 policies, evaluation at any M
produces **bit-identical per-episode metrics** to a plain ``act_single``
loop over the same episodes.  Two mechanisms deliver this:

1. *Episode replay.*  Each episode's traffic depends only on
   ``(env seed, episode index)`` (:meth:`ServiceCoordinationEnv.reset_episode`),
   so clone k playing episode k sees exactly the flows the k-th
   ``reset()`` of a serial loop would generate.
2. *The select's contract* (near-tie guard, one-row case): see
   :meth:`ActorCriticPolicy.select_actions`.

Every decision is the actor's greedy (argmax) action, as in deployment;
sampling belongs to training.

Float32 inference mode (``dtype=np.float32``, honoured at every width)
trades the guarantee for speed: actions near ties (margin ≲ 1e-6) may
differ from the float64 path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.invariants import InvariantViolation
from repro.rl.policy import ActorCriticPolicy
from repro.telemetry import NULL_RECORDER, Recorder

__all__ = [
    "EpisodeOutcome",
    "BatchedEvalStats",
    "BatchedEpisodeRunner",
    "supports_batched_evaluation",
]

#: Cap on the per-round batch sizes kept for telemetry (long evaluations
#: would otherwise ship one integer per lockstep round).
_MAX_RECORDED_ROUNDS = 512

_REPLAY_PROTOCOL = (
    "clone",
    "reset_episode",
    "consume_episodes",
    "next_episode_index",
    "current_decision",
)


def supports_batched_evaluation(env: Any) -> bool:
    """True when ``env`` implements the episode-replay protocol the
    lockstep runner needs (``ServiceCoordinationEnv`` does; minimal test
    envs typically don't and are stepped by the generic loop)."""
    return all(hasattr(env, name) for name in _REPLAY_PROTOCOL)


@dataclass(frozen=True)
class EpisodeOutcome:
    """Per-episode evaluation result (index is the 0-based episode order
    of the serial loop, regardless of lockstep interleaving)."""

    index: int
    total_reward: float
    length: int
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass
class BatchedEvalStats:
    """Instrumentation of one batched evaluation run."""

    batch: int
    episodes: int
    dtype: str
    rounds: int = 0
    decisions: int = 0
    tie_fallbacks: int = 0
    round_batches: List[int] = field(default_factory=list)
    forward_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def mean_round_batch(self) -> float:
        return self.decisions / self.rounds if self.rounds else 0.0

    @property
    def decisions_per_second(self) -> float:
        return self.decisions / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def emit(self, recorder: Recorder) -> None:
        """Write one ``eval_batch`` telemetry record."""
        if not recorder.enabled:
            return
        recorder.emit(
            "eval_batch",
            batch=self.batch,
            episodes=self.episodes,
            rounds=self.rounds,
            decisions=self.decisions,
            dtype=self.dtype,
            tie_fallbacks=self.tie_fallbacks,
            mean_round_batch=self.mean_round_batch,
            max_round_batch=max(self.round_batches, default=0),
            round_batches=self.round_batches[:_MAX_RECORDED_ROUNDS],
            forward_seconds=self.forward_seconds,
            wall_seconds=self.wall_seconds,
            decisions_per_second=self.decisions_per_second,
        )


class BatchedEpisodeRunner:
    """Advance M evaluation episodes in lockstep with batched inference.

    Args:
        policy: The actor-critic policy to evaluate.
        env: Template environment implementing the episode-replay
            protocol (see :func:`supports_batched_evaluation`).  The
            runner consumes the env's next ``episodes`` episode indices
            (its counter advances as if it had played them serially).
        episodes: Number of episodes to evaluate.
        batch: Lockstep width M (clamped to ``episodes``).
        dtype: ``np.float64`` (bit-identical to serial, default) or
            ``np.float32`` (faster, approximate); honoured at every width.
        recorder: Telemetry sink; one ``eval_batch`` record per run().
    """

    def __init__(
        self,
        policy: ActorCriticPolicy,
        env: Any,
        episodes: int,
        batch: int,
        dtype: Any = np.float64,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if episodes < 0:
            raise ValueError(f"episodes must be >= 0, got {episodes}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if not supports_batched_evaluation(env):
            raise TypeError(
                f"{type(env).__name__} does not implement the episode-replay "
                "protocol required for batched evaluation "
                f"(needs {', '.join(_REPLAY_PROTOCOL)})"
            )
        self.policy = policy
        self.env = env
        self.episodes = episodes
        self.batch = batch
        self.recorder = recorder
        self._inference = policy.actor_inference(dtype=dtype)
        self.dtype = self._inference.dtype

    # ------------------------------------------------------------------

    def run(self) -> Tuple[List[EpisodeOutcome], BatchedEvalStats]:
        """Play all episodes; returns per-episode outcomes (in serial
        episode order) plus run statistics, and emits telemetry."""
        wall_start = time.perf_counter()
        n = self.episodes
        stats = BatchedEvalStats(batch=self.batch, episodes=n, dtype=str(self.dtype))
        base = self.env.next_episode_index
        self.env.consume_episodes(n)
        outcomes: List[Optional[EpisodeOutcome]] = [None] * n
        if n:
            self._run_lockstep(stats, outcomes, base, n)
        stats.wall_seconds = time.perf_counter() - wall_start
        stats.emit(self.recorder)
        missing = [i for i, o in enumerate(outcomes) if o is None]
        if missing:
            raise InvariantViolation(
                "batched evaluation finished with unplayed episodes",
                episode_indices=missing, episodes=n,
            )
        return list(outcomes), stats  # type: ignore[arg-type]

    # ------------------------------------------------------------------

    def _run_lockstep(
        self,
        stats: BatchedEvalStats,
        outcomes: List[Optional[EpisodeOutcome]],
        base: int,
        n: int,
    ) -> None:
        inference = self._inference
        m = min(self.batch, n)
        # Each env clone builds its observation straight into its row of
        # the forward's own input (prefix views of one buffer per width).
        obs_mat = inference.input_rows(m)
        slots: List[Any] = [self.env.clone() for _ in range(m)]
        episode_of = [0] * m  # relative episode index per slot
        totals = [0.0] * m
        lengths = [0] * m
        actions = np.empty(m, dtype=np.intp)
        next_ep = 0  # next relative episode index to hand out

        def assign_next(j: int) -> bool:
            """Seed slot j with the next unplayed episode; False when the
            slot could not be made live (no episodes left, or only
            degenerate no-decision episodes — recorded as length 0)."""
            nonlocal next_ep
            while next_ep < n:
                k = next_ep
                next_ep += 1
                slots[j].reset_episode(base + k)
                if slots[j].current_decision is not None:
                    episode_of[j] = k
                    totals[j] = 0.0
                    lengths[j] = 0
                    return True
                outcomes[k] = EpisodeOutcome(index=k, total_reward=0.0, length=0)
            return False

        live = 0
        for j in range(m):
            slots[j].observation_out = obs_mat[j]
            if assign_next(j):
                live += 1
            else:
                break
        # Compact away any never-started tail slots (degenerate episodes).
        # assign_next fills slots 0..live-1 contiguously, so no swap needed.

        # This loop is all an evaluation costs beyond env.step and the
        # forward, so bound methods, per-width views and counters are
        # locals: ~1.8 us per decision, the difference between one slot
        # trailing a bare act_single loop and matching it (DESIGN §7).
        forward, select = inference.forward, self.policy.select_actions
        clock = time.perf_counter
        forward_seconds = 0.0
        rounds = decisions = fallbacks = 0
        width = 0  # live count that x / chosen / order were cut for
        while live:
            if live != width:
                width = live
                x = inference.input_rows(live)
                chosen = actions[:live]
                order = range(live - 1, -1, -1)
            t0 = clock()
            logits = forward(x)
            forward_seconds += clock() - t0
            fallbacks += select(logits, x, chosen)
            rounds += 1
            decisions += live
            if rounds <= _MAX_RECORDED_ROUNDS:
                stats.round_batches.append(live)

            for j in order:
                _, reward, done, info = slots[j].step(int(actions[j]))
                totals[j] += reward
                lengths[j] += 1
                if not done:
                    continue
                k = episode_of[j]
                outcomes[k] = EpisodeOutcome(
                    index=k,
                    total_reward=totals[j],
                    length=lengths[j],
                    info=dict(info),
                )
                if assign_next(j):
                    continue
                # No episodes left: compact — move the last live slot
                # (already stepped this round, since we iterate slots in
                # descending order) into position j.
                live -= 1
                if j != live:
                    slots[j], slots[live] = slots[live], slots[j]
                    obs_mat[j] = obs_mat[live]
                    slots[j].observation_out = obs_mat[j]
                    slots[live].observation_out = None
                    episode_of[j] = episode_of[live]
                    totals[j] = totals[live]
                    lengths[j] = lengths[live]
        stats.rounds, stats.decisions = rounds, decisions
        stats.tie_fallbacks, stats.forward_seconds = fallbacks, forward_seconds
