"""Batched-inference evaluation engine.

The serial evaluation loop (:func:`repro.rl.training.evaluate_policy`)
drives one simulator at a time and pays a batch-1 MLP forward per flow
decision — allocator and ufunc-dispatch overhead per call dwarfs the
actual FLOPs at the paper's network sizes.  This module amortises that
overhead: :class:`BatchedEpisodeRunner` advances M logically-parallel
episodes in *lockstep rounds*.  Each round it holds every episode at its
pending decision, with the M observation vectors living as rows of one
``(M, obs_dim)`` matrix (each env clone writes its observation directly
into its row via ``observation_out`` — zero copies), issues a single
batched actor forward over the live prefix of the matrix, and steps each
episode by its selected action.

Ragged termination
------------------

Episodes finish after different numbers of decisions.  When a slot's
episode ends and no unplayed episode remains, the runner *compacts*: the
last live slot is swapped into the dead slot's position (env, matrix
row, and accumulators move together), and the live count shrinks — so
the batched forward always runs on the contiguous prefix ``matrix[:L]``
with no index gathering.  While unplayed episodes remain, the freed slot
is simply re-seeded with the next episode, keeping the batch full.

Bit-identical metrics
---------------------

The regression contract: for float64 policies, batched evaluation of any
M produces **bit-identical per-episode metrics** to the serial
``act_single`` path.  Two mechanisms deliver this:

1. *Episode replay.*  Each episode's traffic depends only on
   ``(env seed, episode index)`` (:meth:`ServiceCoordinationEnv.reset_episode`),
   so clone k playing episode k sees exactly the flows the serial loop's
   k-th ``reset()`` would generate.  In stochastic mode, episode k also
   owns the k-th spawned child of the caller's generator and draws one
   ``(1, K)`` uniform block per decision — the exact consumption pattern
   of ``Categorical.sample`` inside ``act_single``.
2. *Near-tie fallback.*  BLAS reduces a batched GEMM in a different
   summation order than a batch-1 GEMV, so batched logits differ from
   serial logits in the last few ulps (~1e-13 relative).  Ties aside,
   argmax is insensitive to that; the runner therefore selects actions
   from the batched logits and recomputes any row whose top-two margin
   is within :data:`ARGMAX_TIE_TOLERANCE` through the exact serial
   forward (:meth:`ActorCriticPolicy.logits_single`).  The tolerance
   sits many orders of magnitude above the ulp-level discrepancy, so a
   row that skips the fallback provably agrees with the serial argmax.

Float32 inference mode (``dtype=np.float32``) trades the guarantee for
speed: the fallback is disabled and actions near ties (margin ≲ 1e-6)
may differ from the float64 path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.invariants import InvariantViolation
from repro.nn.mlp import MLPInference
from repro.rl.policy import ActorCriticPolicy
from repro.telemetry import NULL_RECORDER, Recorder

__all__ = [
    "ARGMAX_TIE_TOLERANCE",
    "SERIAL_FALLBACK_MAX_BATCH",
    "EpisodeOutcome",
    "BatchedEvalStats",
    "BatchedEpisodeRunner",
    "argmax_with_serial_fallback",
    "supports_batched_evaluation",
    "resolve_eval_batch",
    "resolve_eval_dtype",
]

#: Minimum top-two logit margin (relative to the top logit's magnitude)
#: below which a row is recomputed through the serial forward.  Batched vs
#: batch-1 GEMM discrepancies are ~1e-13 relative; meaningful action gaps
#: are orders above 1e-6 — the band between is where the fallback lives.
ARGMAX_TIE_TOLERANCE = 1e-6

#: Lockstep widths at or below which :class:`BatchedEpisodeRunner` (and
#: the inference benchmark, which keys its measurement on this constant)
#: delegate to the plain serial ``act_single`` loop.  At batch 1 the
#: lockstep engine is pure overhead — clone/replay bookkeeping plus a
#: batched GEMM that degenerates to a GEMV — measured at ~0.7x the
#: serial path; the fallback makes ``--eval-batch`` never a
#: pessimization.
SERIAL_FALLBACK_MAX_BATCH = 1

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
    batched runner needs (``ServiceCoordinationEnv`` does; minimal test
    envs typically don't and evaluate serially)."""
    return all(hasattr(env, name) for name in _REPLAY_PROTOCOL)


def resolve_eval_batch(value: Optional[int]) -> int:
    """Effective evaluation batch size: explicit ``value``, else the
    ``REPRO_EVAL_BATCH`` environment variable, else 1 (serial)."""
    import os

    if value is None:
        raw = os.environ.get("REPRO_EVAL_BATCH", "").strip()
        if not raw:
            return 1
        value = int(raw)
    if value < 1:
        raise ValueError(f"eval batch must be >= 1, got {value}")
    return int(value)


#: CLI spellings of the supported inference dtypes.
_EVAL_DTYPES = {"f64": np.float64, "f32": np.float32}


def resolve_eval_dtype(value: Optional[Any] = None) -> np.dtype:
    """Effective inference dtype: explicit ``value`` (``"f64"``/``"f32"``
    or a numpy dtype), else the ``REPRO_EVAL_DTYPE`` environment
    variable, else float64 (the bit-exact default)."""
    import os

    if value is None:
        raw = os.environ.get("REPRO_EVAL_DTYPE", "").strip().lower()
        if not raw:
            return np.dtype(np.float64)
        value = raw
    if isinstance(value, str):
        key = value.strip().lower()
        if key not in _EVAL_DTYPES:
            raise ValueError(
                f"unknown eval dtype {value!r}; choose from {sorted(_EVAL_DTYPES)}"
            )
        return np.dtype(_EVAL_DTYPES[key])
    dtype = np.dtype(value)
    if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"eval dtype must be float64/float32, got {dtype}")
    return dtype


def argmax_with_serial_fallback(
    scores: np.ndarray,
    work: np.ndarray,
    actions: np.ndarray,
    serial_scores: Callable[[int], np.ndarray],
    exact: bool = True,
) -> int:
    """Per-row argmax of batched ``scores`` with the near-tie fallback.

    Fills ``actions`` (shape ``(n,)``) with ``argmax(scores[j])``; when
    ``exact``, every row whose top-two margin is within
    :data:`ARGMAX_TIE_TOLERANCE` (relative to the top score) is
    recomputed as ``argmax(serial_scores(j))`` — the caller supplies the
    exact batch-1 scores there, which is what makes batched float64
    selection bitwise-identical to the serial path despite ulp-level
    GEMM-vs-GEMV discrepancies.  ``work`` is an ``(n, k)`` scratch for
    the runner-up search and may be ``scores`` itself (it is clobbered).
    Returns the number of fallback rows.

    Shared by :class:`BatchedEpisodeRunner` and the serving engine
    (:class:`repro.serving.ServingEngine`), so the bit-identity argument
    lives in exactly one place.
    """
    n, k = scores.shape
    np.argmax(scores, axis=1, out=actions)
    if k == 1 or not exact or n == 0:
        return 0
    rows = np.arange(n)
    top = scores[rows, actions].copy()
    if scores is not work:
        np.copyto(work, scores)
    work[rows, actions] = -np.inf
    margin = top - work.max(axis=1)
    tol = ARGMAX_TIE_TOLERANCE * (1.0 + np.abs(top))
    fallbacks = 0
    for j in np.nonzero(margin <= tol)[0]:
        fallbacks += 1
        actions[j] = int(np.argmax(serial_scores(int(j))))
    return fallbacks


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
    deterministic: bool
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
            deterministic=self.deterministic,
            dtype=self.dtype,
            tie_fallbacks=self.tie_fallbacks,
            mean_round_batch=self.mean_round_batch,
            max_round_batch=max(self.round_batches, default=0),
            round_batches=self.round_batches[:_MAX_RECORDED_ROUNDS],
            forward_seconds=self.forward_seconds,
            wall_seconds=self.wall_seconds,
            decisions_per_second=self.decisions_per_second,
        )


def _episode_rngs(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """One independent child generator per episode (stochastic mode)."""
    try:
        return list(rng.spawn(count))
    except AttributeError:  # numpy < 1.25: derive children from drawn seeds
        seeds = rng.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]


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
        deterministic: Greedy (argmax) actions when True; Gumbel-max
            sampling with per-episode rng streams when False.
        rng: Base generator for stochastic mode (ignored when
            deterministic); episode k uses its k-th spawned child.
        dtype: ``np.float64`` (bit-identical to serial, default) or
            ``np.float32`` (faster, approximate).
        recorder: Telemetry sink; one ``eval_batch`` record per run().
    """

    def __init__(
        self,
        policy: ActorCriticPolicy,
        env: Any,
        episodes: int,
        batch: int,
        deterministic: bool = True,
        rng: Optional[np.random.Generator] = None,
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
        if not deterministic and rng is None:
            raise ValueError("stochastic batched evaluation needs an rng")
        self.policy = policy
        self.env = env
        self.episodes = episodes
        self.batch = batch
        self.deterministic = deterministic
        self.rng = rng
        self.dtype = np.dtype(dtype)
        self.recorder = recorder
        # batch == 1 gains nothing from lockstep bookkeeping (measured
        # ~0.7x serial) — delegate to the plain act_single loop, which is
        # exact float64 by construction, and skip the workspace build.
        self._inference: Optional[MLPInference] = (
            None
            if batch <= SERIAL_FALLBACK_MAX_BATCH
            else policy.actor_inference(dtype=dtype)
        )
        if self._inference is None:
            self.dtype = np.dtype(np.float64)
        # float32 can't honour the exactness contract; skip the fallback.
        self._exact = self.dtype == np.dtype(np.float64)

    # ------------------------------------------------------------------

    def run(self) -> Tuple[List[EpisodeOutcome], BatchedEvalStats]:
        """Play all episodes; returns per-episode outcomes (in serial
        episode order) plus run statistics, and emits telemetry."""
        wall_start = time.perf_counter()
        n = self.episodes
        stats = BatchedEvalStats(
            batch=self.batch,
            episodes=n,
            deterministic=self.deterministic,
            dtype=str(self.dtype),
        )
        base = self.env.next_episode_index
        self.env.consume_episodes(n)
        outcomes: List[Optional[EpisodeOutcome]] = [None] * n
        if n == 0:
            stats.wall_seconds = time.perf_counter() - wall_start
            stats.emit(self.recorder)
            return [], stats

        if self._inference is None:
            self._run_serial(stats, outcomes, base, n)
        else:
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

    def _run_serial(
        self,
        stats: BatchedEvalStats,
        outcomes: List[Optional[EpisodeOutcome]],
        base: int,
        n: int,
    ) -> None:
        """The ``batch == 1`` fallback: a plain serial ``act_single``
        loop over the same replayed episodes — no lockstep bookkeeping,
        no batched workspaces, always exact float64.  Episode seeding
        (one spawned child per episode in stochastic mode) matches the
        lockstep path, so outcomes are identical across batch widths."""
        rngs = _episode_rngs(self.rng, n) if not self.deterministic else []
        env = self.env.clone()
        for k in range(n):
            obs = env.reset_episode(base + k)
            if env.current_decision is None:
                outcomes[k] = EpisodeOutcome(index=k, total_reward=0.0, length=0)
                continue
            total = 0.0
            length = 0
            info: Dict[str, Any] = {}
            done = False
            while not done:
                action = self.policy.act_single(
                    obs,
                    rng=rngs[k] if rngs else None,
                    deterministic=self.deterministic,
                )
                stats.rounds += 1
                stats.decisions += 1
                if len(stats.round_batches) < _MAX_RECORDED_ROUNDS:
                    stats.round_batches.append(1)
                obs, reward, done, info = env.step(action)
                total += reward
                length += 1
            outcomes[k] = EpisodeOutcome(
                index=k, total_reward=total, length=length, info=dict(info)
            )

    # ------------------------------------------------------------------

    def _run_lockstep(
        self,
        stats: BatchedEvalStats,
        outcomes: List[Optional[EpisodeOutcome]],
        base: int,
        n: int,
    ) -> None:
        inference = self._inference
        if inference is None:
            raise InvariantViolation("lockstep run reached without an inference")
        m = min(self.batch, n)
        k_actions = self.policy.num_actions
        # Each env clone builds its observation straight into its row of
        # the forward's own input (prefix views of one buffer per width).
        obs_mat = inference.input_rows(m)
        slots: List[Any] = [self.env.clone() for _ in range(m)]
        episode_of = [0] * m  # relative episode index per slot
        totals = [0.0] * m
        lengths = [0] * m
        rngs = (
            _episode_rngs(self.rng, n)
            if not self.deterministic
            else []
        )
        actions = np.empty(m, dtype=np.intp)
        # Per-round scratch: Gumbel noise rows (stochastic mode) and a
        # runner-up workspace for the near-tie margin test.
        noise = None if self.deterministic else np.empty((m, k_actions))
        scratch = np.empty((m, k_actions), dtype=np.float64)
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

        while live:
            x = inference.input_rows(live)
            t0 = time.perf_counter()
            logits = inference.forward(x)
            stats.forward_seconds += time.perf_counter() - t0
            self._select_actions(
                logits, x, actions, noise, scratch, episode_of, rngs, live, stats
            )
            stats.rounds += 1
            stats.decisions += live
            if len(stats.round_batches) < _MAX_RECORDED_ROUNDS:
                stats.round_batches.append(live)

            for j in range(live - 1, -1, -1):
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

    # ------------------------------------------------------------------

    def _select_actions(
        self,
        logits: np.ndarray,
        x: np.ndarray,
        actions: np.ndarray,
        noise: Optional[np.ndarray],
        scratch: np.ndarray,
        episode_of: List[int],
        rngs: List[np.random.Generator],
        live: int,
        stats: BatchedEvalStats,
    ) -> None:
        """Fill ``actions[:live]`` from the batched ``logits``, recomputing
        near-tie rows through the exact serial forward (float64 mode).

        Deterministic mode scores rows by the raw logits (mode = argmax);
        stochastic mode adds per-episode Gumbel noise drawn exactly as
        ``Categorical.sample`` inside ``act_single`` would — one
        ``(1, K)`` uniform block per decision from the episode's own
        stream — so the serial reference replays identical noise.
        """
        k = logits.shape[1]
        work = scratch[:live]
        if self.deterministic:
            scores: np.ndarray = logits
        else:
            if noise is None:
                raise InvariantViolation(
                    "stochastic selection reached without a noise workspace"
                )
            for j in range(live):
                u = rngs[episode_of[j]].uniform(1e-12, 1.0, size=(1, k))
                noise[j] = -np.log(-np.log(u[0]))
            scores = np.add(logits, noise[:live], out=work)
        def serial_row(j: int) -> np.ndarray:
            serial = self.policy.logits_single(x[j])
            if not self.deterministic:
                if noise is None:
                    raise InvariantViolation(
                        "stochastic tie fallback reached without a noise workspace"
                    )
                serial = serial + noise[j]
            return serial

        stats.tie_fallbacks += argmax_with_serial_fallback(
            scores, work, actions[:live], serial_row, exact=self._exact
        )
