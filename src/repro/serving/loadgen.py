"""Load generation for the serving engine (bench + ``repro serve-bench``).

Two drive modes over one :class:`~repro.serving.engine.ServingEngine`:

- **Open loop** (``rate > 0``): request arrival times are a seeded
  Poisson process, independent of service progress — the honest way to
  measure latency under load.  Every due arrival is submitted (with its
  *scheduled* arrival time as the enqueue timestamp, even when the
  driver was busy inside a flush), so overload genuinely overflows the
  capped queue and exercises load shedding rather than silently
  throttling.
- **Closed-loop saturation** (``rate`` None/0): the driver keeps the
  queue topped up to capacity and never sheds — a sustained measurement
  of peak decisions/sec, the "saturating arrival rate" limit.

Both modes run the engine on a relative wall clock started at drive
time, flush tails through the normal triggers (open loop) or forced
flushes (saturation), and leave all counters in ``engine.stats``.
"""

from __future__ import annotations

import time
from typing import Any, Optional

import numpy as np

from repro.rl.policy import ActorCriticPolicy
from repro.serving.engine import ServingConfig, ServingEngine
from repro.telemetry import NULL_RECORDER, Recorder

__all__ = ["poisson_arrivals", "collect_observation_pool", "serve_workload"]

#: Sleep (instead of spin) while the queue is empty and the next arrival
#: is at least this far away — keeps low-rate runs off 100% CPU without
#: distorting latency (the margin is far above sleep granularity).
_IDLE_SLEEP_THRESHOLD_S = 0.005


def poisson_arrivals(
    rate: float, count: int, rng: Any
) -> np.ndarray:
    """``count`` cumulative Poisson arrival offsets (seconds) at ``rate``
    requests/sec, drawn from a seeded generator (pass a seed or a
    ``np.random.Generator``)."""
    if not rate > 0.0:
        raise ValueError(f"arrival rate must be > 0, got {rate}")
    if count < 0:
        raise ValueError(f"arrival count must be >= 0, got {count}")
    gen = np.random.default_rng(rng)
    return np.cumsum(gen.exponential(1.0 / rate, size=count))


def collect_observation_pool(
    env_config: Any,
    policy: ActorCriticPolicy,
    pool: int,
    seed: int = 0,
) -> np.ndarray:
    """Harvest ``pool`` real observation vectors by driving scenario
    episodes with the greedy policy — the request payloads that load
    generation replays against the serving engine."""
    from repro.core.env import ServiceCoordinationEnv

    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    env = ServiceCoordinationEnv(env_config, seed=seed)
    rows = np.empty((pool, env.observation_size), dtype=np.float64)
    count = 0
    episodes = 0
    max_episodes = 4 * pool + 8
    while count < pool:
        if episodes >= max_episodes:
            raise RuntimeError(
                f"collected only {count}/{pool} observations after "
                f"{episodes} episodes; scenario produces too few decisions"
            )
        episodes += 1
        obs = env.reset()
        done = env.current_decision is None
        while not done and count < pool:
            rows[count] = obs
            count += 1
            obs, _, done, _ = env.step(policy.act_single(obs))
    return rows


def serve_workload(
    policy: ActorCriticPolicy,
    observations: np.ndarray,
    *,
    requests: int,
    rate: Optional[float] = None,
    config: ServingConfig = ServingConfig(),
    arrival_seed: int = 0,
    swap_every: int = 0,
    recorder: Recorder = NULL_RECORDER,
) -> ServingEngine:
    """Drive one serving engine through ``requests`` requests.

    Args:
        policy: Policy to serve (version 0).
        observations: ``(P, obs_dim)`` pool of request payloads, cycled.
        requests: Number of requests to generate.
        rate: Open-loop Poisson arrival rate in requests/sec; ``None``
            or 0 switches to closed-loop saturation (peak throughput).
        config: Engine knobs (batch, deadline, queue capacity, dtype).
        arrival_seed: Seed of the Poisson arrival process.
        swap_every: Install a hot-swapped clone of the serving policy
            every this many submissions (0 = never) — exercises the
            flush-boundary swap under load; cloned weights leave the
            responses unchanged while ``policy_version`` advances.
        recorder: Telemetry sink; one ``serving`` record is emitted
            after the drive.

    Returns:
        The driven engine — counters in ``engine.stats``, final version
        in ``engine.policy_version``.
    """
    observations = np.asarray(observations, dtype=np.float64)
    if observations.ndim != 2 or observations.shape[0] < 1:
        raise ValueError(
            f"observations must be a non-empty (P, obs_dim) matrix, got "
            f"shape {observations.shape}"
        )
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if swap_every < 0:
        raise ValueError(f"swap_every must be >= 0, got {swap_every}")
    start = time.perf_counter()

    def clock() -> float:
        return time.perf_counter() - start

    engine = ServingEngine(policy, config, clock=clock, recorder=recorder)
    drive_start = engine.clock()
    if rate is not None and rate > 0.0:
        arrivals = poisson_arrivals(rate, requests, arrival_seed)
        _run_open_loop(engine, observations, arrivals, swap_every)
    else:
        _run_saturated(engine, observations, requests, swap_every)
    engine.stats.wall_seconds = engine.clock() - drive_start
    engine.emit_telemetry(rate=float(rate) if rate else 0.0)
    return engine


def _maybe_swap(engine: ServingEngine, submitted: int, swap_every: int) -> None:
    if swap_every and submitted % swap_every == 0:
        engine.install(engine.policy.clone())


def _run_open_loop(
    engine: ServingEngine,
    observations: np.ndarray,
    arrivals: np.ndarray,
    swap_every: int,
) -> None:
    pool = observations.shape[0]
    n = int(arrivals.shape[0])
    i = 0
    while i < n:
        now = engine.clock()
        # Submit *every* due arrival (open loop: arrivals don't wait for
        # service), stamped with its scheduled arrival time.
        while i < n and arrivals[i] <= now:
            engine.submit(observations[i % pool], now=float(arrivals[i]))
            i += 1
            _maybe_swap(engine, i, swap_every)
        engine.poll(now=now)
        if i < n and engine.pending == 0:
            gap = float(arrivals[i]) - engine.clock()
            if gap > _IDLE_SLEEP_THRESHOLD_S:
                time.sleep(gap / 2.0)
    # Tail: no arrivals left — serve the remainder under the normal
    # triggers so tail latencies still honour the deadline semantics.
    while engine.pending:
        engine.poll()


def _run_saturated(
    engine: ServingEngine,
    observations: np.ndarray,
    requests: int,
    swap_every: int,
) -> None:
    pool = observations.shape[0]
    submitted = 0
    while engine.stats.served < requests:
        while submitted < requests and not engine.queue_full:
            engine.submit(observations[submitted % pool])
            submitted += 1
            _maybe_swap(engine, submitted, swap_every)
        if not engine.poll() and engine.pending:
            # Tail smaller than one full batch: force it out.
            engine.flush()
