"""The five workloads.

Each drives the whole pipeline through public entry points only and does
a fixed amount of work per repeat, so its counts repeat exactly.  All of
them start from a committed trained checkpoint: a random-init policy
drops every flow after one decision, which leaves the simulator, the
observation builder and the queue with nothing realistic to do.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perf_harness import Repeat, Trace, Workload, timed, weights_digest
from perf_spec import (
    ABILENE_DECISIONS_PER_FLOW,
    FIXTURES,
    SAMPLE_EVERY,
    SMOKE_DIVISOR,
    WORKLOADS,
)

from repro.core.agent import DistributedCoordinator
from repro.core.env import CoordinationEnvConfig, ServiceCoordinationEnv
from repro.core.trainer import CoordinationEnvBuilder
from repro.eval.scenarios import base_scenario
from repro.parallel import CountingEnvFactory
from repro.profiling import PhaseAccumulator
from repro.rl.acktr import ACKTRConfig, ACKTRTrainer
from repro.rl.policy import ActorCriticPolicy
from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.loadgen import (
    collect_observation_pool,
    poisson_arrivals,
    serve_workload,
)
from repro.sim.metrics import DropReason
from repro.sim.simulator import Simulator

__all__ = ["build_workload", "FixtureError", "ServeOpenPool"]

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"

_FLOW_KEYS = ("flows_generated", "flows_succeeded", "flows_dropped")


class FixtureError(RuntimeError):
    """A committed checkpoint is missing or is not the one the spec pins."""


def load_fixture(name: str) -> ActorCriticPolicy:
    path = FIXTURE_DIR / name
    if not path.is_file():
        raise FixtureError(f"fixture {path} is missing")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != FIXTURES[name]:
        raise FixtureError(
            f"fixture {name} has sha256 {digest}, the spec pins {FIXTURES[name]}; "
            "the workloads would no longer measure the same thing"
        )
    return ActorCriticPolicy.load(path)


def _scaled(work: int, smoke: bool, multiple: int = 1) -> int:
    """``work`` itself, or a 1/SMOKE_DIVISOR share rounded to ``multiple``."""
    if not smoke:
        return work
    return max(multiple, work // SMOKE_DIVISOR // multiple * multiple)


def _mismatches(
    policy: ActorCriticPolicy,
    observations: Sequence[np.ndarray],
    actions: List[int],
    corrupt: bool,
) -> int:
    """Served actions that differ from the serial ``act_single`` reference.

    ``corrupt`` flips the first action beforehand: the harness self-test
    uses it to prove that a wrong answer fails the run.
    """
    if corrupt and actions:
        actions[0] = (actions[0] + 1) % policy.num_actions
    return sum(
        1
        for obs, action in zip(observations, actions)
        if policy.act_single(obs, deterministic=True) != action
    )


def _flow_totals(sims: Sequence[Simulator]) -> np.ndarray:
    """(generated, succeeded, dropped) summed over live simulators."""
    totals = np.zeros(3, dtype=np.int64)
    for sim in sims:
        m = sim.metrics
        totals += (m.flows_generated, m.flows_succeeded, m.flows_dropped)
    return totals


def _unbalanced(sims: Sequence[Simulator]) -> int:
    """Simulators whose counters break generated = succeeded + dropped +
    active, with ``active`` taken from the simulator's own flow table."""
    return sum(
        1
        for sim in sims
        if sim.metrics.flows_generated
        - sim.metrics.flows_succeeded
        - sim.metrics.flows_dropped
        != sim.active_flow_count
    )


# ----------------------------------------------------------------------
# train_acktr_abilene
# ----------------------------------------------------------------------


class TrainAcktrAbilene(Workload):
    """ACKTR updates continuing from the Abilene fixture."""

    name = "train_acktr_abilene"
    WARMUP_UPDATES = 5
    UPDATES = 150
    #: A multiple of ``inversion_interval``, so every segment pays for
    #: the same number of K-FAC inversions.
    SEGMENT_UPDATES = 30
    HORIZON = 400.0

    def __init__(self, smoke: bool) -> None:
        self.updates = _scaled(self.UPDATES, smoke)
        self.config = ACKTRConfig(n_envs=4, n_steps=32)
        self._resolved: Dict[str, Any] = {}

    def setup(self, seed: int) -> None:
        self.env_config = base_scenario(
            pattern="poisson", num_ingress=2, horizon=self.HORIZON
        )
        self.fixture = load_fixture("abilene_acktr.npz")
        trainer = self._warm_trainer(seed)
        self._resolved = {
            "kfac_threads": trainer.kfac_threads,
            "fused_backward_active": trainer.fused_backward_active,
        }

    def _warm_trainer(self, seed: int) -> ACKTRTrainer:
        factory = CountingEnvFactory(
            CoordinationEnvBuilder(self.env_config), offset=seed * self.config.n_envs
        )
        trainer = ACKTRTrainer(
            factory, self.config, seed=seed, policy=self.fixture.clone()
        )
        trainer.runner.info_keys = _FLOW_KEYS
        for _ in range(self.WARMUP_UPDATES):
            trainer.update()
        return trainer

    def repeat(self, seed: int, trace: Optional[Trace] = None) -> Repeat:
        trainer = self._warm_trainer(seed)
        profiler = (
            trainer.attach_profiler(PhaseAccumulator()) if trace is not None else None
        )
        episodes_before = len(trainer.episode_history)
        live_before = _flow_totals([env.simulator for env in trainer.envs])
        per_update = self.config.n_envs * self.config.n_steps
        update_s: List[float] = []
        with timed(trace) as region:
            for done in range(1, self.updates + 1):
                started = time.perf_counter()
                trainer.update()
                update_s.append(time.perf_counter() - started)
                if done % self.SEGMENT_UPDATES == 0 or done == self.updates:
                    region.mark(done * per_update, done)

        sims = [env.simulator for env in trainer.envs]
        finished = trainer.episode_history[episodes_before:]
        flows = _flow_totals(sims) - live_before
        for episode in finished:
            flows += [episode.info[key] for key in _FLOW_KEYS]
        transitions = self.updates * per_update
        cells: Dict[str, float] = {}
        if profiler is not None:
            cells = {
                "rl.runner.policy_forward_s": profiler.policy_forward,
                "rl.acktr.updates": profiler.updates,
                "rl.acktr.stat_skips": profiler.stat_skips,
                "nn.kfac.fisher_stats_s": profiler.fisher_stats,
                "nn.kfac.grad_pass_s": profiler.grad_pass,
                "nn.kfac.inversion_s": profiler.inversion,
                "nn.kfac.precondition_s": profiler.precondition,
            }
        return Repeat(
            wall_s=region.wall_s,
            decisions=transitions,
            flows=float(flows[1] + flows[2]),
            # No decision waits on the learner; the closest thing a user
            # sees is how long an update holds up each transition it
            # consumed.
            segments=region.segments([s / per_update for s in update_s]),
            attempted=transitions,
            failures={"flow_accounting": _unbalanced(sims)},
            counts={
                "sim.decisions": transitions,
                "sim.flows_generated": int(flows[0]),
                "sim.flows_succeeded": int(flows[1]),
                "sim.flows_dropped": int(flows[2]),
                "episodes_finished": len(finished),
                "updates_done": trainer.updates_done - self.WARMUP_UPDATES,
                "digest": weights_digest(trainer.policy),
            },
            cells=cells,
        )

    def resolved_config(self) -> Dict[str, Any]:
        return {
            "updates": self.updates,
            "warmup_updates": self.WARMUP_UPDATES,
            "horizon": self.HORIZON,
            "ACKTRConfig": dataclasses.asdict(self.config),
            **self._resolved,
        }


# ----------------------------------------------------------------------
# coordinate_abilene / coordinate_interroute_churn
# ----------------------------------------------------------------------


class Coordinate(Workload):
    """One coordinator per eval seed, batch-1 decisions, sim in the loop —
    the steps of ``repro.eval.runner._run_eval_seed``."""

    WARMUP_DECISIONS = 2000

    def __init__(
        self,
        name: str,
        fixture: str,
        scenario: Dict[str, Any],
        eval_seeds: int,
        horizon: float,
        smoke: bool,
        corrupt: bool,
    ) -> None:
        self.name = name
        self.fixture_name = fixture
        self.scenario = scenario
        self.eval_seeds = 1 if smoke else eval_seeds
        self.horizon = horizon / 5 if smoke else horizon
        self.corrupt = corrupt

    def setup(self, seed: int) -> None:
        self.env_config: CoordinationEnvConfig = base_scenario(
            horizon=self.horizon, **self.scenario
        )
        self.fixture = load_fixture(self.fixture_name)
        self.factory = partial(
            DistributedCoordinator,
            self.env_config.network,
            self.env_config.catalog,
            self.fixture,
        )
        coordinator, sim = self._deploy(seed)
        for _ in range(self.WARMUP_DECISIONS):
            decision = sim.next_decision()
            if decision is None:
                break
            sim.apply_action(coordinator(decision, sim))

    def _deploy(self, eval_seed: int) -> Tuple[DistributedCoordinator, Simulator]:
        cfg = self.env_config
        coordinator = self.factory()
        traffic = cfg.traffic_factory(np.random.default_rng(eval_seed))
        return coordinator, Simulator(cfg.network, cfg.catalog, traffic, cfg.sim_config)

    def _run_seed(
        self,
        eval_seed: int,
        wrap: Callable[[DistributedCoordinator], Callable[..., int]],
    ) -> Tuple[Any, int, int]:
        """One evaluation seed, in its own frame like ``_run_eval_seed``:
        the coordinator's clones are freed before the next seed builds
        its own, so only one deployment is resident at a time."""
        coordinator, sim = self._deploy(eval_seed)
        metrics = sim.run(wrap(coordinator))
        events = len(sim.faults.log) if sim.faults is not None else 0
        return metrics, events, _unbalanced([sim])

    def repeat(self, seed: int, trace: Optional[Trace] = None) -> Repeat:
        latencies: List[float] = []
        sampled_obs: List[np.ndarray] = []
        sampled_actions: List[int] = []
        ordinal = itertools.count()
        flows = np.zeros(3, dtype=np.int64)
        decisions = network_failures = fault_events = unbalanced = 0
        successes: List[float] = []

        def timed_policy(coordinator: DistributedCoordinator) -> Callable[..., int]:
            def policy(decision: Any, sim: Simulator) -> int:
                started = time.perf_counter()
                action = coordinator(decision, sim)
                latencies.append(time.perf_counter() - started)
                if next(ordinal) % SAMPLE_EVERY == 0:
                    # The action is not applied yet, so rebuilding the
                    # observation reads the state the agent saw.
                    sampled_obs.append(coordinator.adapter.build(decision, sim))
                    sampled_actions.append(action)
                return action

            return policy

        with timed(trace) as region:
            for k in range(self.eval_seeds):
                metrics, events, broken = self._run_seed(seed * 1000 + k, timed_policy)
                decisions += metrics.decisions
                region.mark(decisions, len(latencies))
                flows += (
                    metrics.flows_generated,
                    metrics.flows_succeeded,
                    metrics.flows_dropped,
                )
                network_failures += metrics.drop_reasons.get(
                    DropReason.NETWORK_FAILURE, 0
                )
                fault_events += events
                unbalanced += broken
                successes.append(metrics.success_ratio)

        return Repeat(
            wall_s=region.wall_s,
            decisions=decisions,
            flows=float(flows[1] + flows[2]),
            segments=region.segments(latencies),
            attempted=decisions,
            failures={
                "action_mismatch": _mismatches(
                    self.fixture, sampled_obs, sampled_actions, self.corrupt
                ),
                "flow_accounting": unbalanced,
            },
            counts={
                "sim.decisions": decisions,
                "sim.flows_generated": int(flows[0]),
                "sim.flows_succeeded": int(flows[1]),
                "sim.flows_dropped": int(flows[2]),
                "sim.drop_network_failure": network_failures,
                "faults.events": fault_events,
                "success_ratios": successes,
                "digest": weights_digest(self.fixture),
            },
        )

    def resolved_config(self) -> Dict[str, Any]:
        return {
            "fixture": self.fixture_name,
            "scenario": self.scenario,
            "eval_seeds": self.eval_seeds,
            "horizon": self.horizon,
            "agent_dtype": "f64",
        }


# ----------------------------------------------------------------------
# serve_closed_sim / serve_open_pool
# ----------------------------------------------------------------------


class _Answers:
    """Which request got which answer, checked after the timed region."""

    def __init__(self, capacity: int) -> None:
        self.seen = bytearray(capacity)
        self.actions = [0] * capacity
        self.versions = [0] * capacity

    def record(self, decisions: Sequence[Any]) -> None:
        seen, actions, versions = self.seen, self.actions, self.versions
        for d in decisions:
            rid = d.request_id
            seen[rid] += 1
            actions[rid] = d.action
            versions[rid] = d.policy_version

    def failures(self, accepted: int) -> Dict[str, int]:
        seen = np.frombuffer(self.seen, dtype=np.uint8)[:accepted]
        versions = np.asarray(self.versions[:accepted])
        return {
            "lost": int((seen == 0).sum()),
            "duplicated": int((seen > 1).sum()),
            "version_regressed": int((np.diff(versions) < 0).sum()),
        }


def _engine_cells(engine: ServingEngine) -> Dict[str, float]:
    stats = engine.stats
    latency_ms = stats.latency_percentiles_ms()
    return {
        "serving.engine.forward_s": stats.forward_seconds,
        "serving.engine.flushes": stats.flushes,
        "serving.engine.mean_batch": stats.mean_batch,
        "serving.engine.size_flushes": stats.size_flushes,
        "serving.engine.deadline_flushes": stats.deadline_flushes,
        "serving.engine.forced_flushes": stats.forced_flushes,
        "serving.engine.shed": stats.shed,
        "serving.engine.swaps": stats.swaps,
        "serving.engine.latency_ms_p99": latency_ms["p99"],
        "serving.engine.latency_ms_max": latency_ms["max"],
        "rl.batched.tie_fallbacks": stats.tie_fallbacks,
        "serving.queue.max_depth": stats.max_queue_depth,
    }


def _relative_clock() -> Callable[[], float]:
    origin = time.perf_counter()
    return lambda: time.perf_counter() - origin


class ServeClosedSim(Workload):
    """Simulator clients that each wait for the engine's answer before
    their flow can proceed."""

    name = "serve_closed_sim"
    CLIENTS = 64
    DECISIONS = 72_000
    SEGMENT_DECISIONS = 4_800
    WARMUP_DECISIONS = 3_200
    HORIZON = 400.0

    def __init__(self, smoke: bool, corrupt: bool) -> None:
        self.config = ServingConfig(max_batch=32, deadline_s=0.001, dtype="f64")
        self.decisions = _scaled(self.DECISIONS, smoke, self.config.max_batch)
        self.corrupt = corrupt

    def setup(self, seed: int) -> None:
        self.env_config = base_scenario(
            pattern="poisson", num_ingress=2, horizon=self.HORIZON
        )
        self.fixture = load_fixture("abilene_acktr.npz")
        self._drive(seed, min(self.decisions, self.WARMUP_DECISIONS), None)

    def repeat(self, seed: int, trace: Optional[Trace] = None) -> Repeat:
        return self._drive(seed, self.decisions, trace)

    def _drive(self, seed: int, target: int, trace: Optional[Trace]) -> Repeat:
        master = ServiceCoordinationEnv(self.env_config, seed=seed)
        rows = np.zeros((self.CLIENTS, master.observation_size))
        envs: List[ServiceCoordinationEnv] = []
        for client in range(self.CLIENTS):
            env = master.clone()
            # A private row each: the clones share one adapter scratch.
            env.observation_out = rows[client]
            env.reset_episode(client)
            envs.append(env)
        next_episode = self.CLIENTS
        engine = ServingEngine(self.fixture, self.config, clock=_relative_clock())
        batch = self.config.max_batch

        owner: List[int] = []
        answers = _Answers(target)
        sampled_ids: List[int] = []
        sampled_obs: List[np.ndarray] = []
        finished = np.zeros(3, dtype=np.int64)
        episodes = unbalanced = shed = answered = 0

        def submit(client: int) -> None:
            nonlocal shed
            rid = engine.submit(rows[client])
            if rid is None:
                shed += 1
                return
            owner.append(client)
            if rid % SAMPLE_EVERY == 0:
                sampled_ids.append(rid)
                sampled_obs.append(rows[client].copy())

        with timed(trace) as region:
            for client in range(min(self.CLIENTS, target)):
                submit(client)
            while engine.pending:
                decisions = engine.poll() if engine.pending >= batch else engine.flush()
                answers.record(decisions)
                answered += len(decisions)
                if answered % self.SEGMENT_DECISIONS == 0 or answered == target:
                    region.mark(answered, answered)
                for d in decisions:
                    client = owner[d.request_id]
                    env = envs[client]
                    _, _, done, info = env.step(d.action)
                    more = len(owner) + shed < target
                    if done:
                        episodes += 1
                        finished += [info[key] for key in _FLOW_KEYS]
                        unbalanced += _unbalanced([env.simulator])
                        if more:
                            env.reset_episode(next_episode)
                            next_episode += 1
                    if more:
                        submit(client)

        live = [env.simulator for env in envs if env.current_decision is not None]
        flows = finished + _flow_totals(live)
        failures = answers.failures(len(owner))
        failures["shed"] = shed
        failures["flow_accounting"] = unbalanced + _unbalanced(live)
        failures["action_mismatch"] = _mismatches(
            self.fixture,
            sampled_obs,
            [answers.actions[rid] for rid in sampled_ids],
            self.corrupt,
        )
        return Repeat(
            wall_s=region.wall_s,
            decisions=answered,
            flows=float(flows[1] + flows[2]),
            segments=region.segments(engine.stats.latencies),
            attempted=len(owner) + shed,
            failures=failures,
            counts={
                "sim.decisions": answered,
                "sim.flows_generated": int(flows[0]),
                "sim.flows_succeeded": int(flows[1]),
                "sim.flows_dropped": int(flows[2]),
                "episodes_finished": episodes,
                "flushes": engine.stats.flushes,
                "digest": weights_digest(engine.policy),
            },
            cells=_engine_cells(engine),
        )

    def resolved_config(self) -> Dict[str, Any]:
        return {
            "clients": self.CLIENTS,
            "decisions": self.decisions,
            "horizon": self.HORIZON,
            "ServingConfig": dataclasses.asdict(self.config),
            "queue_capacity": self.config.effective_queue_capacity,
        }


class ServeOpenPool(Workload):
    """Requests that arrive on a schedule whether or not the engine keeps
    up, replayed from a pool of real observations."""

    name = "serve_open_pool"
    RATE = 40_000.0
    REQUESTS = 144_000
    SEGMENT_REQUESTS = 4_000
    WARMUP_REQUESTS = 8_000
    POOL_ROWS = 4_096
    SWAP_EVERY = 500
    SWAP_POOL = 8
    PROBE_REQUESTS = 200_000
    HORIZON = 400.0

    def __init__(self, smoke: bool, corrupt: bool) -> None:
        self.config = ServingConfig(
            max_batch=32, deadline_s=0.001, queue_capacity=8192, dtype="f64"
        )
        self.requests = _scaled(self.REQUESTS, smoke)
        self.probe_requests = _scaled(self.PROBE_REQUESTS, smoke)
        self.corrupt = corrupt
        self._expected: Optional[np.ndarray] = None

    def setup(self, seed: int) -> None:
        self.env_config = base_scenario(
            pattern="poisson", num_ingress=2, horizon=self.HORIZON
        )
        self.fixture = load_fixture("abilene_acktr.npz")
        self.pool = collect_observation_pool(
            self.env_config, self.fixture, self.POOL_ROWS, seed=seed
        )
        # Hot-swap candidates are built here, not in the timed loop: a
        # clone costs ~12 ms, two thousand times an install().
        self.swap_pool = [self.fixture.clone() for _ in range(self.SWAP_POOL)]
        self._expected = None
        self._drive(seed, min(self.requests, self.WARMUP_REQUESTS), None)

    def idle_until(self, clock: Callable[[], float], wake: float) -> None:
        """Spin until ``wake``, the time the next flush falls due
        (sleeping would add the scheduler's latency to every request
        after the gap)."""
        while clock() < wake:
            pass

    def repeat(self, seed: int, trace: Optional[Trace] = None) -> Repeat:
        result = self._drive(seed, self.requests, trace)
        if trace is not None:
            probe = serve_workload(
                self.fixture,
                self.pool,
                requests=self.probe_requests,
                config=self.config,
            )
            result.cells["serving.engine.saturated_decisions_per_s"] = (
                probe.stats.decisions_per_second
            )
        return result

    def _drive(self, seed: int, requests: int, trace: Optional[Trace]) -> Repeat:
        arrivals = poisson_arrivals(self.RATE, requests, seed).tolist()
        pool, rows = self.pool, len(self.pool)
        swap_pool, swap_every = self.swap_pool, self.SWAP_EVERY
        deadline, batch = self.config.deadline_s, self.config.max_batch
        answers = _Answers(requests)
        due: List[float] = []  # request id -> the time it was due
        lag: List[float] = []  # how long after a flush fell due it was polled
        shed = answered = sent = 0
        boundary = self.SEGMENT_REQUESTS
        clock = _relative_clock()
        engine = ServingEngine(self.fixture, self.config, clock=clock)

        with timed(trace) as region:
            while answered + shed < requests:
                # Nothing can flush before the batch fills or the oldest
                # request's deadline passes, so arrivals are handed over
                # in one go at that moment, each stamped with the time it
                # was due: the engine sees what eager submission would
                # have shown it, and a stall in this loop shows as
                # latency of the requests it delayed.
                pending = len(due) - answered
                if pending >= batch:
                    wake = due[answered + batch - 1]
                else:
                    wake = (due[answered] if pending else arrivals[sent]) + deadline
                    fills = sent + batch - pending - 1
                    if fills < requests:
                        wake = min(wake, arrivals[fills])
                self.idle_until(clock, wake)
                now = clock()
                lag.append(now - wake)
                # A backlog larger than the queue (the host froze for a
                # while) waits here rather than being shed: it still
                # counts as latency, from each request's due time.
                while sent < requests and arrivals[sent] <= now and not engine.queue_full:
                    at = arrivals[sent]
                    if engine.submit(pool[sent % rows], now=at) is None:
                        shed += 1
                    else:
                        due.append(at)
                    sent += 1
                    if sent % swap_every == 0:
                        engine.install(swap_pool[sent // swap_every % len(swap_pool)])
                decisions = engine.poll(now)
                answers.record(decisions)
                answered += len(decisions)
                if answered >= boundary or answered + shed == requests:
                    region.mark(answered, answered)
                    boundary += self.SEGMENT_REQUESTS

        if self._expected is None:
            self._expected = np.array(
                [self.fixture.act_single(row, deterministic=True) for row in pool]
            )
        failures = answers.failures(len(due))
        failures["shed"] = shed
        if shed == 0:
            # Without shedding request i carried pool row i % rows, so
            # every answer (not only a sample) has a reference.
            served = np.asarray(answers.actions[:requests])
            if self.corrupt:
                served[0] = (served[0] + 1) % self.fixture.num_actions
            expected = self._expected[np.arange(requests) % rows]
            failures["action_mismatch"] = int((served != expected).sum())
        cells = _engine_cells(engine)
        cells["harness.sched_lag_ms_p99"] = float(np.percentile(lag, 99.0)) * 1e3
        return Repeat(
            wall_s=region.wall_s,
            decisions=answered,
            # No flow exists here; this is the decision rate in units of
            # the flows the fixture finishes per decision on this scenario.
            flows=answered / ABILENE_DECISIONS_PER_FLOW,
            segments=region.segments(engine.stats.latencies),
            attempted=requests,
            failures=failures,
            counts={
                "requests": requests,
                "answered": answered,
                "digest": weights_digest(engine.policy),
            },
            cells=cells,
        )

    def resolved_config(self) -> Dict[str, Any]:
        return {
            "rate_per_s": self.RATE,
            "requests": self.requests,
            "pool_rows": self.POOL_ROWS,
            "swap_every": self.SWAP_EVERY,
            "swap_pool": self.SWAP_POOL,
            "probe_requests": self.probe_requests,
            "ServingConfig": dataclasses.asdict(self.config),
        }


# ----------------------------------------------------------------------


def build_workload(name: str, smoke: bool = False, corrupt: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if name == "train_acktr_abilene":
        return TrainAcktrAbilene(smoke)
    if name == "coordinate_abilene":
        return Coordinate(
            name,
            "abilene_acktr.npz",
            dict(topology="Abilene", pattern="poisson", num_ingress=2),
            eval_seeds=9,
            horizon=2000.0,
            smoke=smoke,
            corrupt=corrupt,
        )
    if name == "coordinate_interroute_churn":
        return Coordinate(
            name,
            "interroute_acktr.npz",
            dict(topology="Interroute", pattern="mmpp", num_ingress=3, faults="churn"),
            eval_seeds=2,
            horizon=1500.0,
            smoke=smoke,
            corrupt=corrupt,
        )
    if name == "serve_closed_sim":
        return ServeClosedSim(smoke, corrupt)
    return ServeOpenPool(smoke, corrupt)
