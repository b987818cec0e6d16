"""Experiment runner: train, evaluate, and compare coordination algorithms.

Mirrors the paper's experiment execution (Sec. V-A4): every algorithm runs
through the identical simulator on the same traffic realisations; figures
report mean and standard deviation over evaluation seeds (the paper uses
30 random seeds; the bench defaults use fewer for laptop-scale runs and
are configurable).

Evaluation runs are independent across seeds *and* algorithms (each gets
a fresh policy instance and its own traffic realisation), so both
:func:`evaluate_policy_on_scenario` and :meth:`AlgorithmSuite.compare`
fan the per-seed simulations out across worker processes via
:mod:`repro.parallel`.  Each task is seeded solely by its evaluation
seed, so parallel results are bit-identical to serial ones; results
carry a timing report quantifying the fan-out's speedup.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.central_drl import (
    CentralDRLConfig,
    CentralDRLPolicy,
    train_central_coordinator,
)
from repro.baselines.gcasp import GCASPPolicy
from repro.baselines.shortest_path import ShortestPathPolicy
from repro.core.agent import DistributedCoordinator
from repro.core.env import CoordinationEnvConfig
from repro.core.trainer import TrainingConfig, train_coordinator
from repro.faults import FaultScenarioConfig
from repro.parallel import TimingReport, run_tasks
from repro.sim.simulator import Simulator
from repro.telemetry import NULL_RECORDER, Recorder

__all__ = [
    "AlgorithmResult",
    "evaluate_policy_on_scenario",
    "SuiteConfig",
    "AlgorithmSuite",
    "build_algorithm_suite",
]

#: Creates a fresh policy instance for one evaluation run.
PolicyFactory = Callable[[], Callable]

#: Algorithm display names, in the paper's legend order.
DISTRIBUTED_DRL = "Distributed DRL"
CENTRAL_DRL = "Central DRL"
GCASP = "GCASP"
SP = "SP"
ALL_ALGORITHMS = (DISTRIBUTED_DRL, CENTRAL_DRL, GCASP, SP)


@dataclass
class AlgorithmResult:
    """Aggregated evaluation of one algorithm on one scenario.

    Attributes:
        name: Algorithm display name.
        success_ratios: Per-evaluation-seed objective ``o_f``.
        avg_delays: Per-seed mean end-to-end delay of successful flows
            (NaN when no flow succeeded in that run).
        delay_weights: Per-seed successful-flow counts, aligned with
            ``avg_delays``; :attr:`mean_delay` weights each seed by it so
            a seed with 3 surviving flows cannot pull the aggregate as
            hard as one with 300.  Empty for results assembled outside
            the runner, in which case the mean falls back to unweighted.
        mean_decision_seconds: Per-seed mean wall-clock time per
            coordination decision (Fig. 9b), when timing was requested.
        timing: Wall-clock accounting of the per-seed fan-out (None for
            results assembled outside the runner).
    """

    name: str
    success_ratios: List[float] = field(default_factory=list)
    avg_delays: List[float] = field(default_factory=list)
    delay_weights: List[float] = field(default_factory=list)
    mean_decision_seconds: List[float] = field(default_factory=list)
    timing: Optional[TimingReport] = None

    @property
    def mean_success(self) -> float:
        """Mean ``o_f`` over seeds; NaN when no seed was evaluated.

        An empty result must not masquerade as "every flow dropped"
        (0.0), so — like :attr:`mean_delay` — the empty aggregate is NaN.
        """
        return float(np.mean(self.success_ratios)) if self.success_ratios else float("nan")

    @property
    def std_success(self) -> float:
        return float(np.std(self.success_ratios)) if self.success_ratios else float("nan")

    @property
    def mean_delay(self) -> float:
        """Successful-flow-weighted mean delay over seeds (NaN if none).

        Seeds where no flow succeeded (NaN delay) carry zero weight;
        :attr:`excluded_delay_seeds` counts them.  Without
        ``delay_weights`` (hand-assembled results) the mean is
        unweighted over the non-NaN seeds.
        """
        weights = (
            self.delay_weights
            if len(self.delay_weights) == len(self.avg_delays)
            else [1.0] * len(self.avg_delays)
        )
        pairs = [
            (d, w)
            for d, w in zip(self.avg_delays, weights)
            if not math.isnan(d) and w > 0
        ]
        total = sum(w for _, w in pairs)
        if not pairs or total <= 0:
            return float("nan")
        return float(sum(d * w for d, w in pairs) / total)

    @property
    def excluded_delay_seeds(self) -> int:
        """Seeds contributing nothing to :attr:`mean_delay` (NaN delay)."""
        return sum(1 for d in self.avg_delays if math.isnan(d))

    @property
    def mean_decision_ms(self) -> float:
        if not self.mean_decision_seconds:
            return float("nan")
        return float(np.mean(self.mean_decision_seconds)) * 1000.0

    def summary(self) -> str:
        def fmt(value: float, spec: str) -> str:
            return "n/a" if math.isnan(value) else format(value, spec)

        return (
            f"{self.name}: success={fmt(self.mean_success, '.3f')}"
            f"±{fmt(self.std_success, '.3f')} "
            f"delay={fmt(self.mean_delay, '.1f')}"
        )


@dataclass(frozen=True)
class _EvalSeedTask:
    """One simulator run: one algorithm, one traffic realisation."""

    env_config: CoordinationEnvConfig
    policy_factory: PolicyFactory
    name: str
    seed: int
    time_decisions: bool


def _run_eval_seed(
    task: _EvalSeedTask, recorder: Recorder
) -> Tuple[float, float, int, Optional[float]]:
    """Simulate one evaluation seed; runs in a worker or in-process.

    Returns ``(success_ratio, avg_delay, flows_succeeded,
    mean_decision_seconds)``; the delay is NaN when no flow succeeded
    (in which case the count is 0), the decision time None unless
    requested.
    """
    policy = task.policy_factory()
    traffic = task.env_config.traffic_factory(np.random.default_rng(task.seed))
    sim = Simulator(
        task.env_config.network,
        task.env_config.catalog,
        traffic,
        task.env_config.sim_config,
    )
    metrics = sim.run(policy, time_decisions=task.time_decisions, recorder=recorder)
    delay = (
        metrics.avg_end_to_end_delay
        if metrics.avg_end_to_end_delay is not None
        else float("nan")
    )
    decision_seconds = sim.mean_decision_seconds if task.time_decisions else None
    return metrics.success_ratio, delay, metrics.flows_succeeded, decision_seconds


def _collect_result(
    name: str,
    per_seed: Sequence[Tuple[float, float, int, Optional[float]]],
    timing: Optional[TimingReport] = None,
    recorder: Recorder = NULL_RECORDER,
) -> AlgorithmResult:
    """Assemble per-seed simulator outputs (in seed order) into a result.

    When the recorder is enabled, one ``eval_aggregate`` record logs the
    weighted aggregation — in particular how many seeds were excluded
    from the delay mean because no flow survived in them.
    """
    result = AlgorithmResult(name=name, timing=timing)
    for success_ratio, delay, flows_succeeded, decision_seconds in per_seed:
        result.success_ratios.append(success_ratio)
        result.avg_delays.append(delay)
        result.delay_weights.append(float(flows_succeeded))
        if decision_seconds is not None:
            result.mean_decision_seconds.append(decision_seconds)
    if recorder.enabled:
        recorder.emit(
            "eval_aggregate",
            name=name,
            seeds=len(result.success_ratios),
            mean_success=result.mean_success,
            mean_delay=result.mean_delay,
            delay_seeds_excluded=result.excluded_delay_seeds,
        )
    return result


def _run_grid(
    env_config: CoordinationEnvConfig,
    factories: Dict[str, PolicyFactory],
    eval_seeds: Sequence[int],
    time_decisions: bool,
    workers: Optional[int],
    batch_name: str,
    recorder: Recorder,
) -> Tuple[Dict[str, AlgorithmResult], TimingReport]:
    """Simulate every (algorithm, evaluation seed) pair as one task batch,
    algorithm-major; returns each algorithm's aggregated row and the
    batch's timing report."""
    eval_seeds = list(eval_seeds)
    grid = [(name, seed) for name in factories for seed in eval_seeds]
    outcome = run_tasks(
        _run_eval_seed,
        [
            _EvalSeedTask(env_config, factories[name], name, seed, time_decisions)
            for name, seed in grid
        ],
        workers=workers,
        labels=[f"{name}/seed {seed}" for name, seed in grid],
        name=batch_name,
        recorder=recorder,
    )
    per_algorithm = len(eval_seeds)
    results = {
        name: _collect_result(
            name,
            outcome.values[i * per_algorithm : (i + 1) * per_algorithm],
            timing=outcome.timing,
            recorder=recorder,
        )
        for i, name in enumerate(factories)
    }
    return results, outcome.timing


def evaluate_policy_on_scenario(
    env_config: CoordinationEnvConfig,
    policy_factory: PolicyFactory,
    name: str,
    eval_seeds: Sequence[int] = (0, 1, 2),
    time_decisions: bool = False,
    workers: Optional[int] = None,
    recorder: Recorder = NULL_RECORDER,
    faults: Optional[FaultScenarioConfig] = None,
) -> AlgorithmResult:
    """Run one algorithm over several traffic realisations of a scenario.

    Each seed gets a fresh policy instance (heuristics carry per-run state)
    and a fresh traffic realisation; all seeds share the scenario's network
    and capacity assignment, exactly like repeated runs in the paper.

    Seeds run in parallel worker processes when ``workers`` (or
    ``REPRO_WORKERS``) exceeds 1 and the scenario/policy pickle; results
    are bit-identical to a serial run either way.  An enabled
    ``recorder`` streams one ``sim_run`` record per seed (merged in seed
    order), fan-out timing, and the final ``eval_aggregate``.

    ``faults`` overrides the scenario's fault configuration for this
    evaluation only — the fault schedule rides inside the (pickled) sim
    config, so every seed sees the identical fault sequence.
    """
    if faults is not None:
        env_config = dataclasses.replace(
            env_config,
            sim_config=dataclasses.replace(env_config.sim_config, faults=faults),
        )
    return _run_grid(
        env_config,
        {name: policy_factory},
        eval_seeds,
        time_decisions,
        workers,
        f"evaluate[{name}]",
        recorder,
    )[0][name]


@dataclass(frozen=True)
class SuiteConfig:
    """Budget of the learned algorithms of a comparison.

    ``training`` is the distributed DRL's :class:`TrainingConfig`; the
    central DRL baseline shares its seeds, ``rl`` hyperparameters and
    ``workers`` and trains for ``central_train_updates`` per seed.  The
    defaults are laptop-scale (minutes); raise them toward the paper's
    budget (k=10 seeds, T=20000) for full-fidelity runs.
    """

    training: TrainingConfig = TrainingConfig(seeds=(0, 1), updates_per_seed=400)
    central_train_updates: int = 250


@dataclass
class AlgorithmSuite:
    """The paper's four algorithms, trained/instantiated for one scenario."""

    env_config: CoordinationEnvConfig
    #: Display names of the algorithms held, in legend order.
    algorithms: Tuple[str, ...]
    coordinator: Optional[DistributedCoordinator] = None
    central: Optional[CentralDRLPolicy] = None
    #: Timing report of the most recent :meth:`compare` fan-out.
    last_timing: Optional[TimingReport] = None

    def factories_for(
        self, env_config: CoordinationEnvConfig
    ) -> Dict[str, PolicyFactory]:
        """Policy factories deployed on a scenario — the training one or
        (generalization experiments, Fig. 8) one the policies never saw.

        The heuristics are built on the evaluation network; the trained
        DRL networks are *re-deployed without retraining* — the
        distributed policy works on any network with the same degree Δ_G
        because its spaces depend only on Δ_G.
        """
        network, catalog = env_config.network, env_config.catalog
        factories: Dict[str, PolicyFactory] = {}
        if DISTRIBUTED_DRL in self.algorithms:
            if self.coordinator is None:
                raise RuntimeError(
                    "suite lists distributed DRL but holds no trained coordinator"
                )
            factories[DISTRIBUTED_DRL] = partial(
                DistributedCoordinator,
                network,
                catalog,
                self.coordinator.policy,
                dtype=self.coordinator.dtype,
            )
        if CENTRAL_DRL in self.algorithms:
            if self.central is None:
                raise RuntimeError(
                    "suite lists central DRL but holds no trained central policy"
                )
            factories[CENTRAL_DRL] = partial(
                CentralDRLPolicy,
                network,
                catalog,
                self.central.policy,
                self.central.config,
            )
        if GCASP in self.algorithms:
            factories[GCASP] = partial(GCASPPolicy, network, catalog)
        if SP in self.algorithms:
            factories[SP] = partial(ShortestPathPolicy, network, catalog)
        return factories

    @property
    def factories(self) -> Dict[str, PolicyFactory]:
        """The suite's factories on the scenario it was trained on."""
        return self.factories_for(self.env_config)

    def compare(
        self,
        env_config: Optional[CoordinationEnvConfig] = None,
        eval_seeds: Sequence[int] = (0, 1, 2),
        time_decisions: bool = False,
        algorithms: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> Dict[str, AlgorithmResult]:
        """Evaluate (a subset of) the suite, optionally on a *different*
        scenario than it was trained on (generalization experiments).

        The algorithms × evaluation seeds grid is flattened into one task
        batch, so a single worker pool covers the whole comparison; the
        batch's timing report lands in :attr:`last_timing`.  An enabled
        ``recorder`` streams per-seed ``sim_run`` records (merged in grid
        order) plus one ``eval_aggregate`` per algorithm.
        """
        env_config = env_config or self.env_config
        factories = self.factories_for(env_config)
        if algorithms:
            factories = {name: factories[name] for name in algorithms}
        results, self.last_timing = _run_grid(
            env_config,
            factories,
            eval_seeds,
            time_decisions,
            workers,
            "compare",
            recorder,
        )
        return results


def build_algorithm_suite(
    env_config: CoordinationEnvConfig,
    suite: SuiteConfig = SuiteConfig(),
    include: Sequence[str] = ALL_ALGORITHMS,
    verbose: bool = False,
) -> AlgorithmSuite:
    """Train the two DRL approaches on a scenario and wrap all algorithms.

    SP and GCASP need no training; the distributed DRL and the central DRL
    are trained on the scenario with the suite's budget (multi-seed with
    best-agent selection, per Alg. 1).  ``suite.training.workers`` fans the
    per-seed training runs out across worker processes.
    """
    training = suite.training
    coordinator = None
    central = None
    if DISTRIBUTED_DRL in include:
        coordinator = train_coordinator(
            env_config, training, verbose=verbose
        ).coordinator
    if CENTRAL_DRL in include:
        central, _ = train_central_coordinator(
            env_config,
            CentralDRLConfig(),
            training.rl,
            seeds=tuple(training.seeds),
            updates_per_seed=suite.central_train_updates,
            verbose=verbose,
            workers=training.workers,
        )
    return AlgorithmSuite(
        env_config=env_config,
        algorithms=tuple(name for name in ALL_ALGORITHMS if name in include),
        coordinator=coordinator,
        central=central,
    )
