"""Ablation: which observation parts matter (Sec. IV-B1 / IV-C1).

The paper motivates each observation component — in particular the
delay-to-egress hints ``D_{v,f}`` ("helps the agent forward f to neighbors
that are in the direction of its egress node") and the neighbor
utilisations.  This ablation trains agents with single parts masked out
(replaced by zeros) at the same budget and compares success ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from _config import SCALE
from repro.core.agent import DistributedCoordinator
from repro.core.env import CoordinationEnvConfig, ServiceCoordinationEnv
from repro.eval.runner import evaluate_policy_on_scenario
from repro.eval.scenarios import base_scenario
from repro.eval.tables import SweepTable
from repro.parallel import EnvBuilder
from repro.rl.acktr import ACKTRConfig
from repro.rl.training import train_multi_seed

EVAL_SEED_OFFSET = 1000


class MaskedObservationEnv:
    """Wraps the coordination env, zeroing selected observation parts."""

    def __init__(self, inner: ServiceCoordinationEnv, masked_parts: Sequence[str]):
        self.inner = inner
        self.observation_size = inner.observation_size
        self.num_actions = inner.num_actions
        slices = inner.observation_adapter.part_slices
        unknown = set(masked_parts) - set(slices)
        if unknown:
            raise ValueError(f"unknown observation parts: {sorted(unknown)}")
        self._slices = [slices[p] for p in masked_parts]

    def _mask(self, obs: np.ndarray) -> np.ndarray:
        obs = obs.copy()
        for s in self._slices:
            obs[s] = 0.0
        return obs

    def reset(self):
        return self._mask(self.inner.reset())

    def step(self, action):
        obs, reward, done, info = self.inner.step(action)
        return self._mask(obs), reward, done, info


class MaskedCoordinator(DistributedCoordinator):
    """Distributed coordinator whose agents see the same masked view."""

    def __init__(self, masked_parts, *args, **kwargs):
        super().__init__(*args, **kwargs)
        slices = self.adapter.part_slices
        self._slices = [slices[p] for p in masked_parts]
        original_build = self.adapter.build

        def masked_build(decision, sim):
            obs = original_build(decision, sim).copy()
            for s in self._slices:
                obs[s] = 0.0
            return obs

        self.adapter.build = masked_build  # type: ignore[method-assign]


@dataclass(frozen=True)
class MaskedEnvBuilder(EnvBuilder):
    """Seed-to-environment factory of one ablation variant (picklable, so
    the training seeds fan out under ``REPRO_WORKERS``)."""

    env_config: CoordinationEnvConfig
    masked_parts: Tuple[str, ...] = ()

    def build(self, env_seed: int):
        inner = ServiceCoordinationEnv(self.env_config, seed=env_seed)
        if not self.masked_parts:
            return inner
        return MaskedObservationEnv(inner, self.masked_parts)


def _train_variant(scenario, masked_parts):
    multi = train_multi_seed(
        MaskedEnvBuilder(scenario, tuple(masked_parts)),
        config=ACKTRConfig(n_steps=SCALE.n_steps),
        seeds=tuple(SCALE.train_seeds),
        updates_per_seed=SCALE.train_updates,
    )
    policy = multi.best_policy
    if masked_parts:
        return lambda: MaskedCoordinator(
            masked_parts, scenario.network, scenario.catalog, policy
        )
    return lambda: DistributedCoordinator(scenario.network, scenario.catalog, policy)


def _run():
    scenario = base_scenario(
        pattern="poisson", num_ingress=2, horizon=SCALE.horizon, capacity_seed=0
    )
    table = SweepTable(
        title="Ablation: masking observation parts (equal training budget)",
        parameter_name="variant",
        parameter_values=["success"],
    )
    variants = [
        ("full observation (paper)", ()),
        ("no egress-delay hints D_vf", ("delays",)),
        ("no neighbor/node utilisation R^V", ("nodes",)),
        ("no instance availability X_v", ("instances",)),
    ]
    for label, masked in variants:
        factory = _train_variant(scenario, masked)
        result = evaluate_policy_on_scenario(
            scenario,
            factory,
            label,
            eval_seeds=[EVAL_SEED_OFFSET + s for s in SCALE.eval_seeds],
        )
        table.add(label, result.mean_success, result.std_success)
    return table


def test_ablation_observation_parts(benchmark, bench_report):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    rendered = table.render()
    bench_report.append(rendered)
    print()
    print(rendered)
    # The full observation should be at least competitive with every
    # masked variant (weak check — small budgets are noisy).
    full = table.rows["full observation (paper)"][0][0]
    for name, cells in table.rows.items():
        if name != "full observation (paper)":
            assert full >= cells[0][0] - 0.25, (
                f"masked variant {name!r} ({cells[0][0]:.2f}) dominates the "
                f"full observation ({full:.2f}) by a suspicious margin"
            )
