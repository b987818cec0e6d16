"""Shared benchmark configuration.

Every bench module reproduces one table/figure of the paper.  The budget
(training updates, seeds, horizon, sweep points) is selected through the
``REPRO_BENCH_SCALE`` environment variable:

- ``smoke``   — minutes; coarse sweeps, tiny training budget.  For CI.
- ``default`` — tens of minutes; the shape of every figure reproduces.
- ``paper``   — hours; the paper's own budget (k=10 seeds, 30 evaluation
  seeds, T=20000 horizon, full sweeps).

The budgets scale the *fidelity*, never the experiment logic: the same
code paths run at every scale.

Orthogonally to the scale, ``REPRO_WORKERS`` selects how many worker
processes the per-seed training and evaluation fan-outs use (serial when
unset); results are bit-identical at any worker count, so the perf knob
never changes a figure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

from repro.core.trainer import TrainingConfig
from repro.eval.runner import SuiteConfig
from repro.parallel import resolve_workers
from repro.rl.acktr import ACKTRConfig

__all__ = ["BenchScale", "SCALE", "WORKERS", "suite_config"]


@dataclass(frozen=True)
class BenchScale:
    """Fidelity knobs shared across all bench modules."""

    name: str
    train_seeds: Tuple[int, ...]
    train_updates: int
    central_train_updates: int
    n_steps: int
    eval_seeds: Tuple[int, ...]
    horizon: float
    ingress_levels: Tuple[int, ...]
    deadlines: Tuple[float, ...]
    topologies: Tuple[str, ...]
    generalization_patterns: Tuple[str, ...]


_SCALES = {
    "smoke": BenchScale(
        name="smoke",
        train_seeds=(0,),
        train_updates=250,
        central_train_updates=100,
        n_steps=64,
        eval_seeds=(0, 1),
        horizon=600.0,
        ingress_levels=(2, 4),
        deadlines=(20.0, 40.0),
        topologies=("Abilene", "BT Europe"),
        generalization_patterns=("poisson",),
    ),
    "default": BenchScale(
        name="default",
        train_seeds=(0, 1),
        train_updates=800,
        central_train_updates=200,
        n_steps=64,
        eval_seeds=(0, 1, 2),
        horizon=1000.0,
        ingress_levels=(2, 4),
        deadlines=(20.0, 30.0, 40.0, 50.0),
        topologies=("Abilene", "BT Europe", "China Telecom", "Interroute"),
        generalization_patterns=("poisson", "mmpp"),
    ),
    "paper": BenchScale(
        name="paper",
        train_seeds=tuple(range(10)),
        train_updates=3000,
        central_train_updates=1000,
        n_steps=64,
        eval_seeds=tuple(range(30)),
        horizon=20000.0,
        ingress_levels=(1, 2, 3, 4, 5),
        deadlines=(20.0, 30.0, 40.0, 50.0),
        topologies=("Abilene", "BT Europe", "China Telecom", "Interroute"),
        generalization_patterns=("fixed", "poisson", "mmpp"),
    ),
}


def _selected_scale() -> BenchScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
    if name not in _SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE={name!r} unknown; choose from {sorted(_SCALES)}"
        )
    return _SCALES[name]


SCALE: BenchScale = _selected_scale()

#: Worker processes for per-seed fan-outs, resolved once from
#: ``REPRO_WORKERS`` (1 = serial).
WORKERS: int = resolve_workers(None)


def suite_config() -> SuiteConfig:
    """The scale's training budget as an eval-harness SuiteConfig."""
    return SuiteConfig(
        training=TrainingConfig(
            seeds=SCALE.train_seeds,
            updates_per_seed=SCALE.train_updates,
            rl=ACKTRConfig(n_steps=SCALE.n_steps),
            workers=WORKERS,
        ),
        central_train_updates=SCALE.central_train_updates,
    )
