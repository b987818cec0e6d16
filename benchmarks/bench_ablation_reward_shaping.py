"""Ablation: reward shaping on vs. off (Sec. IV-B3).

The paper argues the sparse ±10 terminal rewards alone are too rare for a
random initial policy to bootstrap from, and adds three weak shaped
signals.  This ablation trains the distributed DRL with and without
shaping on the same scenario and budget; shaping should not *hurt*, and at
small budgets it typically trains markedly faster (higher success after
the same number of updates).
"""

from __future__ import annotations


from _config import SCALE, suite_config
from repro.eval.runner import DISTRIBUTED_DRL, build_algorithm_suite
from repro.eval.scenarios import base_scenario
from repro.eval.tables import SweepTable

EVAL_SEED_OFFSET = 1000


def _run():
    table = SweepTable(
        title="Ablation: reward shaping (trained at equal budget)",
        parameter_name="variant",
        parameter_values=["success"],
    )
    for label, shaping in (("shaped (paper)", True), ("sparse ±10 only", False)):
        scenario = base_scenario(
            pattern="poisson",
            num_ingress=2,
            horizon=SCALE.horizon,
            capacity_seed=0,
            shaping=shaping,
        )
        suite = build_algorithm_suite(
            scenario, suite_config(), include=(DISTRIBUTED_DRL,)
        )
        result = suite.compare(
            eval_seeds=[EVAL_SEED_OFFSET + s for s in SCALE.eval_seeds]
        )[DISTRIBUTED_DRL]
        table.add(label, result.mean_success, result.std_success)
    return table


def test_ablation_reward_shaping(benchmark, bench_report):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    rendered = table.render()
    bench_report.append(rendered)
    print()
    print(rendered)
    shaped = table.rows["shaped (paper)"][0][0]
    sparse = table.rows["sparse ±10 only"][0][0]
    # Shaping exists to accelerate training; with the bench budget the
    # shaped agent must not be substantially worse than the sparse one.
    assert shaped >= sparse - 0.15, (
        f"shaped training ({shaped:.2f}) fell far below sparse ({sparse:.2f})"
    )
