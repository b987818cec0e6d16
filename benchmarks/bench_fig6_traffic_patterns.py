"""Fig. 6: success ratio vs. load under four traffic patterns.

The paper's headline comparison: percentage of successful flows with an
increasing number of ingress nodes (1-5, i.e. increasing load) under
(a) fixed, (b) Poisson, (c) MMPP, and (d) trace-driven flow arrival, for
the four algorithms.  Expected shape (not absolute numbers):

- all algorithms near-perfect at 1 ingress, degrading with load,
- the distributed DRL at or above every other algorithm on average,
- SP worst overall (no rerouting, no load balancing),
- the central DRL's gap to the distributed DRL widening on stochastic
  patterns (its periodically refreshed rules cannot react to bursts).

Each (pattern, load) cell retrains the learned algorithms on that
scenario, as in the paper (Sec. V-B: "just by retraining ... without
changing any hyperparameters").
"""

from __future__ import annotations

import time

import pytest

from _config import SCALE, suite_config
from repro.eval.runner import ALL_ALGORITHMS, DISTRIBUTED_DRL, SP, build_algorithm_suite
from repro.eval.scenarios import base_scenario
from repro.eval.tables import SweepTable

#: Evaluation seeds are offset from training seeds so test traffic is fresh.
EVAL_SEED_OFFSET = 1000


def _run_pattern_sweep(pattern: str, phases: list) -> SweepTable:
    table = SweepTable(
        title=f"Fig. 6 ({pattern}): success ratio vs. number of ingresses",
        parameter_name="#ingress",
        parameter_values=SCALE.ingress_levels,
    )
    for num_ingress in SCALE.ingress_levels:
        scenario = base_scenario(
            pattern=pattern,
            num_ingress=num_ingress,
            horizon=SCALE.horizon,
            capacity_seed=0,
        )
        start = time.perf_counter()
        suite = build_algorithm_suite(scenario, suite_config())
        trained = time.perf_counter()
        results = suite.compare(
            eval_seeds=[EVAL_SEED_OFFSET + s for s in SCALE.eval_seeds]
        )
        phases += [
            {"name": f"train[{num_ingress} ingress]", "seconds": trained - start},
            {
                "name": f"compare[{num_ingress} ingress]",
                "seconds": time.perf_counter() - trained,
            },
        ]
        for name in ALL_ALGORITHMS:
            table.add_result(results[name])
    return table


def _check_shape(table: SweepTable) -> None:
    """Robust qualitative checks that hold at every scale."""
    drl = table.series(DISTRIBUTED_DRL)
    sp = table.series(SP)
    # The distributed DRL must beat the no-coordination SP baseline on
    # average over the load sweep (the paper reports wide margins).
    assert sum(drl) / len(drl) >= sum(sp) / len(sp) - 0.05, (
        f"distributed DRL ({drl}) should not lose to SP ({sp}) on average"
    )


@pytest.mark.parametrize(
    "pattern",
    [
        pytest.param("fixed", id="fig6a_fixed_arrival"),
        pytest.param("poisson", id="fig6b_poisson_arrival"),
        pytest.param("mmpp", id="fig6c_mmpp_arrival"),
        pytest.param("trace", id="fig6d_trace_arrival"),
    ],
)
def test_fig6_traffic_pattern(pattern, benchmark, bench_report):
    phases: list = []
    table = benchmark.pedantic(
        _run_pattern_sweep, args=(pattern, phases), rounds=1, iterations=1
    )
    total = sum(phase["seconds"] for phase in phases)
    bench_report.add_phases(
        f"fig6_{pattern}", {"phases": phases, "total_seconds": total}
    )
    rendered = table.render()
    bench_report.append(rendered)
    print()
    print(rendered)
    print("phases: " + " ".join(f"{p['name']}={p['seconds']:.2f}s" for p in phases))
    _check_shape(table)
