"""Fig. 9: scalability on large real-world topologies.

(a) Success ratio on Abilene, BT Europe, China Telecom, and Interroute
    (Poisson arrival, two ingresses, one egress).  The paper finds the
    distributed DRL near-perfect everywhere despite the size and degree
    skew, clearly ahead of the central DRL and GCASP on average, with SP
    collapsing on BT Europe and Interroute.

(b) Inference time per online decision (log scale in the paper): the
    distributed DRL decides in O(Δ_G) — about a millisecond, invariant to
    the network size — while the central DRL's per-refresh work grows with
    the number of nodes (observation and rule vectors are |V|-sized).
"""

from __future__ import annotations

import time

from _config import SCALE, suite_config
from repro.baselines.central_drl import CentralDRLPolicy
from repro.eval.runner import (
    ALL_ALGORITHMS,
    CENTRAL_DRL,
    DISTRIBUTED_DRL,
    SP,
    build_algorithm_suite,
    evaluate_policy_on_scenario,
)
from repro.eval.scenarios import base_scenario
from repro.eval.tables import SweepTable

EVAL_SEED_OFFSET = 1000


def _eval_seeds():
    return [EVAL_SEED_OFFSET + s for s in SCALE.eval_seeds]


def _run_scalability(phases: list):
    success = SweepTable(
        title="Fig. 9a: success ratio on large real-world topologies",
        parameter_name="network",
        parameter_values=SCALE.topologies,
    )
    timing = SweepTable(
        title="Fig. 9b: inference time per decision [ms] (central: per rule refresh)",
        parameter_name="network",
        parameter_values=SCALE.topologies,
    )
    for topology in SCALE.topologies:
        scenario = base_scenario(
            pattern="poisson",
            num_ingress=2,
            topology=topology,
            horizon=SCALE.horizon,
            capacity_seed=0,
        )
        start = time.perf_counter()
        suite = build_algorithm_suite(scenario, suite_config())
        trained = time.perf_counter()
        results = suite.compare(eval_seeds=_eval_seeds(), time_decisions=True)
        compared = time.perf_counter()
        for name in ALL_ALGORITHMS:
            success.add_result(results[name])
        timing.add(DISTRIBUTED_DRL, results[DISTRIBUTED_DRL].mean_decision_ms)
        # The central approach's decision-making cost is the rule refresh
        # (its per-flow work is rule lookup); measure one refresh directly.
        # One in-process run (workers=1): the refresh times are read off
        # this very instance afterwards.
        central = suite.central
        assert central is not None
        fresh = CentralDRLPolicy(scenario.network, scenario.catalog, central.policy)
        evaluate_policy_on_scenario(
            scenario, lambda: fresh, CENTRAL_DRL, eval_seeds=_eval_seeds()[:1],
            workers=1,
        )
        phases += [
            {"name": f"train[{topology}]", "seconds": trained - start},
            {"name": f"compare[{topology}]", "seconds": compared - trained},
            {
                "name": f"central_refresh[{topology}]",
                "seconds": time.perf_counter() - compared,
            },
        ]
        timing.add(CENTRAL_DRL, fresh.mean_rule_update_seconds * 1000.0)
    return success, timing


def test_fig9_scalability(benchmark, bench_report):
    phases: list = []
    success, timing = benchmark.pedantic(
        _run_scalability, args=(phases,), rounds=1, iterations=1
    )
    total = sum(phase["seconds"] for phase in phases)
    bench_report.add_phases(
        "fig9_scalability", {"phases": phases, "total_seconds": total}
    )
    rendered = success.render()
    bench_report.append(rendered)
    print()
    print(rendered)
    rendered = timing.render(cell_format="{mean:.3f}")
    bench_report.append(rendered)
    print()
    print(rendered)
    print("phases: " + " ".join(f"{p['name']}={p['seconds']:.2f}s" for p in phases))

    # Distributed inference time must be invariant to network size: the
    # largest network may not cost more than a few x the smallest.
    times = timing.series(DISTRIBUTED_DRL)
    assert max(times) <= 5 * min(times) + 1e-3, (
        f"distributed decision time should be ~network-size invariant: {times}"
    )
    # The distributed DRL should beat SP everywhere.
    drl = success.series(DISTRIBUTED_DRL)
    sp = success.series(SP)
    assert sum(drl) / len(drl) >= sum(sp) / len(sp), (
        f"distributed DRL ({drl}) should beat SP ({sp}) on average"
    )
