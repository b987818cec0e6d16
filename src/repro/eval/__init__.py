"""Evaluation harness: scenarios, experiment runner, result tables."""

from repro.eval.runner import (
    ALL_ALGORITHMS,
    CENTRAL_DRL,
    DISTRIBUTED_DRL,
    GCASP,
    SP,
    AlgorithmResult,
    AlgorithmSuite,
    SuiteConfig,
    build_algorithm_suite,
    evaluate_policy_on_scenario,
)
from repro.eval.scenarios import (
    SERVICE_NAME,
    TRAFFIC_PATTERNS,
    base_scenario,
    build_network,
    make_traffic_factory,
)
from repro.eval.tables import SweepTable, render_table1

__all__ = [
    "ALL_ALGORITHMS",
    "CENTRAL_DRL",
    "DISTRIBUTED_DRL",
    "GCASP",
    "SP",
    "AlgorithmResult",
    "AlgorithmSuite",
    "SuiteConfig",
    "build_algorithm_suite",
    "evaluate_policy_on_scenario",
    "SERVICE_NAME",
    "TRAFFIC_PATTERNS",
    "base_scenario",
    "build_network",
    "make_traffic_factory",
    "SweepTable",
    "render_table1",
]
