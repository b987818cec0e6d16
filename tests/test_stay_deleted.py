"""Units that had no caller stay deleted.

ISSUE 21 removed five modules, thirteen exported names and a handful of
members that nothing in ``src/``, ``benchmarks/`` or ``examples/``
reached: the federated learners, ``TracingPolicy``, the ASCII charts,
``ActionAdapter`` with the Gym-style spaces, ``Adam`` and the
``CoordinationPolicy`` protocol.  ``PhaseTimer`` and its ``phase`` record
kind followed: benches time their stages inline, and training phases
have one emitter, ``PhaseAccumulator``.  The whole-program flow analyzer
and its rules REP101-REP105 followed too: the one threaded dispatch
carries runtime guards (``tests/rl/test_acktr.py``), and a float sum over
a set is REP004.  The names below may appear only here — CI greps for
them everywhere else.
"""

from __future__ import annotations

import importlib

import pytest

from repro.analysis.linter import lint_source
from repro.cli import main
from repro.core.env import CoordinationEnvConfig, ServiceCoordinationEnv
from repro.core.observations import ObservationAdapter
from repro.eval.scenarios import base_scenario
from repro.rl.policy import ActorCriticPolicy
from repro.sim.metrics import MetricsCollector
from repro.telemetry import RECORD_SCHEMAS, TIMING_KINDS
from repro.topology import line_network

from tests.conftest import make_env_config, make_simple_catalog

REMOVED_MODULES = [
    "repro.rl.federated",
    "repro.sim.tracing",
    "repro.eval.plots",
    "repro.core.actions",
    "repro.rl.spaces",
    "repro.telemetry.phases",
    "repro.analysis.flow",
]

REMOVED_EXPORTS = {
    "repro.rl": [
        "FederatedAveraging", "FederatedConfig", "LocalLearner", "Box", "Discrete",
    ],
    "repro.sim": ["DecisionRecord", "FlowTrace", "TracingPolicy"],
    "repro.eval": ["ascii_chart", "chart_sweep"],
    "repro.core": ["ActionAdapter"],
    "repro.nn": ["Adam"],
    "repro.baselines": ["CoordinationPolicy"],
    "repro.telemetry": ["PhaseTimer"],
    "repro.analysis": ["analyze_paths", "FLOW_RULES"],
}


@pytest.mark.parametrize("module", REMOVED_MODULES)
def test_removed_module_does_not_import(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize("package", sorted(REMOVED_EXPORTS))
def test_removed_names_are_not_exported(package):
    module = importlib.import_module(package)
    for name in REMOVED_EXPORTS[package]:
        assert name not in module.__all__
        assert not hasattr(module, name)


def _line3_config() -> CoordinationEnvConfig:
    return make_env_config(line_network(3), make_simple_catalog())


@pytest.mark.parametrize(
    "build", [base_scenario, _line3_config], ids=["abilene", "line3"]
)
def test_the_action_space_has_one_spelling(build):
    config = build()
    env = ServiceCoordinationEnv(config, seed=0)
    policy = ActorCriticPolicy(env.observation_size, env.num_actions, hidden=(8,), rng=0)
    assert env.num_actions == config.network.degree + 1 == policy.num_actions
    for candidate in (env, env.clone()):
        assert not hasattr(candidate, "action_adapter")
        assert candidate.num_actions == env.num_actions


def test_members_without_callers_are_gone():
    config = _line3_config()
    assert not hasattr(ObservationAdapter(config.network, config.catalog), "space")
    assert not hasattr(config.network, "neighbor_node_ids")
    assert not hasattr(config.network, "_neighbor_node_ids")
    assert not hasattr(MetricsCollector(), "record_decision")
    assert not hasattr(CoordinationEnvConfig, "with_network")


def test_the_phase_record_kind_is_gone():
    assert "phase" not in RECORD_SCHEMAS
    assert "phase" not in TIMING_KINDS
    assert len(RECORD_SCHEMAS) == 12


def test_the_flow_rules_are_gone(capsys):
    assert main(["lint", "--explain", "REP101"]) != 0
    assert "REP101" in capsys.readouterr().out
    waiver = "x = 1  # repro: " + "allow[REP105] overlap is disjoint\n"
    assert [f.rule for f in lint_source(waiver, path="pkg/mod.py")] == ["REP008"]
