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
a set is REP004.  ``repro lint`` then lost its SARIF and JSON reports,
its rule subsets, its ``--explain`` pages and its config object: it has one
text report and the runtime no longer imports it.  The inference
precision switch followed: every multi-row select decides on a certified
float32 forward with a float64 fallback, so the dtype flag, its
environment variable, its config fields and the near-tie tolerance are
gone.  ``Network.with_endpoints`` followed: a network is built once,
with its endpoints, and never rebuilt from another.  The float32 cast
followed: ``freeze()`` makes it once, on read-only weights, so nothing
re-casts, re-points or casts for a driver.  The observation oracle and
``SGD`` left the package for the tests that use them, and
``tests/test_every_name_has_a_caller.py`` keeps every public name in
``src/`` called.  The paper's fixed values followed: the networks are
tanh only (``ReLU``, the activation table and the Xavier initialiser
are gone), the trainer coefficients, the rewards, the fault-window
shape and the central DRL's refresh interval are module constants, and
``RewardConfig``, ``CentralDRLConfig`` and the simulator's horizon drop
went with them.  The linter left the package for ``tools/lint.py``, the
simulator lost its sanitizer field and keep duration, and the public
names nothing called went: the trace CSV reader and writer, three
catalog factories, ``ServingEngine.drain``, ``Network.is_connected``,
the MLP's own checkpoint format and ``DistributedCoordinator.fresh``;
the small test networks moved beside their tests.  The names below may
appear only here and in ``tests/test_not_configurable.py``;
:func:`test_deleted_names_stay_out_of_the_tree` scans for them
everywhere else.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro.core.agent import DistributedCoordinator
from repro.core.env import CoordinationEnvConfig, ServiceCoordinationEnv
from repro.core.observations import ObservationAdapter
from repro.eval.scenarios import base_scenario
from repro.nn.mlp import MLP
from repro.rl.policy import ActorCriticPolicy
from repro.serving import ServingEngine
from repro.sim.metrics import MetricsCollector
from repro.telemetry import RECORD_SCHEMAS, TIMING_KINDS

from tests.conftest import make_env_config, make_simple_catalog
from tests.topology.networks import line_network
from tools import lint as linter
from tools.lint import RULES, Finding, lint_source

REPO_ROOT = Path(__file__).resolve().parents[1]

REMOVED_MODULES = [
    "repro.rl.federated",
    "repro.sim.tracing",
    "repro.eval.plots",
    "repro.core.actions",
    "repro.rl.spaces",
    "repro.telemetry.phases",
    "repro.analysis.flow",
    "repro.analysis.sarif",
    "repro.analysis.explain",
    "repro.analysis.linter",
]

REMOVED_EXPORTS = {
    "repro.rl": [
        "FederatedAveraging", "FederatedConfig", "LocalLearner", "Box", "Discrete",
    ],
    "repro.sim": ["DecisionRecord", "FlowTrace", "TracingPolicy"],
    "repro.eval": ["ascii_chart", "chart_sweep"],
    "repro.core": ["ActionAdapter", "NodeAgent", "ObservationParts", "RewardConfig"],
    "repro.nn": ["Adam", "SGD", "ReLU", "xavier_uniform", "zeros"],
    "repro.baselines": ["CoordinationPolicy", "CentralDRLConfig"],
    "repro.telemetry": ["PhaseTimer"],
    "repro.topology": ["line_network", "ring_network", "star_network", "triangle_network"],
    "repro.traffic": ["save_trace", "load_trace"],
    "repro.services": ["web_service", "single_component_service", "linear_resource"],
    "repro.analysis": [
        "analyze_paths", "FLOW_RULES", "Finding", "LintConfig", "RULES",
        "RULE_DOCS", "lint_paths", "lint_source", "render_explanation",
        "render_sarif",
    ],
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
    assert not hasattr(config.network, "is_connected")
    for member in ("save", "load", "set_parameters"):
        assert not hasattr(MLP, member)
    assert not hasattr(DistributedCoordinator, "fresh")
    assert not hasattr(ServingEngine, "drain")


def test_the_phase_record_kind_is_gone():
    assert "phase" not in RECORD_SCHEMAS
    assert "phase" not in TIMING_KINDS
    assert len(RECORD_SCHEMAS) == 12


def test_the_flow_rules_are_gone():
    assert "REP101" not in RULES
    waiver = "x = 1  # repro: " + "allow[REP105] overlap is disjoint\n"
    assert [f.rule for f in lint_source(waiver, path="pkg/mod.py")] == ["REP008"]


def test_the_lint_has_one_report():
    for name in ("LintConfig", "render_json", "REPORT_VERSION"):
        assert not hasattr(linter, name)
    assert "fingerprint" not in dir(Finding)
    assert "to_json" not in dir(Finding)


#: Where a deleted name must not come back: code, docs, CI and the
#: build notes.  The tests that pin a deletion by name live outside it.
SCANNED = (
    "src", "benchmarks", "examples", "tests/core", "tests/rl",
    "README.md", "DESIGN.md", ".github", ".claude",
)

#: Deleted names, one pattern per family.
DELETED_NAMES = {
    "evaluation-width": r"eval-batch|EVAL_BATCH|eval_batch=",
    "switches": (
        r"REPRO_MP_START|REPRO_PROFILE_PHASES|phase_profiling_enabled"
        r"|copy_observations|write-baseline|update-baseline|no-baseline"
        r"|repro-lint-baseline|normalize_advantages|log_every|_episode_rngs"
    ),
    "units": (
        r"FederatedAveraging|LocalLearner|TracingPolicy|FlowTrace|ascii_chart"
        r"|chart_sweep|ActionAdapter|action_adapter|rl\.spaces|neighbor_node_ids"
        r"|record_decision|with_network|PhaseTimer|seed_timeout"
        r"|telemetry\.phases|analysis\.flow|analyze_paths|FLOW_RULES"
        r"|build_program|with_endpoints"
    ),
    "fan-out": (
        r"task_recorders|to_acktr_config|stochastic_rules|set_target_weights"
        r"|series_cap|lint.*--flow"
    ),
    "lint-report": (
        r"render_sarif|RULE_DOCS|render_explanation|LintConfig|REPORT_VERSION"
        r"|lint\.sarif"
    ),
    # The per-node agent object: a node's decision is the coordinator's
    # call on the deployment's one snapshot.
    "deployment-wrapper": r"\bNodeAgent\b|decisions_taken",
    # ``ServingConfig.dtype`` is not in the family: the perf harness
    # builds ``ServingConfig(..., dtype="f64")``, so the field stays and
    # accepts only that value.
    "precision-switch": (
        r"eval_dtype|EVAL_DTYPE|eval-dtype|ARGMAX_TIE_TOLERANCE"
        r"|\bactor_inference\b"
    ),
    # The float32 cast is made once, by ``freeze()``, on read-only
    # weights: nothing re-casts, re-points or casts on a driver's behalf.
    "second-cast": r"\brebind\b|refresh_weights|\b_cast\b",
    # Public names nothing called, and the linter's old home.
    "uncalled": (
        r"\bsave_trace\b|\bload_trace\b|\bweb_service\b|single_component_service"
        r"|linear_resource|is_connected|set_parameters|check_invariants="
        r"|keep_duration|-m repro lint|analysis\.linter|analysis/linter"
    ),
    # The paper's fixed values are constants next to their one reader:
    # the hidden activation, the initialiser, the trainer and reward
    # coefficients, the fault-window shape and the refresh interval I.
    "fixed-values": (
        r"\bRewardConfig\b|validate_shaping|enable_shaping|\binstance_bonus_scale\b"
        r"|link_penalty_scale|keep_penalty_scale|drop_active_at_horizon"
        r"|HORIZON_REACHED|CentralDRLConfig|central_config|xavier_uniform"
        r"|_ACTIVATIONS|\bReLU\b|fisher_coef|mean_downtime|min_downtime"
        r"|degradation_factor|onset_window|entropy_coef|value_loss_coef"
        r"|accumulate=|activation="
    ),
}

#: Files inside the scanned tree a family's scan skips.
_PINNED_IN = {
    # The test that pins the evaluation-width names as gone.
    "evaluation-width": "tests/rl/test_batched.py",
    # The perf harness self-test sets an unread REPRO_* variable to show
    # that the harness scrubs it; the harness is edited only together
    # with the benchmark contract.
    "precision-switch": "benchmarks/perf/test_perf_harness.py",
    # The perf workload table still names the per-node agent object; the
    # harness docs are edited only together with the benchmark contract.
    "deployment-wrapper": "benchmarks/perf/README.md",
}

_SKIPPED_DIRS = {"__pycache__", ".pytest_cache", ".mypy_cache", ".ruff_cache"}


def _scanned_files(root: Path):
    for entry in SCANNED:
        path = root / entry
        if path.is_file():
            yield path
            continue
        for file in sorted(path.rglob("*")):
            parts = set(file.relative_to(root).parts)
            if file.is_file() and not parts & _SKIPPED_DIRS and not any(
                part.endswith(".egg-info") for part in parts
            ):
                yield file


@pytest.mark.parametrize("family", sorted(DELETED_NAMES))
def test_deleted_names_stay_out_of_the_tree(family):
    pattern = re.compile(DELETED_NAMES[family])
    hits = []
    for file in _scanned_files(REPO_ROOT):
        if file == REPO_ROOT / _PINNED_IN.get(family, ""):
            continue
        try:
            text = file.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue  # binary fixture
        for lineno, line in enumerate(text.splitlines(), start=1):
            if pattern.search(line):
                hits.append(f"{file.relative_to(REPO_ROOT)}:{lineno}: {line.strip()}")
    assert not hits, f"a deleted {family} name is back:\n" + "\n".join(hits)
