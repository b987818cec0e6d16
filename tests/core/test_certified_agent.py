"""Deployed agents decide on the certified float32 cast, else in float64.

Every action a :class:`DistributedCoordinator` takes is the float64
action; the float32 forward only answers when its error bound proves
that.  These tests pin how often it declines on the committed Abilene
fixture, that a declined decision is counted, that the sanitizer
re-decides certified ones, and that the observations the adapter builds
stay inside the bound's domain on generated scenarios.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import InvariantViolation
from repro.baselines import GCASPPolicy
from repro.core.agent import DistributedCoordinator
from repro.core.observations import ObservationAdapter
from repro.eval.scenarios import FAULT_PRESETS, base_scenario
from repro.nn.mlp import MLPInference
from repro.rl.policy import ActorCriticPolicy
from repro.sim.simulator import Simulator

FIXTURE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "perf" / "fixtures" / "abilene_acktr.npz"
)


def _run(scenario, policy, seed=0):
    sim = Simulator(
        scenario.network,
        scenario.catalog,
        scenario.traffic_factory(np.random.default_rng(seed)),
        scenario.sim_config,
    )
    return sim.run(policy)


class TestFallbackShare:
    def test_abilene_fixture_declines_under_two_percent(self):
        """Base scenario, eval seed 0, horizon 2000: the bound declines
        19 of 4,506 decisions (0.42 %).  A looser bound would send more
        decisions through the second, float64 forward."""
        scenario = base_scenario(horizon=2000.0)
        coordinator = DistributedCoordinator(
            scenario.network, scenario.catalog, ActorCriticPolicy.load(FIXTURE)
        )
        metrics = _run(scenario, coordinator)
        assert metrics.decisions > 4000
        fallbacks = coordinator.policy.certified_workspace.fallbacks
        assert 0 < fallbacks < 0.02 * metrics.decisions

    def test_fresh_coordinator_counts_from_zero(self):
        scenario = base_scenario(horizon=300.0)
        coordinator = DistributedCoordinator(
            scenario.network, scenario.catalog, ActorCriticPolicy.load(FIXTURE)
        )
        _run(scenario, coordinator)
        fresh = DistributedCoordinator(
            scenario.network, scenario.catalog, coordinator.policy
        )
        assert fresh.policy.certified_workspace is not None
        assert fresh.policy.certified_workspace.fallbacks == 0


class TestSanitizerCrossCheck:
    def _deployment(self):
        scenario = base_scenario(horizon=300.0)
        policy = ActorCriticPolicy.load(FIXTURE)
        return scenario, policy

    def test_a_wrong_certified_answer_raises_naming_node_and_margin(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        scenario, policy = self._deployment()
        coordinator = DistributedCoordinator(
            scenario.network, scenario.catalog, policy
        )
        honest = MLPInference.certified_argmax
        num_actions = policy.num_actions

        def off_by_one(workspace, x):
            action = honest(workspace, x)
            return action if action < 0 else (action + 1) % num_actions

        monkeypatch.setattr(MLPInference, "certified_argmax", off_by_one)
        with pytest.raises(InvariantViolation) as info:
            _run(scenario, coordinator)
        context = info.value.context
        assert context["node"] in scenario.network.node_names
        assert context["certified"] == (context["exact"] + 1) % num_actions
        assert context["margin"] < 0 < context["delta"]
        assert "float64" in str(info.value)

    def test_sanitizer_on_re_decides_every_certified_decision(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        scenario, policy = self._deployment()
        coordinator = DistributedCoordinator(
            scenario.network, scenario.catalog, policy
        )
        calls = []
        exact = ActorCriticPolicy.logits_single
        monkeypatch.setattr(
            ActorCriticPolicy,
            "logits_single",
            lambda self, obs: calls.append(1) or exact(self, obs),
        )
        metrics = _run(scenario, coordinator)
        # Certified decisions re-decided + declined ones decided: all.
        assert len(calls) == metrics.decisions

    def test_sanitizer_off_runs_float64_only_for_fallbacks(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        scenario, policy = self._deployment()
        coordinator = DistributedCoordinator(
            scenario.network, scenario.catalog, policy
        )
        calls = []
        exact = ActorCriticPolicy.logits_single
        monkeypatch.setattr(
            ActorCriticPolicy,
            "logits_single",
            lambda self, obs: calls.append(1) or exact(self, obs),
        )
        _run(scenario, coordinator)
        assert len(calls) == coordinator.policy.certified_workspace.fallbacks


class TestWritablePoliciesDecideInFloat64:
    def test_no_cast_without_freeze(self):
        policy = ActorCriticPolicy.load(FIXTURE)
        assert policy.certified_workspace is None
        assert policy.clone().freeze().certified_workspace is not None
        assert policy.clone().freeze().clone().certified_workspace is None

    def test_freezing_twice_keeps_the_cast_and_its_fallback_count(self):
        """``fallbacks`` is the one count of declined decisions, and a
        serving engine freezes every policy it is given: a second
        ``freeze()`` must neither replace the cast nor reset the count."""
        policy = ActorCriticPolicy(8, 3, hidden=(16,), rng=0).freeze()
        workspace = policy.certified_workspace
        policy.act_single(np.full(8, 2.0))  # outside the domain: declined
        assert workspace.fallbacks == 1
        assert policy.freeze() is policy
        assert policy.certified_workspace is workspace
        assert workspace.fallbacks == 1

    def test_snapshot_without_a_finite_bound_gets_no_cast(self, monkeypatch):
        # Weights this large could overflow a float32 sum: no bound.
        scenario = base_scenario(horizon=200.0)
        adapter = ObservationAdapter(scenario.network, scenario.catalog)
        policy = ActorCriticPolicy(adapter.size, scenario.network.degree + 1, rng=0)
        for w in policy.actor.parameters:
            w *= 1e35
        coordinator = DistributedCoordinator(
            scenario.network, scenario.catalog, policy
        )
        assert coordinator.policy.certified_workspace is None
        calls = []
        exact = ActorCriticPolicy.logits_single
        monkeypatch.setattr(
            ActorCriticPolicy,
            "logits_single",
            lambda self, obs: calls.append(1) or exact(self, obs),
        )
        metrics = _run(scenario, coordinator)
        assert len(calls) == metrics.decisions


@st.composite
def scenarios(draw):
    pattern = draw(st.sampled_from(["fixed", "poisson", "mmpp", "trace"]))
    faults = draw(st.sampled_from([None, *FAULT_PRESETS]))
    return base_scenario(
        pattern=pattern,
        num_ingress=draw(st.integers(1, 5)),
        deadline=draw(st.sampled_from([10.0, 20.0, 50.0, 100.0])),
        horizon=300.0,
        topology=draw(st.sampled_from(["Abilene", "BT Europe"])),
        capacity_seed=draw(st.integers(0, 3)),
        faults=faults,
    ), draw(st.integers(0, 2**16))


class TestObservationDomain:
    """The bound holds for ‖x‖∞ ≤ 1; the adapter's rows must stay there."""

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(scenarios())
    def test_built_rows_lie_in_the_unit_box(self, case):
        scenario, seed = case
        adapter = ObservationAdapter(scenario.network, scenario.catalog)
        gcasp = GCASPPolicy(scenario.network, scenario.catalog)
        worst = []

        def observed(decision, sim):
            row = adapter.build(decision, sim)
            worst.append(float(np.abs(row).max()))
            return gcasp(decision, sim)

        metrics = _run(scenario, observed, seed)
        assert len(worst) == metrics.decisions
        assert max(worst, default=0.0) <= 1.0
