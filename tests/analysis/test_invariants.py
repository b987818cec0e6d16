"""Tests for the runtime invariant sanitizer (`REPRO_CHECK_INVARIANTS`).

Covers the primitives (``check``/``InvariantViolation``/
``invariants_enabled``), the deep sweep they feed (simulator cross-table
accounting), and the acceptance property: a seeded run with the
sanitizer on is bit-identical to one with it off, on the paper's
default Abilene scenario.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.analysis.invariants import (
    InvariantViolation,
    check,
    invariants_enabled,
)
from repro.baselines import ShortestPathPolicy
from repro.eval import base_scenario, evaluate_policy_on_scenario
from repro.parallel import WorkerTaskError
from repro.sim import SimulationConfig, Simulator

from tests.conftest import make_flow_specs, make_simple_catalog, make_simulator


class TestPrimitives:
    def test_check_passes_on_truthy(self):
        check(True, "never raised")
        check(1, "never raised")

    def test_check_raises_with_structured_context(self):
        with pytest.raises(InvariantViolation) as exc_info:
            check(False, "load exceeded capacity", node="v3", load=2.5)
        err = exc_info.value
        assert err.context == {"node": "v3", "load": 2.5}
        assert "load exceeded capacity" in str(err)
        assert "node='v3'" in str(err)
        assert "load=2.5" in str(err)

    def test_violation_is_an_assertion_error(self):
        # Compatibility: pre-sanitizer code and tests catch AssertionError.
        assert issubclass(InvariantViolation, AssertionError)
        with pytest.raises(AssertionError):
            check(False, "caught by legacy handlers")

    def test_enabled_parses_truthy_spellings(self):
        for value in ("1", "true", "True", "YES", " on "):
            assert invariants_enabled({"REPRO_CHECK_INVARIANTS": value})
        for value in ("", "0", "false", "off", "no"):
            assert not invariants_enabled({"REPRO_CHECK_INVARIANTS": value})
        assert not invariants_enabled({})

    def test_enabled_reads_process_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert not invariants_enabled()
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert invariants_enabled()


class _RefusesTheSweep:
    """A policy that fails any run whose simulator sweeps its invariants."""

    def __call__(self, decision, sim):
        if sim._sanitize:
            raise RuntimeError("this simulator sweeps its invariants")
        return 0


class TestSimulatorSanitizer:
    @staticmethod
    def _build(line3):
        catalog = make_simple_catalog()
        config = SimulationConfig(horizon=50.0)
        return Simulator(line3, catalog, make_flow_specs([1.0]), config)

    def test_env_flag_enables_sweep_without_config(self, monkeypatch, line3):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert self._build(line3)._sanitize

    def test_flag_off_builds_no_sweep(self, monkeypatch, line3):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert not self._build(line3)._sanitize

    def test_pool_workers_read_the_flag_from_their_environment(self, monkeypatch):
        """Nothing pickled to a worker carries the switch: a worker's
        simulator sweeps because the worker inherited the variable."""
        scenario = base_scenario(pattern="poisson", num_ingress=1, horizon=50.0)
        evaluate = partial(
            evaluate_policy_on_scenario, scenario, _RefusesTheSweep, "refuses",
            eval_seeds=(0, 1), workers=2,
        )
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert evaluate().timing.mode == "process-pool"
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        with pytest.raises(WorkerTaskError, match="sweeps its invariants"):
            evaluate()

    def test_sanitized_episode_runs_clean(self, line3):
        """A full episode under the sweep: every decision point passes the
        deep cross-table checks."""
        catalog = make_simple_catalog()
        sim = make_simulator(
            line3, catalog, make_flow_specs([1.0, 2.0, 3.0]), horizon=50.0
        )
        metrics = sim.run(ShortestPathPolicy(line3, catalog))
        assert metrics.flows_generated == 3


class TestBitIdenticalRuns:
    """Acceptance: the sanitizer observes, never perturbs."""

    def _run(self):
        scenario = base_scenario(
            pattern="poisson", num_ingress=2, horizon=300.0
        )
        result = evaluate_policy_on_scenario(
            scenario,
            lambda: ShortestPathPolicy(scenario.network, scenario.catalog),
            "SP",
            eval_seeds=(0, 1),
        )
        return result.success_ratios, result.avg_delays

    def test_default_abilene_run_is_bit_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        plain = self._run()
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        sanitized = self._run()
        assert plain == sanitized
