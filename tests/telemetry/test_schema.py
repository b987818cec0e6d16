"""Schema round-trip and validation tests for the telemetry stream."""

import json

import pytest

from repro.telemetry import (
    RECORD_SCHEMAS,
    SchemaError,
    canonical_stream,
    strip_timing,
    validate_record,
)

#: One valid example per record kind — the schema's closed vocabulary.
EXAMPLES = {
    "train_update": {
        "kind": "train_update", "update": 1, "policy_loss": 0.1,
        "value_loss": 2.0, "entropy": 1.3, "mean_return": -5.0,
        "wall_seconds": 0.01,
    },
    "seed_result": {
        "kind": "seed_result", "seed": 0,
        "mean_episode_reward": -12.5, "episodes": 4,
    },
    "train_summary": {
        "kind": "train_summary", "algorithm": "acktr",
        "seeds": 2, "best_seed": 1,
    },
    "sim_run": {
        "kind": "sim_run", "flows_generated": 10, "flows_succeeded": 6,
        "flows_dropped": 3, "flows_active": 1, "success_ratio": 6 / 9,
        "drop_reasons": {"link_capacity": 3}, "decisions": 40,
        "horizon": 200.0,
    },
    "fault_event": {
        "kind": "fault_event", "time": 500.0, "fault": "link_failure",
        "phase": "onset", "target": "v2-v3", "flows_dropped": 2,
        "instances_evicted": 0,
    },
    "eval_aggregate": {
        "kind": "eval_aggregate", "name": "SP", "seeds": 3,
        "mean_success": 0.4, "mean_delay": 20.0, "delay_seeds_excluded": 0,
    },
    "eval_batch": {
        "kind": "eval_batch", "batch": 32, "episodes": 10, "rounds": 120,
        "decisions": 3500, "tie_fallbacks": 0, "mean_round_batch": 29.2,
        "forward_seconds": 0.4, "wall_seconds": 1.5,
        "decisions_per_second": 2333.0,
    },
    "task_timing": {"kind": "task_timing", "label": "seed 0", "seconds": 0.5},
    "batch_timing": {
        "kind": "batch_timing", "name": "train", "mode": "serial",
        "workers": 1, "total_seconds": 1.0,
    },
    "train_phases": {
        "kind": "train_phases", "seed": 0, "updates": 30,
        "wall_seconds": 4.0, "sim_advance": 0.5, "obs_build": 0.2,
        "policy_forward": 0.6, "optimizer_update": 2.5,
        "kfac_threads": 2, "fused_backward_active": True,
    },
    "serving": {
        "kind": "serving", "requests": 128, "served": 120, "shed": 8,
        "flushes": 17, "mean_batch": 7.1, "decisions_per_second": 52000.0,
        "swaps": 2, "latency_p99_ms": 1.8,
    },
    "note": {"kind": "note", "message": "hello"},
}


class TestValidateRecord:
    def test_examples_cover_every_kind(self):
        assert set(EXAMPLES) == set(RECORD_SCHEMAS)

    @pytest.mark.parametrize("kind", sorted(EXAMPLES))
    def test_valid_examples_pass(self, kind):
        assert validate_record(EXAMPLES[kind]) == kind

    @pytest.mark.parametrize("kind", sorted(EXAMPLES))
    def test_json_round_trip_stays_valid(self, kind):
        decoded = json.loads(json.dumps(EXAMPLES[kind]))
        assert validate_record(decoded) == kind

    def test_rejects_non_dict(self):
        with pytest.raises(SchemaError, match="not an object"):
            validate_record([1, 2])

    def test_rejects_missing_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            validate_record({"update": 1})

    def test_rejects_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown record kind"):
            validate_record({"kind": "nope"})

    @pytest.mark.parametrize("kind", sorted(EXAMPLES))
    def test_rejects_each_missing_required_field(self, kind):
        for field in RECORD_SCHEMAS[kind]:
            broken = dict(EXAMPLES[kind])
            del broken[field]
            with pytest.raises(SchemaError, match="missing required field"):
                validate_record(broken)

    def test_rejects_wrong_type(self):
        broken = dict(EXAMPLES["train_update"], policy_loss="oops")
        with pytest.raises(SchemaError, match="policy_loss"):
            validate_record(broken)

    def test_rejects_bool_for_numeric(self):
        # bool is an Integral subtype; must not pass as a count.
        broken = dict(EXAMPLES["seed_result"], episodes=True)
        with pytest.raises(SchemaError, match="bool"):
            validate_record(broken)


class TestCanonicalStream:
    def test_strip_timing_removes_wall_clock(self):
        stripped = strip_timing(EXAMPLES["train_update"])
        assert "wall_seconds" not in stripped
        assert stripped["policy_loss"] == 0.1

    def test_drops_timing_kinds(self):
        stream = [
            EXAMPLES["train_update"],
            EXAMPLES["task_timing"],
            EXAMPLES["batch_timing"],
            EXAMPLES["serving"],
            EXAMPLES["seed_result"],
        ]
        canonical = canonical_stream(stream)
        assert [r["kind"] for r in canonical] == ["train_update", "seed_result"]

    def test_equal_modulo_timing(self):
        fast = dict(EXAMPLES["train_update"], wall_seconds=0.001)
        slow = dict(EXAMPLES["train_update"], wall_seconds=9.999)
        assert canonical_stream([fast]) == canonical_stream([slow])
