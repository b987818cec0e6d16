"""Tests for the flow model."""

import math

import pytest

from repro.traffic.flows import Flow, FlowSpec, FlowStatus


def spec(**kwargs) -> FlowSpec:
    defaults = dict(
        service="svc", ingress="v1", egress="v3", data_rate=1.0,
        arrival_time=10.0, duration=1.0, deadline=50.0,
    )
    defaults.update(kwargs)
    return FlowSpec(**defaults)


class TestFlowSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"data_rate": 0.0},
            {"data_rate": -1.0},
            {"duration": 0.0},
            {"deadline": 0.0},
            {"arrival_time": -1.0},
            # NaN is false under every ordering, so a ``< 0`` / ``<= 0``
            # guard lets it through; -inf is just very negative.
            {"data_rate": math.nan},
            {"duration": math.nan},
            {"deadline": math.nan},
            {"arrival_time": math.nan},
            {"data_rate": -math.inf},
            {"duration": -math.inf},
            {"deadline": -math.inf},
            {"arrival_time": -math.inf},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            spec(**kwargs)

    def test_positive_infinity_means_unbounded(self):
        # +inf satisfies "> 0": a flow without a deadline is expressible.
        assert spec(deadline=math.inf).deadline == math.inf

    def test_immutability(self):
        s = spec()
        with pytest.raises(Exception):
            s.data_rate = 5.0


class TestFlowLifecycle:
    def test_initial_state(self):
        f = Flow(spec(), chain_length=3)
        assert f.status is FlowStatus.ACTIVE
        assert f.component_index == 0
        assert f.current_node == "v1"
        assert not f.fully_processed
        assert f.progress == 0.0

    def test_unique_ids(self):
        a, b = Flow(spec(), 1), Flow(spec(), 1)
        assert a.flow_id != b.flow_id
        assert a != b and a == a
        assert len({a, b}) == 2

    def test_chain_length_validation(self):
        with pytest.raises(ValueError):
            Flow(spec(), chain_length=0)

    def test_advance_component_progress(self):
        f = Flow(spec(), chain_length=2)
        assert f.progress == 0.0
        f.advance_component()
        assert f.component_index == 1
        assert f.progress == 0.5
        assert f.instances_traversed == 1
        f.advance_component()
        assert f.fully_processed
        assert f.component_index is None
        assert f.progress == 1.0

    def test_advance_past_end_raises(self):
        f = Flow(spec(), chain_length=1)
        f.advance_component()
        with pytest.raises(RuntimeError, match="fully processed"):
            f.advance_component()

    def test_remaining_time(self):
        f = Flow(spec(arrival_time=10.0, deadline=50.0), 1)
        assert f.remaining_time(10.0) == 50.0
        assert f.remaining_time(40.0) == 20.0
        assert f.remaining_time(70.0) == -10.0

    def test_normalized_remaining_time_clipped(self):
        f = Flow(spec(arrival_time=0.0, deadline=10.0), 1)
        assert f.normalized_remaining_time(0.0) == 1.0
        assert f.normalized_remaining_time(5.0) == 0.5
        assert f.normalized_remaining_time(20.0) == 0.0

    def test_expired(self):
        f = Flow(spec(arrival_time=0.0, deadline=10.0), 1)
        assert not f.expired(9.999)
        assert f.expired(10.0)

    def test_success_records_delay(self):
        f = Flow(spec(arrival_time=10.0), 1)
        f.mark_succeeded(35.0)
        assert f.status is FlowStatus.SUCCEEDED
        assert f.end_to_end_delay() == 25.0

    def test_drop_records_reason(self):
        f = Flow(spec(), 1)
        f.mark_dropped(12.0, "link_capacity")
        assert f.status is FlowStatus.DROPPED
        assert f.drop_reason == "link_capacity"
        assert f.end_to_end_delay() == 2.0

    def test_double_finish_rejected(self):
        f = Flow(spec(), 1)
        f.mark_succeeded(11.0)
        with pytest.raises(RuntimeError, match="already finished"):
            f.mark_dropped(12.0, "x")

    def test_delay_none_while_active(self):
        assert Flow(spec(), 1).end_to_end_delay() is None

    def test_spec_passthroughs(self):
        f = Flow(spec(data_rate=2.5, duration=3.0), 1)
        assert f.data_rate == 2.5
        assert f.duration == 3.0
        assert f.service == "svc"
        assert f.egress == "v3"
        assert f.arrival_time == 10.0
