"""Tests for metrics collection."""

import pytest

from repro.sim.metrics import DropReason, MetricsCollector
from repro.traffic.flows import Flow, FlowSpec


def make_flow(arrival=0.0, deadline=100.0) -> Flow:
    return Flow(
        FlowSpec(service="s", ingress="a", egress="b",
                 arrival_time=arrival, deadline=deadline),
        chain_length=1,
    )


class TestMetricsCollector:
    def test_success_ratio_is_objective_of(self):
        collector = MetricsCollector()
        for _ in range(3):
            flow = make_flow()
            collector.record_generated(flow)
            flow.mark_succeeded(5.0)
            collector.record_success(flow)
        flow = make_flow()
        collector.record_generated(flow)
        flow.mark_dropped(5.0, DropReason.LINK_CAPACITY)
        collector.record_drop(flow, DropReason.LINK_CAPACITY)
        assert collector.success_ratio == pytest.approx(0.75)

    def test_ratio_zero_before_any_finish(self):
        collector = MetricsCollector()
        collector.record_generated(make_flow())
        assert collector.success_ratio == 0.0

    def test_unfinished_flows_not_counted(self):
        """The objective divides by finished flows only (Eq. 1)."""
        collector = MetricsCollector()
        for _ in range(5):
            collector.record_generated(make_flow())
        flow = make_flow()
        collector.record_generated(flow)
        flow.mark_succeeded(1.0)
        collector.record_success(flow)
        assert collector.success_ratio == 1.0

    def test_finalize_snapshot(self):
        collector = MetricsCollector()
        a, b = make_flow(arrival=0.0), make_flow(arrival=10.0)
        collector.record_generated(a)
        collector.record_generated(b)
        a.hops = 3
        a.mark_succeeded(20.0)
        collector.record_success(a)
        b.mark_dropped(15.0, DropReason.NODE_CAPACITY)
        collector.record_drop(b, DropReason.NODE_CAPACITY)
        collector.decisions += 1  # as Simulator.apply_action counts them
        metrics = collector.finalize(horizon=100.0)
        assert metrics.flows_generated == 2
        assert metrics.flows_succeeded == 1
        assert metrics.flows_dropped == 1
        assert metrics.avg_end_to_end_delay == 20.0
        assert metrics.avg_hops == 3
        assert metrics.decisions == 1
        assert metrics.horizon == 100.0
        assert metrics.drop_reasons == {DropReason.NODE_CAPACITY: 1}

    def test_no_successes_gives_none_delay(self):
        metrics = MetricsCollector().finalize(horizon=10.0)
        assert metrics.avg_end_to_end_delay is None
        assert metrics.avg_hops is None

    def test_summary_renders(self):
        collector = MetricsCollector()
        flow = make_flow()
        collector.record_generated(flow)
        flow.mark_succeeded(3.0)
        collector.record_success(flow)
        summary = collector.finalize(10.0).summary()
        assert "ratio=1.000" in summary
        assert "avg_delay=3.00" in summary

    def test_success_series_tracks_running_ratio(self):
        collector = MetricsCollector()
        first = make_flow()
        collector.record_generated(first)
        first.mark_succeeded(1.0)
        collector.record_success(first)
        second = make_flow()
        collector.record_generated(second)
        second.mark_dropped(2.0, DropReason.INVALID_ACTION)
        collector.record_drop(second, DropReason.INVALID_ACTION)
        assert collector.success_series == [(1.0, 1.0), (2.0, 0.5)]


def _finish_flows(collector, count, start_time=0.0):
    for index in range(count):
        flow = make_flow()
        collector.record_generated(flow)
        flow.mark_succeeded(start_time + index + 1.0)
        collector.record_success(flow)


class TestSeriesCap:
    def test_uncapped_series_grows_with_flows(self):
        collector = MetricsCollector()
        _finish_flows(collector, 500)
        assert len(collector.success_series) == 500


class TestSuccessRatioSemantics:
    """Pin the documented 0.0 ambiguity and in-flight accounting."""

    def test_all_dropped_and_none_finished_both_zero(self):
        # The two 0.0 cases are distinguished via flows_active /
        # finished counts, not via the ratio itself.
        none_finished = MetricsCollector()
        none_finished.record_generated(make_flow())
        assert none_finished.success_ratio == 0.0
        assert none_finished.flows_active == 1

        all_dropped = MetricsCollector()
        flow = make_flow()
        all_dropped.record_generated(flow)
        flow.mark_dropped(1.0, DropReason.DEADLINE_EXPIRED)
        all_dropped.record_drop(flow, DropReason.DEADLINE_EXPIRED)
        assert all_dropped.success_ratio == 0.0
        assert all_dropped.flows_active == 0

    def test_flows_active_in_finalized_metrics(self):
        collector = MetricsCollector()
        for _ in range(3):
            collector.record_generated(make_flow())
        flow = make_flow()
        collector.record_generated(flow)
        flow.mark_succeeded(1.0)
        collector.record_success(flow)
        metrics = collector.finalize(horizon=10.0)
        assert metrics.flows_active == 3
        assert metrics.success_ratio == 1.0  # in-flight flows excluded


class TestDelaySummary:
    def test_none_without_successes(self):
        assert MetricsCollector().delay_summary() is None

    def test_percentiles_of_known_delays(self):
        collector = MetricsCollector()
        for delay in range(1, 101):  # completion at t=delay, arrival 0
            flow = make_flow()
            collector.record_generated(flow)
            flow.mark_succeeded(float(delay))
            collector.record_success(flow)
        summary = collector.delay_summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)
