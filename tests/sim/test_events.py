"""Tests for the event queue."""

import math

import pytest

from repro.sim.events import EventKind, EventQueue


def push(q: EventQueue, time: float, payload=None) -> None:
    q.push(time, EventKind.DECISION, payload)


def drain(q: EventQueue, horizon: float = math.inf) -> list:
    """Every entry due by ``horizon``, in pop order."""
    entries = []
    while (entry := q.pop_due(horizon)) is not None:
        entries.append(entry)
    return entries


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        push(q, 5.0, "b")
        push(q, 1.0, "a")
        push(q, 9.0, "c")
        assert [entry[3] for entry in drain(q)] == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        q = EventQueue()
        push(q, 1.0, "first")
        push(q, 1.0, "second")
        push(q, 1.0, "third")
        assert [entry[3] for entry in drain(q)] == ["first", "second", "third"]

    def test_entry_is_a_plain_tuple(self):
        q = EventQueue()
        q.push(2.0, EventKind.LINK_ARRIVAL, "flow", "v2")
        time, _, kind, payload, node = q.pop_due(2.0)
        assert (time, kind, payload, node) == (
            2.0, EventKind.LINK_ARRIVAL, "flow", "v2"
        )

    def test_empty_pop_returns_none(self):
        assert EventQueue().pop_due(math.inf) is None

    def test_entry_beyond_the_horizon_stays_queued(self):
        q = EventQueue()
        push(q, 3.0, "later")
        assert q.pop_due(2.999) is None
        assert q.has_due(3.0)
        assert q.pop_due(3.0)[3] == "later"

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            push(EventQueue(), -1.0)

    @pytest.mark.parametrize("time", [math.nan, -math.inf])
    def test_unordered_or_negative_infinite_time_rejected(self, time):
        # NaN compares false both ways: accepted, it sat in the heap
        # unordered and popped as [0.5, nan, 1.0].
        q = EventQueue()
        push(q, 0.5)
        with pytest.raises(ValueError, match="negative or NaN"):
            push(q, time)
        push(q, 1.0)
        assert [entry[0] for entry in drain(q)] == [0.5, 1.0]

    def test_positive_infinite_time_sorts_last_and_is_never_due(self):
        q = EventQueue()
        push(q, math.inf, "never")
        push(q, 2.0, "finite")
        assert q.pop_due(1e300)[3] == "finite"
        assert q.pop_due(1e300) is None
        assert not q.has_due(1e300)
        assert q.pop_due(math.inf)[3] == "never"

    def test_has_due_reads_the_head_time(self):
        q = EventQueue()
        assert not q.has_due(5.0)
        push(q, 3.0)
        assert not q.has_due(2.999)
        assert q.has_due(3.0)
        assert q.has_due(4.0)
        q.pop_due(4.0)
        assert not q.has_due(4.0)

    def test_has_due_counts_a_dead_head(self):
        # An entry a finished flow left behind is still queued, so it is
        # due: the caller then takes the heap path, where the entry pops
        # first and its handler ignores it.
        q = EventQueue()
        q.push(1.0, EventKind.FLOW_EXPIRY, "finished flow")
        assert q.has_due(1.0)
        assert q.pop_due(1.0)[3] == "finished flow"
        assert not q.has_due(1.0)
