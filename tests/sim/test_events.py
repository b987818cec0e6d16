"""Tests for the event queue."""

import math

import pytest

from repro.sim.events import Event, EventKind, EventQueue


def ev(time: float, payload=None) -> Event:
    return Event(time, EventKind.DECISION, payload)


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(ev(5.0, "b"))
        q.push(ev(1.0, "a"))
        q.push(ev(9.0, "c"))
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        q = EventQueue()
        q.push(ev(1.0, "first"))
        q.push(ev(1.0, "second"))
        q.push(ev(1.0, "third"))
        assert [q.pop().payload for _ in range(3)] == ["first", "second", "third"]

    def test_empty_pop_returns_none(self):
        assert EventQueue().pop() is None

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        first = q.push(ev(1.0, "cancelled"))
        q.push(ev(2.0, "kept"))
        first.cancelled = True
        assert q.pop().payload == "kept"
        assert q.pop() is None

    def test_len_and_bool_exclude_cancelled(self):
        q = EventQueue()
        assert not q
        a = q.push(ev(1.0))
        q.push(ev(2.0))
        assert len(q) == 2 and q
        a.cancelled = True
        assert len(q) == 1
        q.pop()
        assert len(q) == 0 and not q

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            EventQueue().push(ev(-1.0))

    @pytest.mark.parametrize("time", [math.nan, -math.inf])
    def test_unordered_or_negative_infinite_time_rejected(self, time):
        # NaN compares false both ways: accepted, it sat in the heap
        # unordered and popped as [0.5, nan, 1.0].
        q = EventQueue()
        q.push(ev(0.5))
        with pytest.raises(ValueError, match="negative or NaN"):
            q.push(ev(time))
        q.push(ev(1.0))
        assert [q.pop().time for _ in range(2)] == [0.5, 1.0]
        assert q.pop() is None

    def test_positive_infinite_time_sorts_last_and_is_never_due(self):
        q = EventQueue()
        q.push(ev(math.inf, "never"))
        q.push(ev(2.0, "finite"))
        assert q.pop_due(1e300).payload == "finite"
        assert q.pop_due(1e300) is None
        assert len(q) == 1

    def test_has_due_reads_the_head_time(self):
        q = EventQueue()
        assert not q.has_due(5.0)
        q.push(ev(3.0))
        assert not q.has_due(2.999)
        assert q.has_due(3.0)
        assert q.has_due(4.0)
        q.pop()
        assert not q.has_due(4.0)

    def test_has_due_counts_a_cancelled_head(self):
        # Conservative on purpose: the caller then takes the heap path,
        # where lazy deletion skips the dead entry.
        q = EventQueue()
        q.push(ev(1.0)).cancelled = True
        assert len(q) == 0
        assert q.has_due(1.0)

    def test_push_returns_handle(self):
        q = EventQueue()
        event = q.push(ev(1.0))
        assert isinstance(event, Event)
        event.cancelled = True
        assert q.pop() is None


class TestCancellationAccounting:
    """The live-event counter behind O(1) ``len``/``bool`` must track every
    way an event's cancelled flag can change, not just the happy path."""

    def test_len_is_constant_time_counter(self):
        q = EventQueue()
        events = [q.push(ev(float(t))) for t in range(100)]
        assert len(q) == 100
        for event in events[::2]:
            event.cancelled = True
        assert len(q) == 50

    def test_double_cancel_decrements_once(self):
        q = EventQueue()
        event = q.push(ev(1.0))
        q.push(ev(2.0))
        event.cancelled = True
        event.cancelled = True
        assert len(q) == 1

    def test_uncancel_restores_count(self):
        q = EventQueue()
        event = q.push(ev(1.0))
        event.cancelled = True
        assert len(q) == 0
        event.cancelled = False
        assert len(q) == 1
        assert q.pop() is event

    def test_cancel_after_pop_does_not_corrupt_count(self):
        q = EventQueue()
        first = q.push(ev(1.0))
        q.push(ev(2.0))
        assert q.pop() is first
        first.cancelled = True  # too late: already delivered
        assert len(q) == 1
        assert q.pop().time == 2.0
        assert len(q) == 0

    def test_push_already_cancelled_event_not_counted(self):
        q = EventQueue()
        q.push(ev(2.0, "kept"))
        dead = Event(1.0, EventKind.DECISION, "dead")
        dead.cancelled = True
        q.push(dead)
        assert len(q) == 1
        assert q.pop().payload == "kept"
        assert len(q) == 0

    def test_rejects_double_scheduling(self):
        q = EventQueue()
        event = q.push(ev(1.0))
        with pytest.raises(ValueError, match="already scheduled"):
            q.push(event)

    def test_event_can_be_requeued_after_pop(self):
        q = EventQueue()
        event = q.push(ev(1.0))
        assert q.pop() is event
        q.push(event)
        assert len(q) == 1
        assert q.pop() is event
