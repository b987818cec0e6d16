"""Tests for the preallocated ring-buffer request queue.

The queue keeps no request ids; each test tags a request by writing its
number into the observation and the enqueue time, and reads the order
back from the popped rows."""

import numpy as np
import pytest

from repro.serving import RingBufferQueue


def make_queue(capacity=4, obs_dim=3):
    return RingBufferQueue(capacity, obs_dim)


def push_rows(queue, tags, obs_dim=3):
    for i in tags:
        assert queue.push(np.full(obs_dim, float(i)), float(i))


def pop(queue, limit):
    out_obs = np.empty((limit, queue.obs_dim))
    times = queue.pop_into(out_obs, limit)
    return out_obs[:len(times)], times


def pop_all(queue):
    return pop(queue, max(len(queue), 1))


class TestRingBufferQueue:
    def test_fifo_order_and_payload_round_trip(self):
        queue = make_queue()
        push_rows(queue, [10, 11, 12])
        obs, times = pop_all(queue)
        assert times == [10.0, 11.0, 12.0]
        assert all(type(t) is float for t in times)
        assert np.array_equal(obs, np.repeat([[10.0], [11.0], [12.0]], 3, axis=1))
        assert len(queue) == 0

    def test_push_returns_false_when_full(self):
        queue = make_queue(capacity=2)
        assert queue.push(np.zeros(3), 0.0) == 1
        assert queue.push(np.ones(3), 1.0) == 2
        assert queue.is_full
        assert not queue.push(np.full(3, 2.0), 2.0)
        # The shed push must not corrupt the queued entries.
        obs, times = pop_all(queue)
        assert times == [0.0, 1.0]
        assert np.array_equal(obs[:, 0], [0.0, 1.0])

    def test_partial_pop_keeps_remainder_in_order(self):
        queue = make_queue(capacity=8)
        push_rows(queue, list(range(5)))
        _, times = pop(queue, 2)
        assert times == [0.0, 1.0]
        _, times = pop_all(queue)
        assert times == [2.0, 3.0, 4.0]

    def test_wraparound_preserves_fifo(self):
        """Head wrapping past the end of the backing arrays must still
        drain in submission order (the two-slice copy path)."""
        queue = make_queue(capacity=4)
        push_rows(queue, [0, 1, 2])
        pop(queue, 2)  # head -> 2
        push_rows(queue, [3, 4, 5])  # 5 lands at wrapped slot 1
        obs, times = pop_all(queue)
        assert times == [2.0, 3.0, 4.0, 5.0]
        assert np.array_equal(obs[:, 0], [2.0, 3.0, 4.0, 5.0])

    def test_sustained_cycling_never_reorders(self):
        queue = make_queue(capacity=5)
        tag = 0
        expected = []
        rng = np.random.default_rng(0)
        for _ in range(50):
            for _ in range(int(rng.integers(0, 4))):
                if queue.push(np.full(3, float(tag)), float(tag)):
                    expected.append(float(tag))
                tag += 1
            pops = int(rng.integers(0, 4))
            if pops and len(queue):
                obs, times = pop(queue, pops)
                assert times == expected[:len(times)]
                assert list(obs[:, 0]) == times
                expected = expected[len(times):]
        _, times = pop_all(queue)
        assert times == expected

    def test_oldest_enqueue_time_tracks_head(self):
        queue = make_queue()
        push_rows(queue, [7, 8])
        assert queue.oldest_enqueue_time() == 7.0
        pop(queue, 1)
        assert queue.oldest_enqueue_time() == 8.0

    def test_oldest_enqueue_time_raises_on_empty(self):
        with pytest.raises(ValueError, match="empty"):
            make_queue().oldest_enqueue_time()

    def test_rejects_wrong_observation_shape(self):
        queue = make_queue(obs_dim=3)
        with pytest.raises(ValueError, match="shape"):
            queue.push(np.zeros(4), 0.0)
        with pytest.raises(ValueError, match="shape"):
            queue.push([0.0, 1.0], 0.0)
        assert len(queue) == 0

    def test_rejects_bad_capacity_and_dim(self):
        with pytest.raises(ValueError):
            RingBufferQueue(0, 3)
        with pytest.raises(ValueError):
            RingBufferQueue(4, 0)

    def test_holds_no_id_array(self):
        """Request ids are implicit (consecutive accepted ids): the queue
        keeps no integer array."""
        queue = make_queue()
        fields = [getattr(queue, name) for name in RingBufferQueue.__slots__]
        assert not [f for f in fields if isinstance(f, np.ndarray) and f.dtype.kind in "iu"]

    def test_non_finite_push_on_a_full_queue_raises_and_keeps_rows(self):
        queue = make_queue(capacity=2)
        push_rows(queue, [0, 1])
        with pytest.raises(ValueError, match="NaN or inf"):
            queue.push(np.array([0.0, np.inf, 0.0]), 9.0)
        obs, times = pop_all(queue)
        assert times == [0.0, 1.0]
        assert np.array_equal(obs[:, 0], [0.0, 1.0])
