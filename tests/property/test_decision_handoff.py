"""Tie-order oracle for the simulator's decision hand-off.

When a flow's head reaches a node and nothing else is queued for that
instant, the simulator hands the decision to ``next_decision()``
directly; otherwise it pushes a ``DECISION`` event that queues up behind
the simultaneous events.  Forcing *every* decision through the heap is
the reference: it is what a pure event-queue simulator does.  The two
must agree on every decision, outcome and metric — and scenarios with
integer-valued arrival times, delays and durations make simultaneous
events the norm rather than the exception.

The heap path is forced from here, by patching the queue's "anything due
now" predicate; the simulator has no switch for it.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim import simulator
from repro.sim.config import SimulationConfig
from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator
from repro.topology.network import Link, Network, Node
from repro.traffic import FlowSpec

from tests.conftest import link_load, make_flow_specs, make_simple_catalog, sanitizer_on

HORIZON = 90.0


def always_due():
    """Route every decision through the heap, as if an event were due."""
    return mock.patch.object(EventQueue, "has_due", lambda self, now: True)


def run(network, catalog, flows, action_seed, sanitize=False):
    """Drive one simulation with seeded pseudo-random actions.

    Returns the ``(time, flow, node)`` decision sequence, the drained
    outcomes, the final metrics and the success series, with flow ids
    rebased to the run's first flow (ids come from a process-wide
    counter).
    """
    with sanitizer_on() if sanitize else nullcontext():
        sim = Simulator(
            network, catalog, list(flows), SimulationConfig(horizon=HORIZON)
        )
    rng = np.random.default_rng(action_seed)
    decisions, outcomes = [], []
    while (decision := sim.next_decision()) is not None:
        decisions.append((decision.time, decision.flow.flow_id, decision.node))
        # Mostly valid actions, so flows live long enough to interleave;
        # every tenth or so points past the action space's populated part.
        valid = len(network.neighbors(decision.node)) + 1
        action = int(rng.integers(valid))
        if rng.random() < 0.1:
            action = network.degree
        sim.apply_action(action)
        outcomes.extend(sim.drain_outcomes())
    metrics = sim.finalize()
    outcomes.extend(sim.drain_outcomes())
    ids = [fid for _, fid, _ in decisions] + [o.flow_id for o in outcomes]
    base = min(ids, default=0)
    return (
        [(t, fid - base, node) for t, fid, node in decisions],
        [o._replace(flow_id=o.flow_id - base) for o in outcomes],
        metrics,
        list(sim.metrics.success_series),
    )


@st.composite
def tie_heavy_scenarios(draw):
    """A small ring or line plus traffic where every time is an integer."""
    n = draw(st.integers(3, 6))
    ring = draw(st.booleans())
    names = [f"v{i + 1}" for i in range(n)]
    pairs = list(zip(names, names[1:])) + ([(names[-1], names[0])] if ring else [])
    links = [
        Link(u, v, delay=float(draw(st.integers(0, 2))),
             capacity=float(draw(st.integers(1, 3))))
        for u, v in pairs
    ]
    nodes = [Node(name, capacity=float(draw(st.integers(1, 3)))) for name in names]
    ingress = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    egress = draw(st.sampled_from(names))
    network = Network("tie", nodes, links, ingress=ingress, egress=[egress])
    catalog = make_simple_catalog(
        num_components=draw(st.integers(1, 3)),
        processing_delay=float(draw(st.integers(0, 3))),
        startup_delay=float(draw(st.integers(0, 2))),
        idle_timeout=float(draw(st.integers(1, 4))),
    )
    count = draw(st.integers(1, 14))
    gaps = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
    time, flows = 0.0, []
    for gap in gaps:
        time += gap  # gap 0: simultaneous arrivals
        flows.append(
            FlowSpec(
                service="svc",
                ingress=draw(st.sampled_from(ingress)),
                egress=egress,
                data_rate=1.0,
                arrival_time=time,
                duration=float(draw(st.integers(1, 3))),
                deadline=float(draw(st.integers(4, 30))),
            )
        )
    keep_duration = float(draw(st.integers(1, 2)))
    return network, catalog, flows, keep_duration


class TestHandOffEqualsHeap:
    @settings(max_examples=120, deadline=None)
    @given(scenario=tie_heavy_scenarios(), action_seed=st.integers(0, 2**31 - 1))
    def test_same_decisions_outcomes_and_metrics(self, scenario, action_seed):
        network, catalog, flows, keep_duration = scenario
        # A kept flow waits one time step in the paper; two makes kept
        # flows meet integer-timed arrivals at other instants too.
        with mock.patch.object(simulator, "KEEP_DURATION", keep_duration):
            handed = run(network, catalog, flows, action_seed)
            with always_due():
                heaped = run(network, catalog, flows, action_seed)
            assert handed == heaped
            # The sanitizer sweeps after every event, so it sees one event
            # fewer per handed-off decision; it must stay pure observation.
            assert handed == run(network, catalog, flows, action_seed, sanitize=True)

    def test_integer_timed_traffic_takes_both_branches(self):
        """Guards the oracle itself: such traffic must send some
        decisions through the heap and hand others off."""
        network = Network(
            "tie",
            [Node(f"v{i}", capacity=3.0) for i in (1, 2, 3)],
            [Link("v1", "v2", delay=1.0, capacity=3.0),
             Link("v2", "v3", delay=1.0, capacity=3.0)],
            ingress=["v1"], egress=["v3"],
        )
        catalog = make_simple_catalog(processing_delay=1.0)
        flows = make_flow_specs([0.0, 0.0, 1.0, 2.0, 2.0, 9.0], deadline=20.0)
        answers = []
        has_due = EventQueue.has_due

        def recording(queue, now):
            answers.append(has_due(queue, now))
            return answers[-1]

        with mock.patch.object(EventQueue, "has_due", recording):
            run(network, catalog, flows, 3)
        assert True in answers and False in answers


class TestSharedTimestamp:
    """Hand-built: a RELEASE_LINK, another flow's LINK_ARRIVAL and a
    decision all fall on t=3.

    Line v1 - v2 - v3, link delay 1 and link capacity 1, one component
    with processing delay 1, flow duration 1.  Both flows are processed
    at v1 and then forwarded towards v3:

    - t=0  A arrives at v1 and is processed there (done at 1).
    - t=1  A is forwarded to v2: LINK_ARRIVAL(A)@2, RELEASE_LINK(A, v1-v2)@3.
    - t=2  B arrives at v1 and is processed (done at 3); A reaches v2 and
      is forwarded on: LINK_ARRIVAL(A, v3)@3.
    - t=3  queued in this order: RELEASE_LINK(A, v1-v2), PROCESSING_DONE(B),
      LINK_ARRIVAL(A, v3).  B's decision is raised by the second event
      while the third is still due, so it must queue up behind it: A's
      success belongs to the batch of outcomes seen *with* B's decision,
      and link v1-v2 (capacity 1, held by A's tail until exactly t=3) is
      free again when B is forwarded over it.
    """

    @staticmethod
    def play():
        network = Network(
            "shared",
            [Node(name, capacity=4.0) for name in ("v1", "v2", "v3")],
            [Link("v1", "v2", delay=1.0, capacity=1.0),
             Link("v2", "v3", delay=1.0, capacity=1.0)],
            ingress=["v1"], egress=["v3"],
        )
        with sanitizer_on():
            sim = Simulator(
                network,
                make_simple_catalog(processing_delay=1.0),
                make_flow_specs([0.0, 2.0], deadline=50.0),
                SimulationConfig(horizon=60.0),
            )
        log, labels = [], {}
        while (decision := sim.next_decision()) is not None:
            flow, node = decision.flow, decision.node
            if flow.flow_id not in labels:
                labels[flow.flow_id] = "AB"[len(labels)]
            label = labels[flow.flow_id]
            seen = [
                (labels[o.flow_id], o.kind.name) for o in sim.drain_outcomes()
            ]
            if not flow.fully_processed:
                action = 0
            else:
                action = 1 if node == "v1" else 2
            log.append(
                (decision.time, label, node, action, seen,
                 link_load(sim.state, "v1", "v2"))
            )
            sim.apply_action(action)
        return log, sim.finalize()

    EXPECTED = [
        (0.0, "A", "v1", 0, [], 0.0),
        (1.0, "A", "v1", 1, [("A", "INSTANCE_TRAVERSED")], 0.0),
        (2.0, "B", "v1", 0, [("A", "LINK_TRAVERSED")], 1.0),
        (2.0, "A", "v2", 2, [], 1.0),
        (3.0, "B", "v1", 1,
         [("A", "LINK_TRAVERSED"), ("B", "INSTANCE_TRAVERSED"), ("A", "FLOW_SUCCESS")],
         0.0),
        (4.0, "B", "v2", 2, [("B", "LINK_TRAVERSED")], 1.0),
    ]

    def test_hand_off_waits_for_the_simultaneous_arrival(self):
        log, metrics = self.play()
        assert log == self.EXPECTED
        assert metrics.flows_succeeded == 2 and metrics.drop_reasons == {}

    def test_forced_heap_path_agrees(self):
        with always_due():
            log, metrics = self.play()
        assert log == self.EXPECTED
        assert metrics.flows_succeeded == 2
