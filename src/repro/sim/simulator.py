"""Flow-level discrete-event network simulator (coord-sim equivalent).

Implements the simulation model of Sec. III:

- flows are continuous streams (fluid approximation): the head of a flow
  can be several hops ahead of its tail, so a flow of duration ``δ_f``
  occupies a link's rate for ``d_l + δ_f`` and a node's compute for
  ``d_c + δ_f`` (head-to-tail residence),
- a coordination decision is required whenever a flow's head arrives at a
  node (on injection, after a link traversal, and after each completed
  component processing),
- processing locally implies scaling/placement: a missing instance is
  started automatically (startup delay ``d^up_c``) and idle instances are
  removed after their timeout ``δ_c``,
- capacity violations, invalid actions, and deadline expiry drop the flow
  and free everything it still holds.

The simulator is a *stepped* engine so that both reinforcement-learning
environments and hand-written policies can drive it::

    sim = Simulator(network, catalog, traffic, config)
    while (decision := sim.next_decision()) is not None:
        sim.apply_action(my_policy(decision, sim))
    metrics = sim.finalize()

Between :meth:`Simulator.next_decision` and :meth:`Simulator.apply_action`
the simulation is paused at the decision's timestamp; semantic outcome
events (flow completed, dropped, instance traversed, ...) accumulate and
can be drained with :meth:`Simulator.drain_outcomes` — the reward function
of the DRL environment is computed from those.
"""

from __future__ import annotations

import time as _time
from collections import defaultdict
from enum import Enum, auto
from typing import (
    Any,
    Callable,
    DefaultDict,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.analysis.invariants import InvariantViolation, check, invariants_enabled
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultKind, FaultSpec
from repro.services.service import ServiceCatalog
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, EventQueue
from repro.sim.metrics import DropReason, MetricsCollector, SimulationMetrics
from repro.sim.state import Allocation, CapacityError, NetworkState
from repro.telemetry import NULL_RECORDER, Recorder
from repro.topology.network import Network
from repro.traffic.flows import Flow, FlowSpec, FlowStatus

__all__ = [
    "ACTION_PROCESS_LOCALLY",
    "KEEP_DURATION",
    "DecisionPoint",
    "OutcomeKind",
    "Outcome",
    "Simulator",
]

#: Action 0 = process the flow locally (or keep it, when fully processed).
ACTION_PROCESS_LOCALLY = 0

#: How long a fully processed flow waits at a node when the agent keeps
#: it there (action 0 with ``c_f = ∅``): the paper's "one time step".
#: Read when a flow is kept.
KEEP_DURATION = 1.0


class DecisionPoint(NamedTuple):
    """A pending coordination decision.

    A named tuple — immutable, equal by value, keyword-constructible —
    because the simulator builds one per decision and a frozen slots
    dataclass costs three times as much to construct.

    Attributes:
        time: Simulation time of the decision.
        flow: The flow whose head awaits an action.
        node: The node where the flow's head currently is.
    """

    time: float
    flow: Flow
    node: str


class OutcomeKind(Enum):
    """Semantic outcome events the reward function consumes (Sec. IV-B3)."""

    FLOW_SUCCESS = auto()       # +10
    FLOW_DROP = auto()          # -10
    INSTANCE_TRAVERSED = auto() # +1 / n_s
    LINK_TRAVERSED = auto()     # -d_l / D_G
    FLOW_KEPT = auto()          # -1 / D_G


class Outcome(NamedTuple):
    """One semantic outcome (a named tuple, see :class:`DecisionPoint`).

    Attributes:
        kind: What happened.
        time: When it happened.
        flow_id: The flow concerned.
        chain_length: Service chain length ``n_s`` (INSTANCE_TRAVERSED).
        link_delay: Delay ``d_l`` of the traversed link (LINK_TRAVERSED).
        drop_reason: Why the flow was dropped (FLOW_DROP).
    """

    kind: OutcomeKind
    time: float
    flow_id: int
    chain_length: Optional[int] = None
    link_delay: Optional[float] = None
    drop_reason: Optional[str] = None


# Enum members the per-event paths compare against, bound once at import:
# ``EventKind.DECISION`` is a global plus an attribute lookup at every use.
_DECISION = EventKind.DECISION
_LINK_ARRIVAL = EventKind.LINK_ARRIVAL
_RELEASE_NODE = EventKind.RELEASE_NODE
_RELEASE_LINK = EventKind.RELEASE_LINK
_PROCESSING_DONE = EventKind.PROCESSING_DONE
_INSTANCE_TIMEOUT = EventKind.INSTANCE_TIMEOUT
_FLOW_INJECTION = EventKind.FLOW_INJECTION
_FLOW_EXPIRY = EventKind.FLOW_EXPIRY
_FAULT = EventKind.FAULT
_ACTIVE = FlowStatus.ACTIVE
_FLOW_SUCCESS = OutcomeKind.FLOW_SUCCESS
_FLOW_DROP = OutcomeKind.FLOW_DROP
_INSTANCE_TRAVERSED = OutcomeKind.INSTANCE_TRAVERSED
_LINK_TRAVERSED = OutcomeKind.LINK_TRAVERSED
_FLOW_KEPT = OutcomeKind.FLOW_KEPT


class Simulator:
    """The stepped flow-level simulator.

    Events wait on one :class:`EventQueue`, and each pops in its turn.  A
    flow that succeeds or is dropped frees what it holds at once; the
    events it left queued fall through handlers that ignore a finished
    flow or a released allocation.

    Args:
        network: Substrate topology (capacities, delays, ingress/egress).
        catalog: Services available; every injected flow must request one.
        traffic: Time-ordered iterable of :class:`FlowSpec` (usually a
            :meth:`repro.traffic.arrival.TrafficSource.flows_until`
            generator).  Out-of-order specs raise at injection time.
        config: Simulation knobs (horizon etc.).
    """

    def __init__(
        self,
        network: Network,
        catalog: ServiceCatalog,
        traffic: Iterable[FlowSpec],
        config: SimulationConfig = SimulationConfig(),
    ) -> None:
        self.network = network
        self.catalog = catalog
        self.config = config
        self.state = NetworkState(network)
        # Topology tables the per-decision paths read, bound once.
        self._hops = network.hop_table
        self._node_index = network.node_index
        self._degree = network.degree

        #: Fault injector, or None for fault-free runs.  The None path
        #: adds zero events and zero state copies, keeping fault-free
        #: runs bit-identical to builds without the fault subsystem.
        self.faults: Optional[FaultInjector] = None
        if config.faults is not None and not config.faults.empty:
            schedule = config.faults.build_schedule(network, config.horizon)
            if schedule:
                self.faults = FaultInjector(network, self.state, schedule)

        self.metrics = MetricsCollector(
            phase_boundaries=(
                self.faults.phase_boundaries if self.faults is not None else None
            ),
        )
        self.now: float = 0.0

        self._queue = EventQueue()
        if self.faults is not None:
            self.faults.schedule_into(self._queue)
        self._traffic: Iterator[FlowSpec] = iter(traffic)
        self._pending: Optional[DecisionPoint] = None
        self._outcomes: List[Outcome] = []
        self._allocations: DefaultDict[int, List[Allocation]] = defaultdict(list)
        # Per resident flow, the ``(node, component)`` instance processing
        # it (for drop cleanup).
        self._residences: Dict[int, Tuple[str, str]] = {}
        self._active_flows: Dict[int, Flow] = {}
        # Tail-leave sentinels still in flight for instances that a node
        # outage force-evicted: each pending sentinel for (node, component)
        # is swallowed instead of decrementing a (possibly re-placed)
        # instance's busy count.
        self._evicted_tail_debt: Dict[tuple, int] = {}
        self._last_injection_time = 0.0
        #: Sanitizer mode: run the full invariant sweep after every event.
        #: Enabled by the ``REPRO_CHECK_INVARIANTS=1`` environment flag;
        #: pure observation, so enabling it cannot perturb a seeded run.
        self._sanitize = invariants_enabled()
        #: Mean wall-clock seconds per policy call of the last :meth:`run`
        #: with ``time_decisions=True`` (Fig. 9b).
        self.mean_decision_seconds: float = 0.0
        self._schedule_next_injection()

    # ------------------------------------------------------------------
    # Public stepped API
    # ------------------------------------------------------------------

    def next_decision(self) -> Optional[DecisionPoint]:
        """Advance the simulation to the next coordination decision.

        Returns ``None`` once no further decision will occur before the
        horizon (all events processed or beyond ``config.horizon``).
        """
        if self._pending is not None:
            raise RuntimeError(
                "previous decision not resolved; call apply_action() first"
            )
        pop_due = self._queue.pop_due
        horizon = self.config.horizon
        sanitize = self._sanitize
        while True:
            entry = pop_due(horizon)
            if entry is None:
                return None
            time, _, kind, payload, node = entry
            if sanitize:
                check(time >= self.now,
                      "event time moved backwards (monotonicity broken)",
                      event_time=time, now=self.now, kind=kind.name)
            self.now = time
            self._dispatch(kind, payload, node)
            if sanitize:
                self._check_invariants()
            # Set either by a DECISION event or, when nothing else was due
            # at this instant, directly by the handler (_flow_at_node).
            if self._pending is not None:
                return self._pending

    def apply_action(self, action: int) -> None:
        """Resolve the pending decision with ``action ∈ {0, ..., Δ_G}``.

        Action semantics (Sec. IV-B2): 0 processes/keeps the flow locally;
        ``a > 0`` forwards it to the node's a-th neighbor (sorted order).
        An action pointing at a non-existing neighbor drops the flow.
        """
        decision = self._pending
        if decision is None:
            raise RuntimeError("no pending decision; call next_decision() first")
        if action < 0 or action > self._degree:
            # Reject before consuming the pending decision so the caller
            # can retry with a valid action.
            raise ValueError(
                f"action {action} outside action space [0, {self._degree}]"
            )
        self._pending = None
        self.metrics.decisions += 1
        flow = decision.flow

        if flow.status is not _ACTIVE:
            return  # dropped by a simultaneous event (e.g. exact-deadline expiry)
        spec = flow.spec
        if spec.deadline - (self.now - spec.arrival_time) <= 0.0:
            self._drop(flow, DropReason.DEADLINE_EXPIRED)
            return

        if action == ACTION_PROCESS_LOCALLY:
            if flow.component_index is None:
                self._keep_flow(flow)
            else:
                self._process_locally(flow, decision.node)
            return
        hops = self._hops[decision.node]
        if action > len(hops[0]):
            # Valid action index, but this node has fewer neighbors: the
            # flow is sent to a dummy neighbor and dropped (high penalty).
            self._drop(flow, DropReason.INVALID_ACTION)
        else:
            self._forward(flow, hops, action - 1)

    def drain_outcomes(self) -> List[Outcome]:
        """Return and clear the semantic outcomes accumulated so far."""
        outcomes, self._outcomes = self._outcomes, []
        return outcomes

    def run(
        self,
        policy: Callable[[DecisionPoint, "Simulator"], int],
        time_decisions: bool = False,
        recorder: Recorder = NULL_RECORDER,
    ) -> SimulationMetrics:
        """Drive the whole simulation with ``policy`` and finalize.

        Args:
            policy: Callable mapping (decision, simulator) to an action.
            time_decisions: Measure wall-clock time per policy call; the
                mean is exposed as :attr:`mean_decision_seconds` (used for
                the paper's Fig. 9b inference-time comparison).
            recorder: Telemetry sink; when enabled the finished run emits
                one ``sim_run`` record (flow counters, success ratio,
                drop reasons, delay histogram summary, wall-clock).
        """
        wall_start = _time.perf_counter() if recorder.enabled else 0.0
        total_seconds = 0.0
        calls = 0
        while (decision := self.next_decision()) is not None:
            if time_decisions:
                start = _time.perf_counter()
                action = policy(decision, self)
                total_seconds += _time.perf_counter() - start
                calls += 1
            else:
                action = policy(decision, self)
            self.apply_action(action)
        self.mean_decision_seconds = total_seconds / calls if calls else 0.0
        metrics = self.finalize()
        if recorder.enabled:
            fields = {
                "flows_generated": metrics.flows_generated,
                "flows_succeeded": metrics.flows_succeeded,
                "flows_dropped": metrics.flows_dropped,
                "flows_active": metrics.flows_active,
                "success_ratio": metrics.success_ratio,
                "drop_reasons": metrics.drop_reasons,
                "decisions": metrics.decisions,
                "horizon": metrics.horizon,
                "wall_seconds": _time.perf_counter() - wall_start,
            }
            delay = self.metrics.delay_summary()
            if delay is not None:
                fields["delay"] = delay
            if self.faults is not None:
                for entry in self.faults.log:
                    recorder.emit("fault_event", **entry)
                phases = self.metrics.phase_summary()
                if phases is not None:
                    fields["fault_phases"] = phases
            recorder.emit("sim_run", **fields)
        return metrics

    def finalize(self) -> SimulationMetrics:
        """Close the run and return summary metrics; unfinished flows stay
        uncounted (``flows_active``)."""
        return self.metrics.finalize(self.config.horizon)

    @property
    def active_flow_count(self) -> int:
        """Flows injected but not yet finished."""
        return len(self._active_flows)

    def _check_invariants(self) -> None:
        """Sanitizer sweep run after every event when enabled.

        Covers capacity conservation (:meth:`NetworkState.check_invariants`)
        and flow accounting: the simulator's active-flow table must agree
        with the metrics counters, and the residence table may only
        reference active flows.
        """
        self.state.check_invariants()
        check(
            len(self._active_flows) == self.metrics.flows_active,
            "active-flow table disagrees with metrics flow accounting",
            active_table=len(self._active_flows),
            generated=self.metrics.flows_generated,
            succeeded=self.metrics.flows_succeeded,
            dropped=self.metrics.flows_dropped,
        )
        stale = [fid for fid in self._residences if fid not in self._active_flows]
        check(not stale, "residence table references finished flows",
              flow_ids=stale)

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, kind: EventKind, payload: Any, node: Optional[str]) -> None:
        # Branches ordered by observed event frequency (decisions dominate,
        # then link traffic and releases); dispatch order has no semantic
        # effect since kinds are disjoint.  A finished flow's leftover
        # events end here as no-ops: every flow handler returns early
        # unless the flow is active, and releasing a released allocation
        # does nothing.
        if kind is _DECISION:
            if payload.status is _ACTIVE:
                self._pending = DecisionPoint(self.now, payload, payload.current_node)
        elif kind is _LINK_ARRIVAL:
            self._link_arrival(payload, node)
        elif kind is _RELEASE_NODE or kind is _RELEASE_LINK:
            self.state.release(payload)
        elif kind is _PROCESSING_DONE:
            self._processing_done(payload)
        elif kind is _INSTANCE_TIMEOUT:
            self._instance_timeout(*payload)
        elif kind is _FLOW_INJECTION:
            self._inject(payload)
        elif kind is _FLOW_EXPIRY:
            if payload.status is _ACTIVE:
                self._drop(payload, DropReason.DEADLINE_EXPIRED)
        elif kind is _FAULT:
            self._apply_fault(*payload)
        else:  # pragma: no cover - taxonomy is closed
            raise ValueError(f"unhandled event kind {kind}")

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------

    def _schedule_next_injection(self) -> None:
        spec = next(self._traffic, None)
        if spec is None:
            return
        # Negated so a NaN arrival time (false under every ordering) is
        # refused as well.
        if not (spec.arrival_time >= self._last_injection_time):
            raise ValueError(
                f"traffic out of order: flow at t={spec.arrival_time} after "
                f"t={self._last_injection_time}"
            )
        self._last_injection_time = spec.arrival_time
        self._queue.push(spec.arrival_time, _FLOW_INJECTION, spec)

    def _inject(self, spec: FlowSpec) -> None:
        # Keep exactly one future injection scheduled: lazy merge with the
        # traffic generator so arbitrarily long horizons stay cheap.
        self._schedule_next_injection()
        if not self.network.has_node(spec.ingress):
            raise ValueError(f"flow ingress {spec.ingress!r} not in network")
        if not self.network.has_node(spec.egress):
            raise ValueError(f"flow egress {spec.egress!r} not in network")
        service = self.catalog.service(spec.service)
        flow = Flow(spec, chain_length=service.length, service=service)
        self._active_flows[flow.flow_id] = flow
        self.metrics.record_generated(flow)
        self._queue.push(spec.arrival_time + spec.deadline, _FLOW_EXPIRY, flow)
        if self.faults is not None and self.faults.node_is_failed(spec.ingress):
            # Injection at a dead ingress: the flow is generated (it
            # counts against the objective) but immediately lost.
            self._drop(flow, DropReason.NETWORK_FAILURE)
            return
        self._flow_at_node(flow)

    def _flow_at_node(self, flow: Flow) -> None:
        """The flow's head is at ``flow.current_node``: finish or ask for a decision."""
        node = flow.current_node
        if flow.component_index is None and node == flow.spec.egress:
            self._succeed(flow)
            return
        now = self.now
        queue = self._queue
        if queue.has_due(now):
            # Other events share this instant: the decision queues up
            # behind them, as simultaneous events resolve in FIFO order.
            queue.push(now, _DECISION, flow)
        else:
            # Nothing else can fire before the decision would be popped
            # again, so next_decision() returns it without the heap
            # round-trip.
            self._pending = DecisionPoint(now, flow, node)

    def _succeed(self, flow: Flow) -> None:
        flow.mark_succeeded(self.now)
        self._finish(flow)
        self.metrics.record_success(flow)
        self._outcomes.append(
            Outcome(_FLOW_SUCCESS, self.now, flow.flow_id)
        )

    def _drop(self, flow: Flow, reason: str) -> None:
        """Drop ``flow`` and free everything it still blocks at once (paper:
        expiry "frees any currently blocked resources").  Its queued
        events stay queued and become no-ops when popped (see
        :meth:`_dispatch`)."""
        flow.mark_dropped(self.now, reason)
        for allocation in self._allocations.pop(flow.flow_id, []):
            self.state.release(allocation)
        residence = self._residences.pop(flow.flow_id, None)
        if residence is not None:
            node, component = residence
            self.state.instance_end_flow(node, component, self.now)
            self._maybe_schedule_instance_timeout(node, component)
        self._finish(flow)
        self.metrics.record_drop(flow, reason)
        self._outcomes.append(
            Outcome(_FLOW_DROP, self.now, flow.flow_id, None, None, reason)
        )

    def _finish(self, flow: Flow) -> None:
        """Forget a flow that succeeded or was dropped; its pending
        ``FLOW_EXPIRY`` fires later as a no-op."""
        self._active_flows.pop(flow.flow_id, None)
        self._allocations.pop(flow.flow_id, None)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def _keep_flow(self, flow: Flow) -> None:
        """Action 0 on a fully processed flow away from its egress: the flow
        waits one time step and the agent is queried again (small penalty)."""
        self._outcomes.append(Outcome(_FLOW_KEPT, self.now, flow.flow_id))
        self._queue.push(self.now + KEEP_DURATION, _DECISION, flow)

    def _process_locally(self, flow: Flow, node: str) -> None:
        if self.faults is not None and self.faults.node_is_failed(node):
            self._drop(flow, DropReason.NETWORK_FAILURE)
            return
        service = flow.service_obj
        if service is None:
            service = self.catalog.service(flow.service)
        index = flow.component_index
        if index is None:
            raise InvariantViolation(
                "flow asked to process locally but its chain is already complete",
                flow_id=flow.flow_id, node=node,
            )
        component = service.components[index]
        demands = flow.demands
        spec = flow.spec
        demand = (
            demands[index]
            if demands is not None
            else component.resources(spec.data_rate)
        )
        flow_id = flow.flow_id
        state = self.state
        now = self.now

        try:
            allocation = state.allocate_node_id(
                self._node_index[node], demand, flow_id
            )
        except CapacityError:
            self._drop(flow, DropReason.NODE_CAPACITY)
            return

        # Scaling & placement are derived from the processing decision
        # (Sec. IV-A): ensure an instance exists, starting one if needed.
        name = component.name
        instance = state.instance(node, name)
        if instance is None:
            instance = state.place_instance(
                node, name, now, component.startup_delay
            )
        start = max(now, instance.ready_at)
        done_time = start + component.processing_delay
        release_time = done_time + spec.duration

        state.instance_begin_flow(node, name)
        push = self._queue.push
        push(done_time, _PROCESSING_DONE, flow)
        push(release_time, _RELEASE_NODE, allocation)
        self._allocations[flow_id].append(allocation)
        self._residences[flow_id] = (node, name)

    def _processing_done(self, flow: Flow) -> None:
        if flow.status is not _ACTIVE:
            return
        flow_id = flow.flow_id
        residence = self._residences.pop(flow_id, None)
        if residence is None:
            raise InvariantViolation(
                "flow finished processing with no residence record",
                flow_id=flow_id, node=flow.current_node,
            )
        node, component = residence
        # The instance stays busy until the flow's tail leaves, one flow
        # duration from now: an INSTANCE_TIMEOUT event with the sentinel
        # due time -1 means "tail left; decrement busy and maybe arm the
        # idle timer".
        now = self.now
        self._queue.push(
            now + flow.spec.duration, _INSTANCE_TIMEOUT, (node, component, -1.0)
        )
        flow.advance_component()
        self._outcomes.append(
            Outcome(_INSTANCE_TRAVERSED, now, flow_id, flow.chain_length)
        )
        self._flow_at_node(flow)

    def _forward(
        self,
        flow: Flow,
        hops: Tuple[Tuple[str, ...], Tuple[float, ...], Tuple[int, ...]],
        neighbor_index: int,
    ) -> None:
        """Send ``flow`` over the ``neighbor_index``-th link of the node
        whose :attr:`Network.hop_table` entry is ``hops``."""
        link_delay = hops[1][neighbor_index]
        link_id = hops[2][neighbor_index]
        if self.faults is not None and self.faults.link_is_failed(link_id):
            self._drop(flow, DropReason.NETWORK_FAILURE)
            return
        spec = flow.spec
        flow_id = flow.flow_id
        try:
            allocation = self.state.allocate_link_id(link_id, spec.data_rate, flow_id)
        except CapacityError:
            self._drop(flow, DropReason.LINK_CAPACITY)
            return
        self._allocations[flow_id].append(allocation)
        now = self.now
        queue = self._queue
        queue.push(now + link_delay, _LINK_ARRIVAL, flow, hops[0][neighbor_index])
        queue.push(now + link_delay + spec.duration, _RELEASE_LINK, allocation)
        self._outcomes.append(
            Outcome(_LINK_TRAVERSED, now, flow_id, None, link_delay)
        )

    def _link_arrival(self, flow: Flow, node: Optional[str]) -> None:
        if flow.status is not _ACTIVE:
            return
        if node is None:
            raise InvariantViolation(
                "LINK_ARRIVAL event scheduled without a destination node",
                flow_id=flow.flow_id,
            )
        flow.hops += 1
        flow.current_node = node
        if self.faults is not None and self.faults.node_is_failed(node):
            # The head arrives at a node that is down: the flow is lost.
            self._drop(flow, DropReason.NETWORK_FAILURE)
            return
        self._flow_at_node(flow)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def _apply_fault(self, spec: FaultSpec, onset: bool) -> None:
        faults = self.faults
        if faults is None:  # pragma: no cover - FAULT events imply an injector
            raise InvariantViolation(
                "FAULT event dispatched without a fault injector",
                spec=repr(spec),
            )
        faults.apply(spec, onset)
        flows_dropped = 0
        instances_evicted = 0
        if onset and spec.kind is FaultKind.LINK_FAILURE:
            flows_dropped = self._drop_flows_on_link(
                self.network.link_index[spec.target]  # type: ignore[index]
            )
        elif onset and spec.kind is FaultKind.NODE_OUTAGE:
            node = spec.target
            if not isinstance(node, str):  # pragma: no cover - FaultSpec validates
                raise InvariantViolation(
                    "node outage with a non-node target", target=repr(node)
                )
            flows_dropped = self._drop_flows_at_node(node)
            instances_evicted = self._evict_instances_at(node)
        faults.record(self.now, spec, onset, flows_dropped, instances_evicted)

    def _drop_flows_on_link(self, link_id: int) -> int:
        """Drop every active flow still holding rate on a failed link.

        The fluid model spreads a flow head-to-tail over the link for the
        whole ``d_l + δ_f`` window, so a failure mid-window severs it.
        Flow ids are visited in sorted order for determinism.
        """
        dropped = 0
        for flow_id in sorted(self._allocations):
            flow = self._active_flows.get(flow_id)
            if flow is None or flow.status is not _ACTIVE:
                continue
            if any(
                a.kind == "link" and not a.released and a.index == link_id
                for a in self._allocations.get(flow_id, ())
            ):
                self._drop(flow, DropReason.NETWORK_FAILURE)
                dropped += 1
        return dropped

    def _drop_flows_at_node(self, node: str) -> int:
        """Drop every active flow whose head or compute hold is at a node
        that just went down.  A flow resident at ``node`` is caught by
        both: it holds the node allocation until its tail leaves, after
        its residence ends."""
        node_id = self.network.node_index[node]
        dropped = 0
        for flow_id in sorted(self._active_flows):
            flow = self._active_flows.get(flow_id)
            if flow is None or flow.status is not _ACTIVE:
                continue
            if (
                flow.current_node == node
                or any(
                    a.kind == "node" and not a.released and a.index == node_id
                    for a in self._allocations.get(flow_id, ())
                )
            ):
                self._drop(flow, DropReason.NETWORK_FAILURE)
                dropped += 1
        return dropped

    def _evict_instances_at(self, node: str) -> int:
        """Force-remove all instances placed at a dead node.

        An evicted instance may still have tail-leave sentinels in flight
        (flows whose processing finished but whose tail had not left);
        those are recorded as debt so they don't corrupt the busy count
        of an instance re-placed after recovery.
        """
        evicted = 0
        for inst in sorted(self.state.instances_at(node), key=lambda i: i.component):
            busy = self.state.remove_instance(node, inst.component, force=True)
            if busy > 0:
                key = (node, inst.component)
                self._evicted_tail_debt[key] = (
                    self._evicted_tail_debt.get(key, 0) + busy
                )
            evicted += 1
        return evicted

    # ------------------------------------------------------------------
    # Instance lifecycle (scale-in)
    # ------------------------------------------------------------------

    def _instance_timeout(self, node: str, component: str, due: float) -> None:
        if due < 0:
            # Sentinel: a flow's tail just left the instance.
            if self._evicted_tail_debt:
                debt = self._evicted_tail_debt.get((node, component), 0)
                if debt > 0:
                    # The instance this sentinel was armed for got evicted
                    # by a node outage; swallow it so it cannot decrement
                    # a re-placed instance's busy count.
                    if debt == 1:
                        del self._evicted_tail_debt[(node, component)]
                    else:
                        self._evicted_tail_debt[(node, component)] = debt - 1
                    return
            self.state.instance_end_flow(node, component, self.now)
            self._maybe_schedule_instance_timeout(node, component)
            return
        instance = self.state.instance(node, component)
        if instance is None or instance.busy_flows > 0 or instance.idle_since is None:
            return
        timeout = self.catalog.component(component).idle_timeout
        if self.now - instance.idle_since >= timeout - 1e-9:
            self.state.remove_instance(node, component)

    def _maybe_schedule_instance_timeout(self, node: str, component: str) -> None:
        instance = self.state.instance(node, component)
        if instance is None or instance.idle_since is None:
            return
        timeout = self.catalog.component(component).idle_timeout
        due = instance.idle_since + timeout
        self._queue.push(due, _INSTANCE_TIMEOUT, (node, component, due))
