"""Run protocol shared by the five workloads.

One ``--trace 0`` run sets a workload up :data:`~perf_spec.SETUP_ROUNDS`
times (``setup_s`` is the median), then times fixed-work repeats on
seeds S, S+1, S+2, ... until ``--seconds`` have passed (at least
:data:`~perf_spec.MIN_REPEATS`).  Repeats are cut into equal-work
segments; rates and latency percentiles are the fast decile over all
segments of the run (:func:`fast_decile`).

One ``--trace 1`` run times repeat 0 untraced, then replays it with every
layer's public entry points wrapped (:func:`layer_patches`).  The replay
must reproduce repeat 0's counts and digest exactly; its wall time over
repeat 0's is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from perf_spec import END_TO_END, MIN_REPEATS, PER_LAYER, SETUP_ROUNDS
from perf_tracing import Patch, Tracer, patched

__all__ = [
    "Segment",
    "Repeat",
    "Region",
    "Trace",
    "Workload",
    "timed",
    "layer_patches",
    "percentile",
    "fast_decile",
    "weights_digest",
    "measure_end_to_end",
    "measure_per_layer",
    "host_report",
    "print_metrics",
]

REPO_ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Results of one repeat
# ----------------------------------------------------------------------


@dataclass
class Segment:
    """One slice of a timed region: a fixed share of the repeat's work."""

    decisions: int
    seconds: float
    #: Latency samples taken in the slice, in seconds.
    latencies_s: Sequence[float]


@dataclass
class Repeat:
    """What one fixed-work repeat did and how long it took."""

    #: Wall seconds of the timed region.
    wall_s: float
    #: Decisions completed in the timed region.
    decisions: int
    #: Flows brought to a terminal state in the timed region.
    flows: float
    #: The region cut at the workload's segment boundaries.
    segments: List[Segment]
    #: Operations attempted, and how many failed for which reason.
    attempted: int
    failures: Dict[str, int] = field(default_factory=dict)
    #: Counts (and the state digest) a replay of the same seed must
    #: reproduce exactly.
    counts: Dict[str, Any] = field(default_factory=dict)
    #: Layer cells only the driver can see (engine counters, profiler
    #: sub-phases), by per-layer metric name.
    cells: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Interface the run protocol drives; see ``perf_workloads``."""

    name: str
    #: The committed checkpoint the workload starts from (set by setup).
    fixture: Any

    def setup(self, seed: int) -> None:
        """Build everything a repeat needs and warm it up."""
        raise NotImplementedError

    def repeat(self, seed: int, trace: Optional["Trace"] = None) -> Repeat:
        """Do the workload's fixed work once; traced when given a trace."""
        raise NotImplementedError

    def resolved_config(self) -> Dict[str, Any]:
        """The knobs that produced the numbers, for the report."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Tracing glue
# ----------------------------------------------------------------------


class Trace:
    """A tracer plus the few per-call samples cells alone cannot hold."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.forward_rows = 0
        self.swap_flush_s: List[float] = []
        self.plain_flush_s: List[float] = []
        self.queue_wait_s: List[float] = []
        self._served_version = 0

    def note_flush(self, entered: float, decisions: Sequence[Any], duration: float) -> None:
        """File one flush under swap/plain and record its queue waits.

        ``entered`` is the engine-clock time the flush call began, the
        same clock the decisions' enqueue times are on.
        """
        version = decisions[0].policy_version
        if version != self._served_version:
            self._served_version = version
            self.swap_flush_s.append(duration)
        else:
            self.plain_flush_s.append(duration)
        self.queue_wait_s.extend(entered - d.enqueue_time for d in decisions)


class Region:
    """The timed region of one repeat and its segment boundaries."""

    def __init__(self) -> None:
        self.started = 0.0
        self.wall_s = 0.0
        #: (decisions done, latency samples taken, seconds since start).
        self.marks: List[Tuple[int, int, float]] = [(0, 0, 0.0)]

    def mark(self, decisions: int, samples: int) -> None:
        """Close a segment here: so much is done since the region began."""
        self.marks.append((decisions, samples, time.perf_counter() - self.started))

    def segments(self, latencies_s: Sequence[float]) -> List[Segment]:
        return [
            Segment(d1 - d0, t1 - t0, latencies_s[n0:n1])
            for (d0, n0, t0), (d1, n1, t1) in zip(self.marks, self.marks[1:])
        ]


@contextmanager
def timed(trace: Optional[Trace]) -> Iterator[Region]:
    """Time a repeat's region.  With a trace the layer patches are
    applied only for the region, so untimed preparation leaves no spans
    behind."""
    region = Region()
    if trace is None:
        region.started = time.perf_counter()
        try:
            yield region
        finally:
            region.wall_s = time.perf_counter() - region.started
    else:
        with patched(layer_patches(trace)), trace.tracer.root():
            region.started = time.perf_counter()
            yield region
        region.wall_s = trace.tracer.wall_s


def layer_patches(trace: Trace) -> List[Patch]:
    """Wrappers around the public calls into every layer.

    The same list serves all workloads: a layer a workload bypasses
    simply records no span, and its cells read 0.
    """
    from perf_workloads import ServeOpenPool

    from repro.core.agent import DistributedCoordinator
    from repro.core.env import ServiceCoordinationEnv
    from repro.core.observations import ObservationAdapter
    from repro.eval.scenarios import ScenarioTrafficFactory
    from repro.nn.mlp import MLPInference
    from repro.rl.a2c import A2CTrainer
    from repro.rl.policy import ActorCriticPolicy
    from repro.rl.runner import ParallelRunner
    from repro.serving.engine import ServingEngine
    from repro.sim.simulator import Simulator

    tracer = trace.tracer
    begin, end = tracer.begin, tracer.end

    def span(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        return lambda original: tracer.wrap(name, original)

    def traffic(original: Callable[..., Any]) -> Callable[..., Any]:
        # The factory returns a lazy generator the simulator pulls one
        # flow at a time, so the work is in next(), not in the call.
        def traced(factory: Any, rng: Any) -> Any:
            return tracer.wrap_iterator(
                "traffic.generate", iter(original(factory, rng))
            )

        return traced

    def forward(original: Callable[..., Any]) -> Callable[..., Any]:
        def traced(inference: Any, x: Any) -> Any:
            trace.forward_rows += len(x)
            started = begin()
            try:
                return original(inference, x)
            finally:
                end("nn.mlp.forward", started)

        return traced

    def flushing(original: Callable[..., Any]) -> Callable[..., Any]:
        # poll() and flush(): a call that served decisions is a flush
        # span, one that found nothing due is a poll span.
        def traced(engine: Any, *args: Any) -> Any:
            entered = engine.clock()
            started = begin()
            decisions: Sequence[Any] = ()
            try:
                decisions = original(engine, *args)
            finally:
                duration = end(
                    "serving.engine.flush" if decisions else "serving.engine.poll",
                    started,
                )
            if decisions:
                trace.note_flush(entered, decisions, duration)
            return decisions

        return traced

    sim = span("sim.advance")
    return [
        (Simulator, "__init__", sim),
        (Simulator, "run", sim),
        (Simulator, "next_decision", sim),
        (Simulator, "apply_action", sim),
        (Simulator, "finalize", sim),
        (ScenarioTrafficFactory, "__call__", traffic),
        (ObservationAdapter, "build", span("core.observations.build")),
        (DistributedCoordinator, "__init__", span("core.agent.deploy")),
        (DistributedCoordinator, "__call__", span("core.agent.act")),
        (ActorCriticPolicy, "act_single", span("rl.policy.act_single")),
        (ServiceCoordinationEnv, "step", span("core.env.step")),
        (ServiceCoordinationEnv, "reset_episode", span("core.env.reset")),
        (MLPInference, "forward", forward),
        (ParallelRunner, "collect", span("rl.runner.collect")),
        (A2CTrainer, "update", span("rl.acktr.update")),
        (ServingEngine, "submit", span("serving.engine.submit")),
        (ServingEngine, "poll", flushing),
        (ServingEngine, "flush", flushing),
        (ServingEngine, "install", span("serving.engine.install")),
        (ServeOpenPool, "idle_until", span("harness.idle_wait")),
    ]


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0 when there is no sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def fast_decile(values: Sequence[float], higher_is_better: bool) -> float:
    """The decile on the good side of per-segment values.

    On a shared host a neighbour can only slow a segment down, for
    seconds at a time, so the slow side of the distribution tracks the
    neighbours and the fast side tracks the code; a regression shifts
    every segment, and this decile with them.
    """
    return float(np.quantile(values, 0.9 if higher_is_better else 0.1))


def weights_digest(policy: Any) -> str:
    """sha256 over actor and critic parameters, in layer order."""
    digest = hashlib.sha256()
    for net in (policy.actor, policy.critic):
        for weight in net.parameters:
            digest.update(np.ascontiguousarray(weight).tobytes())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate_gemm_gflops() -> float:
    """Best-of float64 GEMM rate at the K-FAC factor shape (257 = 256
    hidden units + folded bias)."""
    a = np.random.default_rng(0).normal(size=(257, 257))
    b = np.random.default_rng(1).normal(size=(257, 256))
    a @ b
    reps, best = 40, math.inf
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(reps):
            a @ b
        best = min(best, time.perf_counter() - started)
    return 2.0 * 257 * 257 * 256 * reps / best / 1e9


def calibrate_pyloop_mops() -> float:
    """Best-of rate of a plain interpreter loop (dict update + float add
    per iteration).  The simulator is interpreter-bound, so a GEMM figure
    alone cannot tell a slow host from a regression."""
    iterations, best = 200_000, math.inf
    for _ in range(5):
        table: Dict[int, float] = {}
        total = 0.0
        started = time.perf_counter()
        for i in range(iterations):
            table[i & 255] = total
            total += 0.5
        best = min(best, time.perf_counter() - started)
    return iterations / best / 1e6


def calibrate_coldgemv_us() -> float:
    """Best-of time of one batch-1 (1, 257) x (257, 256) product when the
    matrix comes from a 34 MB set walked in random order, as a deployed
    coordinator's per-node clones do.  On a shared host this figure
    doubles for minutes when a neighbour evicts the set from the last
    level cache; the per-node workloads slow down with it."""
    rng = np.random.default_rng(0)
    weights = [rng.normal(size=(257, 256)) for _ in range(64)]
    x = rng.normal(size=(1, 257))
    out = np.empty((1, 256))
    order = rng.integers(0, len(weights), size=256).tolist()
    best = math.inf
    for _ in range(5):
        started = time.perf_counter()
        for k in order:
            np.matmul(x, weights[k], out=out)
        best = min(best, time.perf_counter() - started)
    return best / len(order) * 1e6


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def _blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def host_report(scrubbed: Sequence[str]) -> Dict[str, Any]:
    """Run hygiene, recorded next to the metrics."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": _git_sha(),
        "scrubbed_env": list(scrubbed),
        "calib_gemm_gflops": calibrate_gemm_gflops(),
        "calib_pyloop_mops": calibrate_pyloop_mops(),
        "calib_coldgemv_us": calibrate_coldgemv_us(),
    }


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------


def _timed_setup(workload: Workload, seed: int) -> float:
    started = time.perf_counter()
    workload.setup(seed)
    return time.perf_counter() - started


def _merge_failures(repeats: Sequence[Repeat]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for repeat in repeats:
        for reason, count in repeat.failures.items():
            if count:
                merged[reason] = merged.get(reason, 0) + count
    return merged


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float
) -> Dict[str, Any]:
    """``--trace 0``: every end-to-end metric, from untraced repeats."""
    setups = [_timed_setup(workload, seed) for _ in range(SETUP_ROUNDS)]
    repeats: List[Repeat] = []
    started = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - started < seconds:
        repeats.append(workload.repeat(seed + len(repeats)))
    segments = [segment for repeat in repeats for segment in repeat.segments]
    rates = [segment.decisions / segment.seconds for segment in segments]
    p50s = [percentile(segment.latencies_s, 50.0) * 1e3 for segment in segments]
    p95s = [percentile(segment.latencies_s, 95.0) * 1e3 for segment in segments]
    decisions = sum(r.decisions for r in repeats)
    decisions_per_s = fast_decile(rates, higher_is_better=True)
    values = {
        "setup_s": statistics.median(setups),
        "decisions_per_s": decisions_per_s,
        # Flows and decisions are exact counts of the same work, so the
        # flow rate is the decision rate in flow units.
        "flows_per_s": decisions_per_s * sum(r.flows for r in repeats) / decisions,
        "decision_ms_p50": fast_decile(p50s, higher_is_better=False),
        "decision_ms_p95": fast_decile(p95s, higher_is_better=False),
        "peak_rss_mb": peak_rss_mb(),
    }
    failures = _merge_failures(repeats)
    return {
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END
        },
        "attempted": sum(r.attempted for r in repeats),
        "failed": sum(failures.values()),
        "failures": failures,
        "detail": {
            "setup_s": setups,
            "repeat_wall_s": [r.wall_s for r in repeats],
            "repeat_counts": [r.counts for r in repeats],
            "segment_decisions_per_s": rates,
            "segment_ms_p50": p50s,
            "segment_ms_p95": p95s,
        },
    }


def measure_per_layer(
    workload: Workload, seed: int, host: Dict[str, Any]
) -> Dict[str, Any]:
    """``--trace 1``: repeat 0 untraced, then its traced replay."""
    workload.setup(seed)
    first = workload.repeat(seed)
    trace = Trace()
    replay = workload.repeat(seed, trace)

    failures = _merge_failures([first, replay])
    mismatched = [
        key
        for key in sorted(set(first.counts) | set(replay.counts))
        if first.counts.get(key) != replay.counts.get(key)
    ]
    if mismatched:
        failures["replay_count_mismatch"] = len(mismatched)
    attempted = first.attempted + replay.attempted
    failed = sum(failures.values())

    clone_s = []
    for _ in range(20):
        started = time.perf_counter()
        workload.fixture.clone()
        clone_s.append(time.perf_counter() - started)

    tracer = trace.tracer
    cells: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    def per_call_us(name: str) -> float:
        count = tracer.count(name)
        return tracer.total_s(name) / count * 1e6 if count else 0.0

    decisions = replay.decisions
    cells.update(
        {
            "sim.advance_s": tracer.self_s("sim.advance"),
            "sim.advance_us_per_decision": (
                tracer.self_s("sim.advance") / decisions * 1e6 if decisions else 0.0
            ),
            "traffic.generate_s": tracer.self_s("traffic.generate"),
            "core.observations.build_s": tracer.self_s("core.observations.build"),
            "core.observations.builds": tracer.count("core.observations.build"),
            "core.observations.build_us": per_call_us("core.observations.build"),
            "core.agent.deploy_s": tracer.self_s("core.agent.deploy"),
            "core.agent.deploys": tracer.count("core.agent.deploy"),
            "core.agent.act_self_s": tracer.self_s("core.agent.act"),
            "rl.policy.clone_ms": statistics.median(clone_s) * 1e3,
            "rl.policy.act_single_s": tracer.self_s("rl.policy.act_single"),
            "rl.policy.act_single_us": per_call_us("rl.policy.act_single"),
            "core.env.step_s": tracer.self_s("core.env.step"),
            "core.env.reset_s": tracer.self_s("core.env.reset"),
            "core.env.steps": tracer.count("core.env.step"),
            "core.env.resets": tracer.count("core.env.reset"),
            "nn.mlp.forward_s": tracer.self_s("nn.mlp.forward"),
            "nn.mlp.forward_calls": tracer.count("nn.mlp.forward"),
            "nn.mlp.rows_per_call": (
                trace.forward_rows / tracer.count("nn.mlp.forward")
                if tracer.count("nn.mlp.forward")
                else 0.0
            ),
            "rl.runner.collect_s": tracer.self_s("rl.runner.collect"),
            "rl.acktr.update_s": tracer.self_s("rl.acktr.update"),
            "serving.engine.submit_s": tracer.self_s("serving.engine.submit"),
            "serving.engine.poll_s": tracer.self_s("serving.engine.poll"),
            "serving.engine.flush_s": tracer.total_s("serving.engine.flush"),
            "serving.engine.select_emit_s": tracer.self_s("serving.engine.flush"),
            "serving.engine.install_s": tracer.self_s("serving.engine.install"),
            "serving.engine.install_us": per_call_us("serving.engine.install"),
            "serving.engine.swap_flush_ms_p50": percentile(trace.swap_flush_s, 50.0) * 1e3,
            "serving.engine.swap_flush_ms_max": max(trace.swap_flush_s, default=0.0) * 1e3,
            "serving.engine.plain_flush_ms_p50": percentile(trace.plain_flush_s, 50.0) * 1e3,
            "serving.queue.wait_ms_p50": percentile(trace.queue_wait_s, 50.0) * 1e3,
            "serving.queue.wait_ms_p95": percentile(trace.queue_wait_s, 95.0) * 1e3,
            "harness.idle_wait_s": tracer.self_s("harness.idle_wait"),
            "harness.unattributed_share": tracer.unattributed_share,
            "harness.trace_overhead_share": replay.wall_s / first.wall_s - 1.0,
            "harness.calib_gemm_gflops": host["calib_gemm_gflops"],
            "harness.calib_pyloop_mops": host["calib_pyloop_mops"],
            "harness.calib_coldgemv_us": host["calib_coldgemv_us"],
            "harness.failed_share": failed / attempted,
        }
    )
    for name, value in replay.counts.items():
        if name in cells:
            cells[name] = value
    cells.update(replay.cells)

    units = {name: unit for name, unit, _ in PER_LAYER}
    return {
        "metrics": {
            name: {"value": cells[name], "unit": units[name]} for name, _, _ in PER_LAYER
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "detail": {
            "first_wall_s": first.wall_s,
            "replay_wall_s": replay.wall_s,
            "replay_counts": replay.counts,
            "mismatched_counts": mismatched,
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def print_metrics(metrics: Dict[str, Dict[str, Any]]) -> None:
    width = max(len(name) for name in metrics)
    for name, cell in metrics.items():
        value = cell["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>14} {cell['unit']}")
