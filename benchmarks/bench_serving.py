"""Serving-engine benchmark: decisions/sec and latency SLOs online.

Drives :class:`repro.serving.ServingEngine` through seeded workloads on
real observation vectors from the default Abilene scenario:

- *saturation*: closed-loop peak decisions/sec of the micro-batched
  engine (B=32) vs a batch-1 engine — the speedup micro-batching exists
  for.  A second saturated run hot-swaps cloned weights under load to
  confirm swaps never drop or stall requests.
- *open-loop sweep*: Poisson arrivals over arrival rate x flush
  deadline; each cell reports throughput, batch-size
  statistics, the flush-trigger split, and latency percentiles.  Cells
  that shed nothing must honour the SLO: p99 latency <= deadline + the
  worst single flush + scheduling slack.
- *overload*: arrivals at a multiple of the measured saturation rate,
  confirming the queue-depth cap sheds load instead of growing without
  bound.
- *GEMM calibration*: the same single-threaded float64 GEMM figure as
  the training bench; the regression gate normalises by it so slower
  hardware is not mistaken for a code regression.

The report is persisted as ``BENCH_serving.json`` in the repo root
(override with ``REPRO_BENCH_SERVING_JSON``).  If a previous report is
committed there, the run fails when calibration-normalised saturated
decisions/sec regresses by more than 30%.

Run directly (``PYTHONPATH=src python benchmarks/bench_serving.py``)
or via pytest (``pytest benchmarks/bench_serving.py``).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from _config import SCALE
from bench_training import measure_gemm_gflops

from repro.core.env import ServiceCoordinationEnv
from repro.eval.scenarios import base_scenario
from repro.rl.policy import ActorCriticPolicy
from repro.serving import ServingConfig, collect_observation_pool, serve_workload

#: Observation pool size (request payloads, cycled by the load driver).
POOL = 256

#: Micro-batch width of the measured engine (the engine default).
MICRO_BATCH = 32

#: Best-of repetitions for the saturation measurements.
REPS = 2 if SCALE.name == "smoke" else 3

#: Closed-loop requests per saturation repetition.
SATURATION_REQUESTS = {"smoke": 2000, "default": 8000, "paper": 20000}[SCALE.name]

#: Requests of the batch-1 reference engine (slower path, fewer needed).
BATCH1_REQUESTS = {"smoke": 600, "default": 2000, "paper": 4000}[SCALE.name]

#: Open-loop sweep grid (arrival rates in req/s, deadlines in ms).
SWEEP_REQUESTS = {"smoke": 600, "default": 4000, "paper": 10000}[SCALE.name]
SWEEP_RATES = {
    "smoke": (2000.0,),
    "default": (5000.0, 20000.0),
    "paper": (5000.0, 20000.0, 50000.0),
}[SCALE.name]
SWEEP_DEADLINES_MS = {
    "smoke": (5.0,),
    "default": (1.0, 5.0),
    "paper": (1.0, 2.0, 5.0),
}[SCALE.name]

#: Overload arrival rate as a multiple of the measured saturation rate.
OVERLOAD_FACTOR = 5.0

#: Hot-swap cadence of the swap-under-load saturation run.
SWAP_EVERY = 500

#: Scheduling slack of the latency SLO check (one timer/OS hiccup).
SLO_SLACK_MS = 2.0

#: Allowed regression of calibration-normalised saturated decisions/sec
#: vs the committed baseline report.
REGRESSION_TOLERANCE = 0.30

#: The micro-batching speedup target at the default/paper scales (the
#: smoke scale only asserts no slowdown — tiny runs make timing noisy).
SPEEDUP_TARGET = 3.0


def _default_json_path() -> Path:
    override = os.environ.get("REPRO_BENCH_SERVING_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def _policy_and_pool() -> tuple[ActorCriticPolicy, np.ndarray]:
    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=400.0)
    probe = ServiceCoordinationEnv(scenario, seed=0)
    policy = ActorCriticPolicy(probe.observation_size, probe.num_actions, rng=0)
    return policy, collect_observation_pool(scenario, policy, POOL)


def _cell(engine, **extra) -> dict:
    """One engine run's counters as a JSON-ready dict."""
    stats = engine.stats
    pct = stats.latency_percentiles_ms()
    cell = {
        "requests": stats.submitted,
        "served": stats.served,
        "shed": stats.shed,
        "flushes": stats.flushes,
        "size_flushes": stats.size_flushes,
        "deadline_flushes": stats.deadline_flushes,
        "forced_flushes": stats.forced_flushes,
        "mean_batch": stats.mean_batch,
        "max_batch": stats.max_batch,
        "max_queue_depth": stats.max_queue_depth,
        "swaps": stats.swaps,
        "policy_version": engine.policy_version,
        "decisions_per_second": stats.decisions_per_second,
        "max_flush_ms": stats.max_flush_seconds * 1000.0,
        "wall_seconds": stats.wall_seconds,
    }
    if stats.latencies:
        cell.update(
            latency_p50_ms=pct["p50"],
            latency_p95_ms=pct["p95"],
            latency_p99_ms=pct["p99"],
            latency_max_ms=pct["max"],
        )
    cell.update(extra)
    return cell


def measure_saturation(
    policy: ActorCriticPolicy,
    observations: np.ndarray,
    batch: int,
    requests: int,
    swap_every: int = 0,
) -> dict:
    """Best-of closed-loop peak throughput of one engine configuration."""
    best = None
    for _ in range(REPS):
        engine = serve_workload(
            policy,
            observations,
            requests=requests,
            rate=0.0,
            config=ServingConfig(max_batch=batch),
            swap_every=swap_every,
        )
        if best is None or (
            engine.stats.decisions_per_second > best.stats.decisions_per_second
        ):
            best = engine
    return _cell(best, batch=batch)


def measure_open_loop(
    policy: ActorCriticPolicy,
    observations: np.ndarray,
    rate: float,
    deadline_ms: float,
    requests: int,
    queue_capacity: int | None = None,
) -> dict:
    engine = serve_workload(
        policy,
        observations,
        requests=requests,
        rate=rate,
        config=ServingConfig(
            max_batch=MICRO_BATCH,
            deadline_s=deadline_ms / 1000.0,
            queue_capacity=queue_capacity,
        ),
    )
    return _cell(engine, rate=rate, deadline_ms=deadline_ms)


def run_bench() -> dict:
    policy, observations = _policy_and_pool()

    batch1 = measure_saturation(policy, observations, 1, BATCH1_REQUESTS)
    micro = measure_saturation(
        policy, observations, MICRO_BATCH, SATURATION_REQUESTS
    )
    swapped = measure_saturation(
        policy,
        observations,
        MICRO_BATCH,
        SATURATION_REQUESTS,
        swap_every=SWAP_EVERY,
    )
    sweep = [
        measure_open_loop(policy, observations, rate, deadline_ms, SWEEP_REQUESTS)
        for rate in SWEEP_RATES
        for deadline_ms in SWEEP_DEADLINES_MS
    ]
    overload_rate = OVERLOAD_FACTOR * micro["decisions_per_second"]
    overload = measure_open_loop(
        policy, observations, overload_rate, 2.0, SWEEP_REQUESTS
    )
    return {
        "kind": "serving_bench",
        "scale": SCALE.name,
        "scenario": "Abilene/poisson/2-ingress",
        "obs_dim": int(observations.shape[1]),
        "num_actions": int(policy.num_actions),
        "pool": int(observations.shape[0]),
        "micro_batch": MICRO_BATCH,
        "gemm_gflops": measure_gemm_gflops(),
        "saturation": {
            "batch1": batch1,
            "micro": micro,
            "swapped": swapped,
            "speedup": micro["decisions_per_second"]
            / batch1["decisions_per_second"],
        },
        "sweep": sweep,
        "overload": overload,
    }


def load_baseline() -> dict | None:
    """The committed previous report, read before this run overwrites it."""
    path = _default_json_path()
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError):
        return None


def persist(report: dict) -> Path:
    path = _default_json_path()
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def render(report: dict) -> str:
    sat = report["saturation"]
    lines = [
        f"Serving engine ({report['scenario']}, scale={report['scale']}, "
        f"B={report['micro_batch']})",
        (
            f"  saturation      : {sat['micro']['decisions_per_second']:>10.0f}"
            f" decisions/sec micro-batched vs"
            f" {sat['batch1']['decisions_per_second']:.0f} at batch 1"
            f" ({sat['speedup']:.2f}x)"
        ),
        (
            f"  swap under load : {sat['swapped']['swaps']} hot-swaps,"
            f" {sat['swapped']['served']} served,"
            f" version {sat['swapped']['policy_version']},"
            f" {sat['swapped']['decisions_per_second']:.0f} decisions/sec"
        ),
    ]
    for cell in report["sweep"]:
        p99 = cell.get("latency_p99_ms", float("nan"))
        lines.append(
            f"  open loop {cell['rate']:>7.0f}/s D={cell['deadline_ms']:.0f}ms"
            f": {cell['decisions_per_second']:>7.0f}/s"
            f" mean batch {cell['mean_batch']:>4.1f}"
            f" p99 {p99:.2f}ms shed {cell['shed']}"
        )
    over = report["overload"]
    lines.append(
        f"  overload {over['rate']:.0f}/s: shed {over['shed']}/"
        f"{over['requests']} (queue depth <= {over['max_queue_depth']})"
    )
    lines.append(
        f"  GEMM calibration: {report['gemm_gflops']:>10.1f} GFLOPS (f64, 1 thread)"
    )
    return "\n".join(lines)


def check(report: dict, baseline: dict | None) -> None:
    """The acceptance thresholds (scale-aware; see module docstring)."""
    sat = report["saturation"]
    assert sat["micro"]["served"] == SATURATION_REQUESTS
    assert sat["batch1"]["served"] == BATCH1_REQUESTS
    # Saturation mode tops the queue up and never overflows it.
    assert sat["micro"]["shed"] == 0 and sat["batch1"]["shed"] == 0
    floor = SPEEDUP_TARGET if SCALE.name != "smoke" else 1.0
    assert sat["speedup"] >= floor, (
        f"micro-batching speedup {sat['speedup']:.2f}x is below the "
        f"{floor:.1f}x target"
    )
    # Hot-swapping under load must neither drop requests nor stall.
    swapped = sat["swapped"]
    assert swapped["swaps"] > 0 and swapped["served"] == SATURATION_REQUESTS
    assert swapped["policy_version"] == swapped["swaps"]

    for cell in report["sweep"]:
        assert cell["served"] + cell["shed"] == cell["requests"]
        if cell["shed"] == 0 and "latency_p99_ms" in cell:
            # The SLO: queue wait is bounded by the deadline trigger, so
            # p99 <= deadline + the worst single flush + slack.
            bound = cell["deadline_ms"] + cell["max_flush_ms"] + SLO_SLACK_MS
            assert cell["latency_p99_ms"] <= bound, (
                f"p99 {cell['latency_p99_ms']:.2f}ms exceeds the SLO bound "
                f"{bound:.2f}ms (rate {cell['rate']:.0f}/s, deadline "
                f"{cell['deadline_ms']:.0f}ms)"
            )
    over = report["overload"]
    assert over["shed"] > 0, (
        f"overload at {over['rate']:.0f} req/s shed nothing — the "
        "queue-depth cap is not applying backpressure"
    )
    assert over["served"] + over["shed"] == over["requests"]

    if baseline is None:
        return
    base_rate = baseline.get("saturation", {}).get("micro", {}).get(
        "decisions_per_second"
    )
    base_gflops = baseline.get("gemm_gflops")
    if not base_rate or not base_gflops:
        return
    # Normalise by the hardware calibration so a slower host is not
    # mistaken for a code regression.
    expected = base_rate * (report["gemm_gflops"] / base_gflops)
    floor = expected * (1.0 - REGRESSION_TOLERANCE)
    assert sat["micro"]["decisions_per_second"] >= floor, (
        f"serving throughput regressed: "
        f"{sat['micro']['decisions_per_second']:.0f} decisions/sec vs "
        f"calibration-normalised baseline {expected:.0f} (floor {floor:.0f})"
    )


def test_serving_throughput(bench_report):
    baseline = load_baseline()
    report = run_bench()
    rendered = render(report)
    bench_report.append(rendered)
    print()
    print(rendered)
    path = persist(report)
    print(f"Serving bench JSON written to {path}")
    check(report, baseline)


if __name__ == "__main__":
    baseline = load_baseline()
    report = run_bench()
    print(render(report))
    path = persist(report)
    print(f"Serving bench JSON written to {path}")
    check(report, baseline)
