"""What the benchmark measures: metric names, workload sizes, fixtures.

``BENCHMARK.json`` at the repository root lists the same names; the
harness self-test fails when the two drift apart.  Workload sizes are
constants: they are never scaled to the host, so every count a workload
reports repeats exactly from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "EXCLUSIVE_CELLS",
    "COUNT_CELLS",
    "WORKLOADS",
    "FIXTURES",
    "ABILENE_DECISIONS_PER_FLOW",
    "SMOKE_DIVISOR",
    "MIN_REPEATS",
    "SETUP_ROUNDS",
    "SAMPLE_EVERY",
]

#: Timed repeats per run (more while ``--seconds`` has not elapsed).
MIN_REPEATS = 3
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_ROUNDS = 3
#: One served action in this many is re-derived through ``act_single``.
SAMPLE_EVERY = 16
#: ``--smoke`` divides every workload's work by this.
SMOKE_DIVISOR = 20


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("decisions_per_s", "1/s", "higher", 0.25),
    EndToEnd("flows_per_s", "1/s", "higher", 0.25),
    EndToEnd("decision_ms_p50", "ms", "lower", 0.25),
    EndToEnd("decision_ms_p95", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
)

#: Cells holding *self* time (a span's duration minus its child spans).
#: Together with the unattributed remainder they sum to the traced
#: replay's wall time; every other ``*_s`` cell is inclusive and nests
#: inside one of these.
EXCLUSIVE_CELLS: Tuple[str, ...] = (
    "sim.advance_s",
    "traffic.generate_s",
    "core.observations.build_s",
    "core.agent.deploy_s",
    "core.agent.act_self_s",
    "rl.policy.act_single_s",
    "core.env.step_s",
    "core.env.reset_s",
    "nn.mlp.forward_s",
    "rl.runner.collect_s",
    "rl.acktr.update_s",
    "serving.engine.submit_s",
    "serving.engine.poll_s",
    "serving.engine.select_emit_s",
    "serving.engine.install_s",
    "harness.idle_wait_s",
)

#: Cells that must repeat exactly between two runs of the same seed.
COUNT_CELLS: Tuple[str, ...] = (
    "sim.decisions",
    "sim.flows_generated",
    "sim.flows_succeeded",
    "sim.flows_dropped",
    "sim.drop_network_failure",
    "faults.events",
    "core.observations.builds",
    "core.agent.deploys",
    "core.env.steps",
    "core.env.resets",
    "rl.acktr.updates",
    "rl.acktr.stat_skips",
)

_S, _US, _MS, _N = "s", "us", "ms", "count"
_LOW, _HIGH = "lower", "higher"

#: (name, unit, better) of every per-layer metric, grouped by module.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # repro.sim / repro.faults / repro.traffic
    ("sim.advance_s", _S, _LOW),
    ("sim.advance_us_per_decision", _US, _LOW),
    ("sim.decisions", _N, _HIGH),
    ("sim.flows_generated", _N, _HIGH),
    ("sim.flows_succeeded", _N, _HIGH),
    ("sim.flows_dropped", _N, _LOW),
    ("sim.drop_network_failure", _N, _LOW),
    ("faults.events", _N, _HIGH),
    ("traffic.generate_s", _S, _LOW),
    # repro.core.observations
    ("core.observations.build_s", _S, _LOW),
    ("core.observations.builds", _N, _LOW),
    ("core.observations.build_us", _US, _LOW),
    # repro.core.agent / repro.rl.policy
    ("core.agent.deploy_s", _S, _LOW),
    ("core.agent.deploys", _N, _LOW),
    ("core.agent.act_self_s", _S, _LOW),
    ("rl.policy.clone_ms", _MS, _LOW),
    ("rl.policy.act_single_s", _S, _LOW),
    ("rl.policy.act_single_us", _US, _LOW),
    # repro.core.env
    ("core.env.step_s", _S, _LOW),
    ("core.env.reset_s", _S, _LOW),
    ("core.env.steps", _N, _HIGH),
    ("core.env.resets", _N, _HIGH),
    # repro.nn.mlp (MLPInference workspaces)
    ("nn.mlp.forward_s", _S, _LOW),
    ("nn.mlp.forward_calls", _N, _LOW),
    ("nn.mlp.rows_per_call", "rows", _HIGH),
    # repro.rl.runner / repro.rl.acktr / repro.nn.kfac
    ("rl.runner.collect_s", _S, _LOW),
    ("rl.runner.policy_forward_s", _S, _LOW),
    ("rl.acktr.update_s", _S, _LOW),
    ("rl.acktr.updates", _N, _HIGH),
    ("rl.acktr.stat_skips", _N, _HIGH),
    ("nn.kfac.fisher_stats_s", _S, _LOW),
    ("nn.kfac.grad_pass_s", _S, _LOW),
    ("nn.kfac.inversion_s", _S, _LOW),
    ("nn.kfac.precondition_s", _S, _LOW),
    # repro.serving.engine / repro.rl.batched
    ("serving.engine.submit_s", _S, _LOW),
    ("serving.engine.poll_s", _S, _LOW),
    ("serving.engine.flush_s", _S, _LOW),
    ("serving.engine.forward_s", _S, _LOW),
    ("serving.engine.select_emit_s", _S, _LOW),
    ("serving.engine.install_s", _S, _LOW),
    ("serving.engine.flushes", _N, _LOW),
    ("serving.engine.mean_batch", "rows", _HIGH),
    ("serving.engine.size_flushes", _N, _HIGH),
    ("serving.engine.deadline_flushes", _N, _LOW),
    ("serving.engine.forced_flushes", _N, _LOW),
    ("serving.engine.shed", _N, _LOW),
    ("serving.engine.swaps", _N, _HIGH),
    ("serving.engine.install_us", _US, _LOW),
    ("serving.engine.swap_flush_ms_p50", _MS, _LOW),
    ("serving.engine.swap_flush_ms_max", _MS, _LOW),
    ("serving.engine.plain_flush_ms_p50", _MS, _LOW),
    ("serving.engine.latency_ms_p99", _MS, _LOW),
    ("serving.engine.latency_ms_max", _MS, _LOW),
    ("serving.engine.saturated_decisions_per_s", "1/s", _HIGH),
    ("rl.batched.tie_fallbacks", _N, _LOW),
    # repro.serving.queue
    ("serving.queue.wait_ms_p50", _MS, _LOW),
    ("serving.queue.wait_ms_p95", _MS, _LOW),
    ("serving.queue.max_depth", _N, _LOW),
    # the harness itself
    ("harness.idle_wait_s", _S, _LOW),
    ("harness.unattributed_share", "ratio", _LOW),
    ("harness.trace_overhead_share", "ratio", _LOW),
    ("harness.sched_lag_ms_p99", _MS, _LOW),
    ("harness.calib_gemm_gflops", "GFLOP/s", _HIGH),
    ("harness.calib_pyloop_mops", "Mop/s", _HIGH),
    ("harness.calib_coldgemv_us", _US, _LOW),
    ("harness.failed_share", "ratio", _LOW),
)

#: name -> one line on why the workload exists.
WORKLOADS: Dict[str, str] = {
    "train_acktr_abilene": (
        "ACKTR training, 4 envs x 32 steps on Abilene: the only workload "
        "where rl.acktr and nn.kfac do most of the work; serving and "
        "per-node deployment are bypassed"
    ),
    "coordinate_abilene": (
        "distributed deployment as evaluate_policy_on_scenario runs it: "
        "per-seed coordinator build, batch-1 act_single per decision, sim "
        "in the loop; optimizer and serving are bypassed"
    ),
    "coordinate_interroute_churn": (
        "same driver on 110 nodes with MMPP traffic and churn faults: "
        "large cloned working set, fault-aware observation reads, deploy "
        "cost dominates; guards gains that only hold on small networks"
    ),
    "serve_closed_sim": (
        "64 simulator clients block on one ServingEngine (B=32): width-32 "
        "forward replaces batch-1, env.step is most of wall, so a "
        "serving-only speed-up is predicted to move little"
    ),
    "serve_open_pool": (
        "open-loop Poisson at a fixed 40k req/s over an observation pool "
        "with a hot-swap every 500 requests: queue, flush and swap do all "
        "the work and the simulator none"
    ),
}

#: Decisions the Abilene fixture spends per flow it finishes (40 greedy
#: episodes, printed by make_fixtures.py).  ``serve_open_pool`` replays
#: observations and has no flows of its own; it reports its decision
#: rate in flow units through this constant.
ABILENE_DECISIONS_PER_FLOW = 12.0574

#: Committed checkpoints (see make_fixtures.py) and their sha256.
FIXTURES: Dict[str, str] = {
    "abilene_acktr.npz": (
        "d1378b74575c6907c660e0beb9907c22b94eca366f333e64a92d8f934d74595d"
    ),
    "interroute_acktr.npz": (
        "d017f0d5ffdc527aa75c6528feb732d70c4881fab916c703647bb027e248bff6"
    ),
}
