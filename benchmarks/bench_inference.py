"""Inference microbenchmark: decisions/sec of the policy hot path.

Measures the per-decision cost of turning an observation row into an
action, on real observation vectors collected from the default Abilene
scenario, through the two calls that ship:

- *serial*: ``policy.act_single`` per row (one batch-1 forward + argmax
  per decision) — what per-node agents run.
- *select(n)* for n in 1, 8, 32: one :class:`~repro.nn.mlp.MLPInference`
  forward over ``n`` rows +
  :meth:`~repro.rl.policy.ActorCriticPolicy.select_actions` on its logits
  — exactly the per-round work of
  :class:`repro.rl.batched.BatchedEpisodeRunner` and the per-flush work
  of the serving engine.  ``n = 1`` is the one-slot schedule
  ``evaluate_policy`` picks for a handful of episodes: a plain argmax,
  no near-tie guard.

It also times ``evaluate_policy`` end to end (simulator stepping
included) at 1, 4 and 12 episodes — both sides of the episode count
where it goes from one lockstep slot to one per episode — against this
file's own ``act_single`` loop, and checks the metrics are identical.

The report is persisted as ``BENCH_inference.json`` in the repo root
(override the path with ``REPRO_BENCH_INFERENCE_JSON``).  Thresholds:
select(n) must beat serial at every n > 1 and scale, and select(1) must
stay within 20 % of it (with the guard left on at one row it read 0.7x);
at the ``default``/``paper`` scales select(32) must deliver ≥2x over
serial.  The floor is a ratio, so it is set against the serial path as
it is now: ``act_single`` runs on the same zero-copy ``MLPInference``
workspace as the multi-row forward, which leaves batching only the
per-row share of one GEMM and one selection pass to win — a serial path
made faster must not fail the gate, and ≥2x is what width 32 still has
to deliver over it.  (The ``smoke`` CI scale skips the 2x floor, since
tiny shared runners make timing noisy.)

Run directly (``PYTHONPATH=src python benchmarks/bench_inference.py``)
or via pytest (``pytest benchmarks/bench_inference.py``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from _config import SCALE

from repro.core.env import ServiceCoordinationEnv
from repro.eval.scenarios import base_scenario
from repro.rl.policy import ActorCriticPolicy
from repro.rl.training import evaluate_policy
from repro.serving.loadgen import collect_observation_pool

BATCH_WIDTHS = (1, 8, 32)

#: Episode counts of the end-to-end comparison.
EPISODE_COUNTS = (1, 4, 12)

#: Observation pool size; decisions are measured over repeated sweeps.
POOL = 512

#: Minimum wall-clock per measurement (repeat sweeps until exceeded).
MIN_MEASURE_SECONDS = 0.2 if SCALE.name == "smoke" else 0.5


def _default_json_path() -> Path:
    override = os.environ.get("REPRO_BENCH_INFERENCE_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent / "BENCH_inference.json"


def _measure(sweeps: dict, decisions_per_sweep: int) -> dict:
    """decisions/sec of each sweep function: best of 3 rounds, every
    round timing each path in turn (sweeps until MIN_MEASURE_SECONDS of
    wall-clock), so a slow stretch of a shared host lands on all paths
    and not on whichever happened to be measured then."""
    for fn in sweeps.values():
        fn()  # warm-up (workspace allocation, BLAS thread spin-up)
    best = dict.fromkeys(sweeps, 0.0)
    for _ in range(3):
        for name, fn in sweeps.items():
            count = 0
            start = time.perf_counter()
            while True:
                fn()
                count += 1
                elapsed = time.perf_counter() - start
                if elapsed >= MIN_MEASURE_SECONDS:
                    break
            best[name] = max(best[name], count * decisions_per_sweep / elapsed)
    return best


def serial_sweep(policy: ActorCriticPolicy, rows: np.ndarray):
    def sweep() -> None:
        for row in rows:
            policy.act_single(row, deterministic=True)

    return sweep


def batched_sweep(policy: ActorCriticPolicy, rows: np.ndarray, batch: int):
    """One MLPInference forward + the shipped select per chunk."""
    inference = policy.actor_inference()
    actions = np.empty(batch, dtype=np.intp)

    def sweep() -> None:
        for start in range(0, len(rows), batch):
            x = rows[start : start + batch]
            policy.select_actions(inference.forward(x), x, actions[: len(x)])

    return sweep


def act_single_loop(policy: ActorCriticPolicy, env, episodes: int) -> dict:
    """The reference evaluation: one ``act_single`` per decision."""
    rewards, ratios = [], []
    for _ in range(episodes):
        obs, done, total, info = env.reset(), False, 0.0, {}
        while not done:
            obs, reward, done, info = env.step(policy.act_single(obs))
            total += reward
        rewards.append(total)
        ratios.append(float(info["success_ratio"]))
    return {
        "mean_episode_reward": float(np.mean(rewards)),
        "success_ratio": float(np.mean(ratios)),
    }


def end_to_end() -> list[dict]:
    """Wall-clock of ``evaluate_policy`` vs the act_single loop at each
    of EPISODE_COUNTS (best of three), plus an identity check of the
    returned metrics."""
    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=300.0)
    template = ServiceCoordinationEnv(scenario, seed=5)
    policy = ActorCriticPolicy(
        template.observation_size, template.num_actions, rng=0
    )

    def timed(fn, episodes: int) -> tuple[float, dict]:
        best, result = float("inf"), {}
        for _ in range(3):
            env = ServiceCoordinationEnv(scenario, seed=5)
            start = time.perf_counter()
            result = fn(policy, env, episodes=episodes)
            best = min(best, time.perf_counter() - start)
        return best, result

    rows = []
    for episodes in EPISODE_COUNTS:
        loop_s, loop = timed(act_single_loop, episodes)
        evaluate_s, evaluated = timed(evaluate_policy, episodes)
        rows.append({
            "episodes": episodes,
            "act_single_loop_seconds": loop_s,
            "evaluate_policy_seconds": evaluate_s,
            "identical_metrics": loop == evaluated,
        })
    return rows


def run_bench() -> dict:
    # Real observation rows from the default Abilene scenario, gathered by
    # playing episodes with an (untrained) policy.
    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=400.0)
    env = ServiceCoordinationEnv(scenario, seed=0)
    policy = ActorCriticPolicy(env.observation_size, env.num_actions, rng=0)
    rows = collect_observation_pool(scenario, policy, POOL)
    sweeps = {batch: batched_sweep(policy, rows, batch) for batch in BATCH_WIDTHS}
    batched_rates = _measure({"serial": serial_sweep(policy, rows), **sweeps}, len(rows))
    serial_rate = batched_rates.pop("serial")
    report = {
        "kind": "inference_bench",
        "scale": SCALE.name,
        "scenario": "Abilene/poisson/2-ingress",
        "obs_dim": int(rows.shape[1]),
        "num_actions": int(policy.num_actions),
        "pool": int(len(rows)),
        "serial_decisions_per_second": serial_rate,
        "batched_decisions_per_second": {
            str(batch): rate for batch, rate in batched_rates.items()
        },
        "speedup": {
            str(batch): rate / serial_rate for batch, rate in batched_rates.items()
        },
        "end_to_end": end_to_end(),
    }
    return report


def persist(report: dict) -> Path:
    path = _default_json_path()
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def render(report: dict) -> str:
    lines = [
        "Inference microbenchmark (decisions/sec, "
        f"{report['scenario']}, obs_dim={report['obs_dim']})",
        f"  serial act_single : {report['serial_decisions_per_second']:>12.0f}",
    ]
    for batch, rate in report["batched_decisions_per_second"].items():
        speedup = report["speedup"][batch]
        lines.append(f"  select  (n={batch:>3}) : {rate:>12.0f}  ({speedup:.2f}x)")
    for e2e in report["end_to_end"]:
        lines.append(
            f"  end-to-end eval ({e2e['episodes']:>2} episodes): act_single loop "
            f"{e2e['act_single_loop_seconds']:.3f}s vs evaluate_policy "
            f"{e2e['evaluate_policy_seconds']:.3f}s "
            f"(identical metrics: {e2e['identical_metrics']})"
        )
    return "\n".join(lines)


def check(report: dict) -> None:
    """The acceptance thresholds (scale-aware; see module docstring)."""
    serial = report["serial_decisions_per_second"]
    for batch, rate in report["batched_decisions_per_second"].items():
        floor = serial if int(batch) > 1 else 0.8 * serial
        assert rate >= floor, (
            f"select (n={batch}) throughput {rate:.0f}/s fell below "
            f"{floor:.0f}/s (serial act_single: {serial:.0f}/s)"
        )
    for e2e in report["end_to_end"]:
        assert e2e["identical_metrics"], (
            f"evaluate_policy at {e2e['episodes']} episodes diverged from the "
            "act_single loop"
        )
    if SCALE.name != "smoke":
        speedup = report["speedup"]["32"]
        assert speedup >= 2.0, (
            f"batch=32 speedup {speedup:.2f}x is below the 2x floor"
        )


def test_inference_throughput(bench_report):
    report = run_bench()
    rendered = render(report)
    bench_report.append(rendered)
    print()
    print(rendered)
    path = persist(report)
    print(f"Inference bench JSON written to {path}")
    check(report)


if __name__ == "__main__":
    report = run_bench()
    print(render(report))
    path = persist(report)
    print(f"Inference bench JSON written to {path}")
    check(report)
