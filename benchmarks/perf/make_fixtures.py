"""Regenerate the committed benchmark checkpoints.

    python3 benchmarks/perf/make_fixtures.py

Trains one ACKTR policy per fixture scenario (seed 0, 750 updates of
4 x 32 steps) and prints what ``perf_spec`` pins: the file's sha256
(``FIXTURES``) and how many decisions the greedy policy spends per flow
it finishes (``ABILENE_DECISIONS_PER_FLOW``).  The workloads never
retrain: they load these files and refuse one whose digest differs, so a
later change to the training arithmetic cannot silently change what the
benchmark measures.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

TRAIN_SEED = 0
TRAIN_UPDATES = 750
TRAIN_HORIZON = 400.0
STATS_EPISODES = 40

#: fixture file -> the scenario it was trained on.
SCENARIOS = {
    "abilene_acktr.npz": dict(topology="Abilene", pattern="poisson", num_ingress=2),
    "interroute_acktr.npz": dict(topology="Interroute", pattern="mmpp", num_ingress=3),
}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def greedy_stats(policy, env_config, episodes: int = STATS_EPISODES):
    """(decisions per finished flow, success ratio) of greedy episodes."""
    from repro.core.env import ServiceCoordinationEnv

    env = ServiceCoordinationEnv(env_config, seed=10_000)
    decisions = succeeded = dropped = 0
    for _ in range(episodes):
        obs, done = env.reset(), env.current_decision is None
        while not done:
            obs, _, done, _ = env.step(policy.act_single(obs))
            decisions += 1
        succeeded += env.simulator.metrics.flows_succeeded
        dropped += env.simulator.metrics.flows_dropped
    finished = max(succeeded + dropped, 1)
    return decisions / finished, succeeded / finished


def main() -> int:
    from repro.core.trainer import CoordinationEnvBuilder
    from repro.eval.scenarios import base_scenario
    from repro.parallel import CountingEnvFactory
    from repro.rl.acktr import ACKTRConfig, ACKTRTrainer

    for name, scenario in SCENARIOS.items():
        env_config = base_scenario(horizon=TRAIN_HORIZON, **scenario)
        factory = CountingEnvFactory(CoordinationEnvBuilder(env_config))
        trainer = ACKTRTrainer(factory, ACKTRConfig(), seed=TRAIN_SEED)
        trainer.train(TRAIN_UPDATES)
        path = HERE / "fixtures" / name
        trainer.policy.save(path)
        per_flow, success = greedy_stats(trainer.policy, env_config)
        print(
            f"{name}: sha256={sha256_of(path)} "
            f"decisions_per_flow={per_flow:.4f} success_ratio={success:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
