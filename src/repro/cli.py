"""Command-line interface.

Gives downstream users the full pipeline without writing Python::

    python -m repro topology                       # Table I statistics
    python -m repro train --pattern poisson --ingress 2 -o policy.npz
    python -m repro evaluate --policy policy.npz --pattern mmpp
    python -m repro evaluate --algorithm sp --pattern poisson
    python -m repro compare --pattern poisson --ingress 3
    python -m repro train ... --telemetry runs/exp1   # structured JSONL
    python -m repro telemetry summarize runs/exp1     # render run report
    python -m repro lint                              # determinism linter

All scenario knobs mirror :func:`repro.eval.scenarios.base_scenario`
(topology, traffic pattern, number of ingresses, deadline, horizon,
capacity seed); training knobs mirror
:class:`repro.core.trainer.TrainingConfig`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional


__all__ = ["main", "build_parser"]


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for per-seed fan-out "
                             "(default: $REPRO_WORKERS, else serial)")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_eval_dtype_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eval-dtype", choices=["f64", "f32"], default=None,
                        help="inference dtype: f64 = bit-identical to the "
                             "serial reference (default), f32 = fast mode "
                             "(default: $REPRO_EVAL_DTYPE, else f64)")


def _resolved_eval_dtype(args: argparse.Namespace) -> str:
    """The effective ``"f64"``/``"f32"`` spelling (flag, else env var)."""
    import numpy as np

    from repro.nn.mlp import resolve_eval_dtype

    dtype = resolve_eval_dtype(getattr(args, "eval_dtype", None))
    return "f32" if dtype == np.dtype(np.float32) else "f64"


def _add_stat_interval_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stat-interval", type=int, default=1,
                        help="refresh ACKTR's Kronecker-factor statistics "
                             "every N updates (1 = every update, the exact "
                             "historical behaviour; larger amortizes the "
                             "Fisher pass and changes the rng stream)")


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="write a run manifest + structured JSONL metric "
                             "stream into DIR (see 'repro telemetry summarize')")


@contextmanager
def _telemetry(args: argparse.Namespace, name: str, seeds=()) -> Iterator:
    """The command's recorder: ``NULL_RECORDER`` without ``--telemetry``,
    else the stream of a fresh run directory — closed on exit, and
    announced once the command body has finished."""
    from repro.telemetry import NULL_RECORDER, start_run

    if getattr(args, "telemetry", None) is None:
        yield NULL_RECORDER
        return
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("telemetry", "command") and value is not None
    }
    run = start_run(args.telemetry, name=name, config=config, seeds=seeds)
    try:
        yield run.recorder
    finally:
        run.close()
    print(f"Telemetry written to {run.directory}")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="Abilene",
                        help="Abilene, 'BT Europe', 'China Telecom', Interroute")
    parser.add_argument("--pattern", default="poisson",
                        choices=["fixed", "poisson", "mmpp", "trace"],
                        help="flow arrival pattern (Fig. 6)")
    parser.add_argument("--ingress", type=int, default=2,
                        help="number of ingress nodes v1..vk (1-5 in the paper)")
    parser.add_argument("--deadline", type=float, default=100.0,
                        help="flow deadline tau_f")
    parser.add_argument("--horizon", type=float, default=1000.0,
                        help="simulated time span T")
    parser.add_argument("--capacity-seed", type=int, default=0,
                        help="seed of the random capacity assignment")
    parser.add_argument("--faults", default="off",
                        choices=["off", "links", "nodes", "churn"],
                        help="inject a named fault scenario (link failures, "
                             "node outages, capacity churn) into every run")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault schedule (targets and windows)")


def _scenario_from_args(args: argparse.Namespace):
    from repro.eval.scenarios import base_scenario, fault_preset

    faults = (
        None if args.faults == "off"
        else fault_preset(args.faults, seed=args.fault_seed)
    )
    return base_scenario(
        pattern=args.pattern,
        num_ingress=args.ingress,
        deadline=args.deadline,
        horizon=args.horizon,
        topology=args.topology,
        capacity_seed=args.capacity_seed,
        faults=faults,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed DRL service coordination (ICDCS 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topology", help="print Table I topology statistics")
    topo.add_argument("--name", default=None,
                      help="show one topology's details instead of the table")

    train = sub.add_parser("train", help="train the distributed DRL coordinator")
    _add_scenario_args(train)
    train.add_argument("-o", "--output", required=True,
                       help="path for the trained policy (.npz)")
    train.add_argument("--seeds", type=int, default=2,
                       help="training seeds k (paper: 10)")
    train.add_argument("--updates", type=int, default=400,
                       help="gradient updates per seed")
    train.add_argument("--algorithm", default="acktr", choices=["acktr", "a2c"])
    train.add_argument("--eval-episodes", type=_positive_int, default=1,
                       help="greedy evaluation episodes per seed for "
                            "best-agent selection (>= 1; the evaluation "
                            "derives its lockstep width from this count)")
    train.add_argument("--quiet", action="store_true")
    _add_workers_arg(train)
    _add_eval_dtype_arg(train)
    _add_stat_interval_arg(train)
    _add_telemetry_arg(train)

    evaluate = sub.add_parser("evaluate", help="evaluate a policy on a scenario")
    _add_scenario_args(evaluate)
    group = evaluate.add_mutually_exclusive_group(required=True)
    group.add_argument("--policy", help="trained policy file (.npz)")
    group.add_argument("--algorithm", choices=["sp", "gcasp", "random"],
                       help="hand-written baseline instead of a trained policy")
    evaluate.add_argument("--eval-seeds", type=int, default=3,
                          help="number of traffic realisations")
    _add_workers_arg(evaluate)
    _add_eval_dtype_arg(evaluate)
    _add_telemetry_arg(evaluate)

    compare = sub.add_parser("compare", help="train + compare all four algorithms")
    _add_scenario_args(compare)
    compare.add_argument("--updates", type=int, default=400)
    compare.add_argument("--seeds", type=int, default=2)
    compare.add_argument("--eval-seeds", type=int, default=3)
    _add_workers_arg(compare)
    _add_eval_dtype_arg(compare)
    _add_stat_interval_arg(compare)
    _add_telemetry_arg(compare)

    serve = sub.add_parser(
        "serve-bench",
        help="drive the online decision-serving engine (micro-batching, "
             "hot-swap, latency SLO) through a load-generated workload",
    )
    _add_scenario_args(serve)
    serve.add_argument("--policy", default=None,
                       help="trained policy (.npz); default: an untrained "
                            "seed-0 network of the scenario's dimensions")
    serve.add_argument("--requests", type=int, default=2000,
                       help="requests to generate")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="open-loop Poisson arrival rate in requests/sec; "
                            "0 = closed-loop saturation (peak throughput)")
    serve.add_argument("--serve-batch", type=int, default=32,
                       help="micro-batch flush size B")
    serve.add_argument("--serve-deadline-ms", type=float, default=2.0,
                       help="micro-batch latency deadline D in milliseconds")
    serve.add_argument("--queue-capacity", type=int, default=None,
                       help="queue-depth cap before load shedding "
                            "(default: 4x --serve-batch)")
    serve.add_argument("--swap-every", type=int, default=0,
                       help="hot-swap a cloned policy every N submissions "
                            "(0 = never); exercises flush-boundary swaps")
    serve.add_argument("--arrival-seed", type=int, default=0,
                       help="seed of the Poisson arrival process")
    serve.add_argument("--pool", type=int, default=256,
                       help="observation vectors harvested from the scenario "
                            "as request payloads")
    _add_eval_dtype_arg(serve)
    _add_telemetry_arg(serve)

    lint = sub.add_parser(
        "lint",
        help="run the determinism linter (rules REP001-REP008) over the project",
    )
    lint.add_argument("paths", nargs="*", default=["src/repro", "benchmarks"],
                      help="files or directories to lint "
                           "(default: src/repro benchmarks)")
    lint.add_argument("--format", choices=["text", "json", "sarif"], default="text",
                      help="report format")
    lint.add_argument("--output", default=None, metavar="FILE",
                      help="write the report to FILE instead of stdout "
                           "(a one-line summary is still printed)")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--explain", default=None, metavar="RULE",
                      help="print the rationale and a bad/good example for a "
                           "rule id (e.g. REP004), then exit")

    telemetry = sub.add_parser(
        "telemetry", help="inspect structured telemetry from a previous run"
    )
    telemetry_sub = telemetry.add_subparsers(dest="telemetry_command", required=True)
    summarize = telemetry_sub.add_parser(
        "summarize", help="render a human-readable report of a telemetry run"
    )
    summarize.add_argument("directory",
                           help="run directory (holds manifest.json + metrics.jsonl)")
    return parser


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.eval.tables import render_table1
    from repro.topology.zoo import table1_stats, topology_by_name

    if args.name is None:
        print(render_table1(table1_stats()))
        return 0
    net = topology_by_name(args.name)
    print(f"{net.name}: {net.num_nodes} nodes, {net.num_links} links, "
          f"degree {net.min_degree}/{net.degree}/{net.avg_degree:.2f}, "
          f"diameter {net.diameter:.2f}")
    for node in net.node_names:
        print(f"  {node}: cap={net.node(node).capacity:.2f} "
              f"neighbors={','.join(net.neighbors(node))}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.trainer import TrainingConfig, train_coordinator
    from repro.rl.acktr import ACKTRConfig

    scenario = _scenario_from_args(args)
    config = TrainingConfig(
        algorithm=args.algorithm,
        seeds=tuple(range(args.seeds)),
        updates_per_seed=args.updates,
        rl=ACKTRConfig(n_steps=64, stat_interval=args.stat_interval),
        eval_episodes=args.eval_episodes,
        workers=args.workers,
        eval_dtype=_resolved_eval_dtype(args),
    )
    if not args.quiet:
        print(f"Training on {args.topology} / {args.pattern} / "
              f"{args.ingress} ingress ({args.seeds} seeds x {args.updates} updates)")
    with _telemetry(args, "train", seeds=config.seeds) as recorder:
        result = train_coordinator(
            scenario, config, verbose=not args.quiet, recorder=recorder
        )
        result.multi_seed.best_policy.save(args.output)
        if not args.quiet and result.multi_seed.timing is not None:
            print(result.multi_seed.timing.render())
        print(f"Saved best policy (seed {result.best_seed}) to {args.output}")
    return 0


def _build_policy(args: argparse.Namespace, scenario):
    from functools import partial

    from repro.baselines import GCASPPolicy, RandomPolicy, ShortestPathPolicy
    from repro.core.agent import DistributedCoordinator
    from repro.rl.policy import ActorCriticPolicy

    # partial() rather than lambdas: the factory must pickle so the
    # per-seed evaluation can fan out across worker processes.
    if args.policy is not None:
        trained = ActorCriticPolicy.load(args.policy)
        return partial(
            DistributedCoordinator,
            scenario.network,
            scenario.catalog,
            trained,
            dtype=_resolved_eval_dtype(args),
        )
    if args.algorithm == "sp":
        return partial(ShortestPathPolicy, scenario.network, scenario.catalog)
    if args.algorithm == "gcasp":
        return partial(GCASPPolicy, scenario.network, scenario.catalog)
    return partial(RandomPolicy, scenario.network, seed=0)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.eval.runner import evaluate_policy_on_scenario

    scenario = _scenario_from_args(args)
    factory = _build_policy(args, scenario)
    name = args.policy or args.algorithm
    eval_seeds = range(args.eval_seeds)
    with _telemetry(args, "evaluate", seeds=eval_seeds) as recorder:
        result = evaluate_policy_on_scenario(
            scenario, factory, name,
            eval_seeds=eval_seeds, time_decisions=True,
            workers=args.workers, recorder=recorder,
        )
        print(result.summary())
        print(f"mean decision time: {result.mean_decision_ms:.3f} ms")
        if result.timing is not None:
            print(result.timing.render())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    import math

    from repro.core.trainer import TrainingConfig
    from repro.eval.runner import ALL_ALGORITHMS, SuiteConfig, build_algorithm_suite
    from repro.rl.acktr import ACKTRConfig

    scenario = _scenario_from_args(args)
    suite = build_algorithm_suite(
        scenario,
        SuiteConfig(
            training=TrainingConfig(
                seeds=tuple(range(args.seeds)),
                updates_per_seed=args.updates,
                rl=ACKTRConfig(n_steps=64, stat_interval=args.stat_interval),
                workers=args.workers,
                eval_dtype=_resolved_eval_dtype(args),
            )
        ),
    )
    eval_seeds = range(1000, 1000 + args.eval_seeds)

    def fmt(value: float, spec: str) -> str:
        return "n/a" if math.isnan(value) else format(value, spec)

    with _telemetry(args, "compare", seeds=eval_seeds) as recorder:
        results = suite.compare(
            eval_seeds=eval_seeds, workers=args.workers, recorder=recorder
        )
        print(f"{'algorithm':<18} {'success':>14} {'avg delay':>10}")
        for name in ALL_ALGORITHMS:
            r = results[name]
            success = f"{fmt(r.mean_success, '.3f')}±{fmt(r.std_success, '.3f')}"
            print(f"{name:<18} {success:>14} {fmt(r.mean_delay, '.1f'):>10}")
        if suite.last_timing is not None:
            print(suite.last_timing.render())
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.core.env import ServiceCoordinationEnv
    from repro.rl.policy import ActorCriticPolicy
    from repro.serving import (
        ServingConfig,
        collect_observation_pool,
        serve_workload,
    )

    scenario = _scenario_from_args(args)
    if args.policy is not None:
        policy = ActorCriticPolicy.load(args.policy)
    else:
        probe = ServiceCoordinationEnv(scenario, seed=0)
        policy = ActorCriticPolicy(probe.observation_size, probe.num_actions, rng=0)
    observations = collect_observation_pool(scenario, policy, args.pool)
    config = ServingConfig(
        max_batch=args.serve_batch,
        deadline_s=args.serve_deadline_ms / 1000.0,
        queue_capacity=args.queue_capacity,
        dtype=_resolved_eval_dtype(args),
    )
    with _telemetry(args, "serve-bench") as recorder:
        engine = serve_workload(
            policy,
            observations,
            requests=args.requests,
            rate=args.rate if args.rate > 0.0 else None,
            config=config,
            arrival_seed=args.arrival_seed,
            swap_every=args.swap_every,
            recorder=recorder,
        )
        stats = engine.stats
        mode = (
            f"open loop @ {args.rate:.0f} req/s" if args.rate > 0.0 else "saturation"
        )
        print(f"serve-bench: {mode} | batch {config.max_batch} "
              f"deadline {args.serve_deadline_ms:.1f}ms dtype {config.dtype}")
        print(f"  requests {stats.submitted} served {stats.served} "
              f"shed {stats.shed} | {stats.flushes} flushes "
              f"(size {stats.size_flushes} deadline {stats.deadline_flushes} "
              f"forced {stats.forced_flushes}) mean batch {stats.mean_batch:.1f}")
        print(f"  throughput {stats.decisions_per_second:.0f} decisions/s | "
              f"swaps {stats.swaps} (policy version {engine.policy_version})")
        pct = stats.latency_percentiles_ms()
        if stats.latencies:
            print(f"  latency p50 {pct['p50']:.2f}ms p95 {pct['p95']:.2f}ms "
                  f"p99 {pct['p99']:.2f}ms max {pct['max']:.2f}ms")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.linter import run_lint

    if args.explain is not None:
        from repro.analysis.explain import render_explanation

        try:
            print(render_explanation(args.explain))
        except KeyError as exc:
            print(exc.args[0])
            return 2
        return 0

    select = tuple(
        code.strip() for code in (args.select or "").split(",") if code.strip()
    )
    code, report = run_lint(args.paths, output_format=args.format, select=select)
    if args.output is not None:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        status = "clean" if code == 0 else "findings present"
        print(f"lint report ({args.format}) written to {args.output}: {status}")
    else:
        print(report)
    return code


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry import summarize_run

    print(summarize_run(args.directory))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "topology": _cmd_topology,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "compare": _cmd_compare,
        "serve-bench": _cmd_serve_bench,
        "lint": _cmd_lint,
        "telemetry": _cmd_telemetry,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
