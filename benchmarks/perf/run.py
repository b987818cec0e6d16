"""Whole-pipeline performance benchmark (see README.md in this directory).

    python3 benchmarks/perf/run.py                       # all workloads, both kinds of run
    python3 benchmarks/perf/run.py --workload NAME --seed S --seconds N --trace 0|1

With ``--workload`` the process measures that workload itself and prints
one JSON object as its last line: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  Without it, every workload runs in a fresh child
interpreter, once per kind.  The exit code is non-zero when any output
check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> List[str]:
    """One BLAS thread and no ``REPRO_*`` knob: must run before numpy is
    imported.  Returns the names of the variables it removed."""
    scrubbed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    return scrubbed


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="keep timing repeats until this many seconds have passed",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0: end-to-end metrics from untraced repeats; 1: per-layer "
        "metrics from a traced replay of repeat 0",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="a twentieth of the work and no minimum duration (self-tests)",
    )
    # Self-test hook: flip one served action before it is checked.
    parser.add_argument("--corrupt-one-action", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    scrubbed = pin_environment()
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"error: {REPO_ROOT / 'src' / 'repro'} not found; the benchmark "
              "measures the repository it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import perf_harness
    from perf_workloads import build_workload

    workload = build_workload(args.workload, args.smoke, args.corrupt_one_action)
    host = perf_harness.host_report(scrubbed)
    seconds = 0.0 if args.smoke else args.seconds
    if args.trace:
        outcome = perf_harness.measure_per_layer(workload, args.seed, host)
    else:
        outcome = perf_harness.measure_end_to_end(workload, args.seed, seconds)

    print(f"{workload.name} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    perf_harness.print_metrics(outcome["metrics"])
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host,
        "config": workload.resolved_config(),
        "failures": outcome["failures"],
        "detail": outcome["detail"],
    }
    print("report " + json.dumps(report, sort_keys=True))
    correct = outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, untraced then traced."""
    sys.path.insert(0, str(HERE))
    from perf_spec import WORKLOADS

    status = 0
    results: Dict[str, Dict[str, Any]] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, capture_output=True, text=True, check=False)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                status = 1
                print(f"FAILED: {name} --trace {trace} exited {child.returncode}")
                continue
            results.setdefault(name, {}).update(
                json.loads(child.stdout.splitlines()[-1])["metrics"]
            )
    print(json.dumps({"claim": None, "seed": args.seed, "results": results}))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
