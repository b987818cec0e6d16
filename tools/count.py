"""Exact cost counts of the deployed decision and of an ACKTR update.

Run from the repository root::

    python tools/count.py coordinate_abilene coordinate_interroute_churn
    python tools/count.py train_acktr_abilene

Wall time on a shared host wanders by tens of per cent between runs; a
count of the work done does not.  For each workload this prints, per
decision (per update for training), the Python calls and the C calls
that ``sys.setprofile`` sees, and the ``tracemalloc`` peak in bytes of
a second, separate run of the same work (tracing memory slows every
allocation, so the two are never measured together).

The runs are short and fixed, on the committed checkpoints under
``benchmarks/perf/fixtures`` and the scenarios of the
``benchmarks/perf`` workloads of the same names:

- ``coordinate_abilene`` / ``coordinate_interroute_churn``: one
  evaluation seed (0) of a ``DistributedCoordinator`` at the
  :data:`HORIZONS` stated below; the counted region is
  ``Simulator.run``, so simulator, observation, forward and select are
  all in it.
- ``train_acktr_abilene``: :data:`TRAIN_UPDATES` ACKTR updates of 4 envs
  x 32 steps from the Abilene checkpoint, after one uncounted update
  (so the counted ones cross one K-FAC inverse refresh).  The actor's K-FAC update runs
  on the trainer's executor thread when two cores are usable, so the
  profiler is also installed with ``threading.setprofile`` before that
  thread starts, and the thread's calls are counted too.  Its hand-off
  through the executor's queue may cost one wait more or less per
  update, so training counts are reported, not pinned.

Limits: ``sys.setprofile`` sees calls of Python functions and of C
functions, not ufunc loops or operators (``np.tanh``, ``@``), so moving
Python work into one larger numpy call lowers a count without lowering
the time; a count claim still needs paired wall-clock runs that show no
regression.  Counts depend on the interpreter and the numpy version:
``tests/test_call_counts.py`` pins the coordinate counts on CPython 3.11
with numpy 2.4 only.  The call counts repeat exactly whatever else the
process ran; the ``tracemalloc`` peak moves by a few KB with what ran
before it (203,068 B for the first ``coordinate_abilene`` of a process,
about 205,800 B for a later one), so compare peaks of one command line.

The command removes ``REPRO_*`` variables first, as the benchmark
harness does: the invariant sweep would count its own checks.  A caller
of :func:`count_calls` unsets ``REPRO_CHECK_INVARIANTS`` itself.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from types import FrameType
from typing import Any, Callable, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "benchmarks" / "perf" / "fixtures"

__all__ = [
    "HORIZONS",
    "TRAIN_UPDATES",
    "WORKLOADS",
    "Counts",
    "count_calls",
    "peak_bytes",
    "main",
]

#: Simulated horizon of each counted coordinate run (eval seed 0).
HORIZONS = {"coordinate_abilene": 500.0, "coordinate_interroute_churn": 300.0}
#: ACKTR updates counted for ``train_acktr_abilene``.
TRAIN_UPDATES = 10
WORKLOADS = (*HORIZONS, "train_acktr_abilene")


@dataclass(frozen=True)
class Counts:
    """Calls over one counted run.

    Attributes:
        units: Decisions (coordinate) or updates (training) in the run.
        python_calls: Python function calls (``call`` events).
        c_calls: C function calls (``c_call`` events).
    """

    units: int
    python_calls: int
    c_calls: int

    def per_unit(self) -> str:
        return (
            f"{self.python_calls / self.units:.2f} Python calls, "
            f"{self.c_calls / self.units:.2f} C calls"
        )


class _CallCounter:
    """A profile function that tallies call events per thread.

    Each thread increments its own pair, so a second thread's events
    never race the first's; :meth:`total` adds them up.
    """

    def __init__(self) -> None:
        self._tallies: List[List[int]] = []
        self._local = threading.local()

    def __call__(self, frame: FrameType, event: str, arg: Any) -> None:
        try:
            tally = self._local.tally
        except AttributeError:
            tally = self._local.tally = [0, 0]
            self._tallies.append(tally)
        if event == "call":
            tally[0] += 1
        elif event == "c_call":
            tally[1] += 1

    def total(self) -> List[int]:
        return [sum(tally[i] for tally in self._tallies) for i in (0, 1)]


def _import_repro() -> None:
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _coordinate(name: str) -> Callable[[], Any]:
    """Build the coordinator and simulator of ``name``'s counted run;
    returns the call that runs it and gives its ``SimulationMetrics``."""
    _import_repro()
    import numpy as np

    from repro.core.agent import DistributedCoordinator
    from repro.eval.scenarios import base_scenario
    from repro.rl.policy import ActorCriticPolicy
    from repro.sim.simulator import Simulator

    if name == "coordinate_abilene":
        scenario = base_scenario(
            topology="Abilene", pattern="poisson", num_ingress=2, horizon=HORIZONS[name]
        )
        fixture = "abilene_acktr.npz"
    else:
        scenario = base_scenario(
            topology="Interroute", pattern="mmpp", num_ingress=3, faults="churn",
            horizon=HORIZONS[name],
        )
        fixture = "interroute_acktr.npz"
    coordinator = DistributedCoordinator(
        scenario.network, scenario.catalog, ActorCriticPolicy.load(FIXTURES / fixture)
    )
    sim = Simulator(
        scenario.network,
        scenario.catalog,
        scenario.traffic_factory(np.random.default_rng(0)),
        scenario.sim_config,
    )
    return lambda: sim.run(coordinator)


def _trainer() -> Any:
    """The ACKTR trainer of the counted run, one update in: the first
    update allocates the gradients and starts the executor thread, which
    every later one reuses."""
    _import_repro()
    from repro.core.trainer import CoordinationEnvBuilder
    from repro.eval.scenarios import base_scenario
    from repro.parallel import CountingEnvFactory
    from repro.rl.acktr import ACKTRConfig, ACKTRTrainer
    from repro.rl.policy import ActorCriticPolicy

    config = ACKTRConfig(n_envs=4, n_steps=32)
    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=400.0)
    trainer = ACKTRTrainer(
        CountingEnvFactory(CoordinationEnvBuilder(scenario), offset=0),
        config,
        seed=0,
        policy=ActorCriticPolicy.load(FIXTURES / "abilene_acktr.npz"),
    )
    trainer.update()
    return trainer


def _updates(trainer: Any) -> Callable[[], None]:
    """The counted run of ``train_acktr_abilene``: :data:`TRAIN_UPDATES`
    updates of ``trainer``."""

    def run() -> None:
        for _ in range(TRAIN_UPDATES):
            trainer.update()

    return run


def _check_name(name: str) -> None:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def count_calls(name: str) -> Counts:
    """Python and C calls over ``name``'s counted run.

    The cyclic garbage collector is emptied before the run and paused
    during it: a finaliser of garbage left by whatever ran before would
    otherwise be counted whenever a collection happened to fall inside
    the run."""
    _check_name(name)
    gc.collect()
    gc.disable()
    try:
        return _count_calls(name)
    finally:
        gc.enable()


def _count_calls(name: str) -> Counts:
    counter = _CallCounter()
    if name == "train_acktr_abilene":
        if any(t.name.startswith("kfac") for t in threading.enumerate()):
            raise RuntimeError("the K-FAC executor thread already runs unprofiled")
        threading.setprofile(counter)
        try:
            updates = _updates(_trainer())
            before = counter.total()  # the executor thread's first update
            sys.setprofile(counter)
            updates()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)  # type: ignore[arg-type]
        python_calls, c_calls = (a - b for a, b in zip(counter.total(), before))
        return Counts(TRAIN_UPDATES, python_calls, c_calls)
    run = _coordinate(name)
    sys.setprofile(counter)
    try:
        metrics = run()
    finally:
        sys.setprofile(None)
    python_calls, c_calls = counter.total()
    return Counts(metrics.decisions, python_calls, c_calls)


def peak_bytes(name: str) -> int:
    """``tracemalloc`` peak over ``name``'s counted run, in bytes above
    what was traced when it started."""
    _check_name(name)
    run = _updates(_trainer()) if name == "train_acktr_abilene" else _coordinate(name)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Exact cost counts of the deployed decision and of an ACKTR update."
    )
    parser.add_argument("workloads", nargs="+", choices=WORKLOADS, metavar="WORKLOAD",
                        help=f"one or more of {', '.join(WORKLOADS)}")
    args = parser.parse_args(argv)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    for name in args.workloads:
        counts = count_calls(name)
        unit = "updates" if name == "train_acktr_abilene" else "decisions"
        print(
            f"{name}: {counts.units} {unit}, {counts.python_calls} Python calls, "
            f"{counts.c_calls} C calls; per {unit[:-1]}: {counts.per_unit()}; "
            f"tracemalloc peak {peak_bytes(name)} B"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
