"""Low-overhead phase attribution for the training inner loop.

The training loop spends its time in four places: advancing the flow
simulator, building observations, running the policy networks forward for
action selection, and applying the optimizer update (which includes the
critic's batch forward and both backward passes; the actor's training
forward is the rollout's).  :class:`PhaseAccumulator` holds
one float per phase and the hot paths add raw ``perf_counter`` deltas to
it directly — no context managers, no dict lookups — so profiling costs
two branches and two clock reads per step and *nothing at all* when
disabled (a single ``is None`` check).

A trainer built with an enabled telemetry recorder attaches an
accumulator itself and ends ``train()`` with one ``train_phases`` record;
to read the floats without a stream, attach one explicitly::

    trainer = ACKTRTrainer(factory, config, seed=0)
    prof = trainer.attach_profiler(PhaseAccumulator())
    trainer.train(updates)
    print(prof.render())
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = [
    "PhaseAccumulator",
    "PHASE_NAMES",
    "OPTIMIZER_SUBPHASE_NAMES",
]

#: Canonical phase order for reports.
PHASE_NAMES: Tuple[str, ...] = (
    "sim_advance",
    "obs_build",
    "policy_forward",
    "optimizer_update",
)

#: Sub-phase attribution *within* ``optimizer_update`` (ACKTR/K-FAC
#: only; zero for plain A2C).  These are not part of the top-level total:
#: with concurrent actor/critic updates the two networks' sub-phase
#: clocks run in parallel threads, so their sum can legitimately exceed
#: the ``optimizer_update`` wall time (they measure busy time, the
#: parent phase measures wall time).
OPTIMIZER_SUBPHASE_NAMES: Tuple[str, ...] = (
    "fisher_stats",
    "grad_pass",
    "inversion",
    "precondition",
)


class PhaseAccumulator:
    """Per-phase wall-clock totals for one training run.

    Attributes (all seconds, accumulated):
        sim_advance: ``Simulator.apply_action`` + ``next_decision`` +
            outcome draining, plus episode (re)starts.
        obs_build: ``ObservationAdapter.build`` calls.
        policy_forward: the rollout's forwards — one ``n_envs``-row actor
            forward with its action sampling per step, which double as the
            actor's training forward, and the critic's bootstrap forward
            (no per-step critic forward: nobody reads those values).
        optimizer_update: everything after the rollout — the critic's one
            batch forward, returns and advantages, and ``_apply_update``
            (losses, backward passes, the optimizer step itself).

    ACKTR additionally splits ``optimizer_update`` into busy-time
    sub-phases (see :data:`OPTIMIZER_SUBPHASE_NAMES`):
        fisher_stats: sampled-Fisher backward + ``KFAC.update_stats``
            EMA folds (skipped entirely on ``stat_interval`` skip
            updates).
        grad_pass: loss backward passes (the fused dual backward counts
            here, including the Fisher half of its stacked delta chain).
        inversion: ``KFAC._refresh_inverses`` (factor inversions).
        precondition: the rest of ``KFAC.step`` — clip, preconditioned
            GEMMs, trust-region rescale, weight update.
    """

    __slots__ = (
        "sim_advance",
        "obs_build",
        "policy_forward",
        "optimizer_update",
        "fisher_stats",
        "grad_pass",
        "inversion",
        "precondition",
        "steps",
        "updates",
        "stat_skips",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.sim_advance = 0.0
        self.obs_build = 0.0
        self.policy_forward = 0.0
        self.optimizer_update = 0.0
        self.fisher_stats = 0.0
        self.grad_pass = 0.0
        self.inversion = 0.0
        self.precondition = 0.0
        #: Env steps and optimizer updates attributed so far.
        self.steps = 0
        self.updates = 0
        #: Updates that skipped the Fisher-statistics refresh
        #: (``stat_interval`` amortization).
        self.stat_skips = 0

    # ------------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Sum of all attributed phase time."""
        return (
            self.sim_advance
            + self.obs_build
            + self.policy_forward
            + self.optimizer_update
        )

    @property
    def phases(self) -> List[Tuple[str, float]]:
        """(name, seconds) pairs in canonical order."""
        return [(name, getattr(self, name)) for name in PHASE_NAMES]

    @property
    def optimizer_subphases(self) -> List[Tuple[str, float]]:
        """(name, busy-seconds) pairs of the optimizer-update split."""
        return [(name, getattr(self, name)) for name in OPTIMIZER_SUBPHASE_NAMES]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready breakdown, the ``phases`` shape bench reports use."""
        out: Dict[str, Any] = {
            "phases": [
                {"name": name, "seconds": seconds} for name, seconds in self.phases
            ],
            "total_seconds": self.total_seconds,
            "steps": self.steps,
            "updates": self.updates,
        }
        if any(seconds for _, seconds in self.optimizer_subphases):
            out["optimizer_subphases"] = [
                {"name": name, "seconds": seconds}
                for name, seconds in self.optimizer_subphases
            ]
            out["stat_skips"] = self.stat_skips
        return out

    def render(self) -> str:
        """One-line human-readable breakdown with percentages."""
        total = self.total_seconds
        if total <= 0.0:
            return "phases: (none)"
        parts = [
            f"{name}={seconds:.3f}s ({100.0 * seconds / total:.0f}%)"
            for name, seconds in self.phases
        ]
        line = "phases: " + " ".join(parts)
        if any(seconds for _, seconds in self.optimizer_subphases):
            split = " ".join(
                f"{name}={seconds:.3f}s"
                for name, seconds in self.optimizer_subphases
            )
            line += f" [optimizer busy: {split}]"
        return line
