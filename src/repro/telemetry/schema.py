"""Schema of the telemetry JSONL stream.

Every line of a ``metrics.jsonl`` stream is one JSON object with a
``kind`` field selecting one of the record schemas below.  The schema is
deliberately closed: :func:`validate_record` rejects unknown kinds and
missing/ill-typed required fields, so ``repro telemetry summarize`` can
guarantee that a stream it renders is well-formed.

Record kinds
------------

``train_update``
    One gradient update of a trainer: ``update`` (1-based index),
    ``policy_loss``, ``value_loss``, ``entropy``, ``mean_return``;
    optionally ``kl`` (ACKTR predicted trust-region KL), ``grad_norm``
    (actor gradient norm before clipping — for ACKTR the pre-clip norm
    recorded by the actor's K-FAC step),
    ``trust_scale_actor``/``trust_scale_critic`` (K-FAC step rescale),
    ``episodes`` (finished so far), ``seed``, ``algorithm``, and
    ``wall_seconds``.

``seed_result``
    One finished per-seed training run: ``seed``,
    ``mean_episode_reward``, ``episodes``; optionally ``algorithm``.

``train_summary``
    Best-agent selection over all seeds: ``algorithm``, ``seeds``
    (count), ``best_seed``; optionally ``best_reward``.

``sim_run``
    One finished simulation: flow counters (``flows_generated``,
    ``flows_succeeded``, ``flows_dropped``, ``flows_active``),
    ``success_ratio``, ``drop_reasons`` (reason -> count),
    ``decisions``, ``horizon``; optionally ``delay`` (histogram summary
    dict), ``fault_phases`` (per-phase success split of a fault-injected
    run: pre_failure / during_failure / post_recovery, each with
    succeeded/dropped/ratio), ``seed``, ``label``, ``wall_seconds``.

``fault_event``
    One applied fault transition of a fault-injected simulation:
    ``time``, ``fault`` (link_failure / node_outage /
    capacity_degradation), ``phase`` (onset / recovery), ``target``
    (node name or ``u-v`` link label), ``flows_dropped``,
    ``instances_evicted``.

``eval_aggregate``
    Cross-seed aggregation of one algorithm's evaluation: ``name``,
    ``seeds`` (count), ``mean_success``, ``mean_delay``,
    ``delay_seeds_excluded`` (seeds whose delay was NaN and therefore
    carried zero weight).

``task_timing`` / ``batch_timing``
    Wall-clock accounting of one parallel task / one fan-out batch
    (mirrors :class:`repro.parallel.timing.TimingReport`).

``eval_batch``
    One lockstep evaluation run (:class:`repro.rl.batched.BatchedEpisodeRunner`);
    every selection evaluation on a replay-capable env emits one.
    ``batch`` (lockstep width — not a setting:
    :func:`repro.rl.training.evaluate_policy` derives it from the episode
    count, 1 included), ``episodes``, ``rounds`` (lockstep rounds =
    policy forwards), ``decisions`` (total actions selected); optionally
    ``mean_round_batch``/``max_round_batch``, ``round_batches``
    (per-round live-slot counts, truncated), ``tie_fallbacks`` (rows
    recomputed through the batch-1 forward near argmax ties), ``dtype``,
    ``forward_seconds`` (wall-clock inside policy forwards),
    ``wall_seconds``, and ``decisions_per_second``.

``train_phases``
    Phase attribution of one training run (emitted at the end of
    :meth:`repro.rl.a2c.A2CTrainer.train` by every trainer whose recorder
    is enabled): ``updates``
    plus wall-clock seconds per phase (``sim_advance``, ``obs_build``,
    ``policy_forward``, ``optimizer_update``); optionally ``seed`` and
    ``wall_seconds``.  ACKTR runs additionally carry the
    optimizer-update sub-phase split (``fisher_stats``, ``grad_pass``,
    ``inversion``, ``precondition`` — *busy* seconds per update thread,
    so their sum may exceed ``optimizer_update`` wall time when the
    actor/critic updates run concurrently) and ``stat_skips`` (updates
    that skipped the Fisher-statistics refresh under ``stat_interval``
    amortization), plus the optimizer schedule the trainer picked for
    this host: ``kfac_threads`` (2 = actor/critic updates overlapped,
    1 = serial) and ``fused_backward_active`` (bool; fused dual
    backward vs two-pass).  Timing- and host-valued, so determinism
    checks drop it entirely.

``serving``
    One serving-engine run (:class:`repro.serving.ServingEngine`):
    ``requests`` (submitted), ``served``, ``shed`` (rejected at the
    queue-depth cap), ``flushes``; optionally the engine configuration
    (``batch``, ``deadline_ms``, ``queue_capacity``, ``dtype``,
    ``rate``), flush-trigger split (``size_flushes``
    / ``deadline_flushes`` / ``forced_flushes``), ``batch_histogram``
    (batch size -> flush count) with ``mean_batch``/``max_batch``,
    ``max_queue_depth``, latency percentiles
    (``latency_p50_ms``/``latency_p95_ms``/``latency_p99_ms``/
    ``latency_max_ms``), ``max_flush_ms``, hot-swap accounting
    (``swaps``, ``policy_version``), ``tie_fallbacks``,
    ``forward_seconds``, ``wall_seconds``, and
    ``decisions_per_second``.  Latency-valued throughout, so
    determinism checks drop the kind entirely.

``note``
    Freeform annotation: ``message``.

Run manifest
------------

``manifest.json`` next to the stream (:mod:`repro.telemetry.manifest`):
``name``, ``config``, ``seeds``, ``package_version``,
``schema_version``, ``created``/``created_unix``, and the host facts
bit-level comparisons depend on — ``usable_cpus`` (cores the process
could run on) and ``blas_threads`` (``OPENBLAS_NUM_THREADS`` /
``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS`` as set, ``null`` when unset).
Training takes its gradients through the rollout's activations, which
equals a batch re-forward bit for bit only where the BLAS computes an
``n_envs``-row GEMM as a row block of the batch GEMM; the BLAS pool size
decides that, so a manifest states it.  ``switches`` holds the raw value
(``null`` when unset) of each ``REPRO_*`` variable ``src/`` reads —
``REPRO_WORKERS``, ``REPRO_EVAL_DTYPE``, ``REPRO_CHECK_INVARIANTS`` —
because those reach a run without passing through ``config``.

Determinism
-----------

Wall-clock values vary between runs and worker counts, so equality
checks must ignore them.  :func:`strip_timing` removes the
:data:`TIMING_FIELDS` from one record; :func:`canonical_stream`
additionally drops the purely timing-valued record kinds
(:data:`TIMING_KINDS`).  Two runs of the same workload — serial or
fanned out across any number of workers — produce identical canonical
streams.
"""

from __future__ import annotations

import numbers
from typing import Any, Dict, Iterable, List, Mapping

__all__ = [
    "SCHEMA_VERSION",
    "TIMING_FIELDS",
    "TIMING_KINDS",
    "RECORD_SCHEMAS",
    "SchemaError",
    "validate_record",
    "strip_timing",
    "canonical_stream",
]

#: Version stamped into every run manifest; bump on breaking changes.
SCHEMA_VERSION = 1

#: Fields holding wall-clock measurements; ignored by determinism checks.
TIMING_FIELDS = frozenset(
    {
        "wall_seconds",
        "seconds",
        "total_seconds",
        "serial_seconds",
        "speedup",
        "utilization",
        "forward_seconds",
        "decisions_per_second",
    }
)

#: Record kinds that carry only timing information (dropped entirely by
#: :func:`canonical_stream`; their non-timing fields — mode, workers —
#: legitimately differ between serial and parallel runs).
TIMING_KINDS = frozenset(
    {"task_timing", "batch_timing", "train_phases", "serving"}
)

_NUM = numbers.Real
_INT = numbers.Integral

#: kind -> {field: expected type or tuple of types} for *required* fields.
RECORD_SCHEMAS: Dict[str, Dict[str, Any]] = {
    "train_update": {
        "update": _INT,
        "policy_loss": _NUM,
        "value_loss": _NUM,
        "entropy": _NUM,
        "mean_return": _NUM,
    },
    "seed_result": {
        "seed": _INT,
        "mean_episode_reward": _NUM,
        "episodes": _INT,
    },
    "train_summary": {
        "algorithm": str,
        "seeds": _INT,
        "best_seed": _INT,
    },
    "sim_run": {
        "flows_generated": _INT,
        "flows_succeeded": _INT,
        "flows_dropped": _INT,
        "flows_active": _INT,
        "success_ratio": _NUM,
        "drop_reasons": Mapping,
        "decisions": _INT,
        "horizon": _NUM,
    },
    "fault_event": {
        "time": _NUM,
        "fault": str,
        "phase": str,
        "target": str,
        "flows_dropped": _INT,
        "instances_evicted": _INT,
    },
    "eval_aggregate": {
        "name": str,
        "seeds": _INT,
        "mean_success": _NUM,
        "mean_delay": _NUM,
        "delay_seeds_excluded": _INT,
    },
    "eval_batch": {
        "batch": _INT,
        "episodes": _INT,
        "rounds": _INT,
        "decisions": _INT,
    },
    "task_timing": {
        "label": str,
        "seconds": _NUM,
    },
    "batch_timing": {
        "name": str,
        "mode": str,
        "workers": _INT,
        "total_seconds": _NUM,
    },
    "train_phases": {
        "updates": _INT,
        "sim_advance": _NUM,
        "obs_build": _NUM,
        "policy_forward": _NUM,
        "optimizer_update": _NUM,
    },
    "serving": {
        "requests": _INT,
        "served": _INT,
        "shed": _INT,
        "flushes": _INT,
    },
    "note": {
        "message": str,
    },
}


class SchemaError(ValueError):
    """A telemetry record does not match the documented schema."""


def validate_record(record: Any) -> str:
    """Check one decoded record against the schema; returns its kind.

    Raises:
        SchemaError: The record is not a dict, has no/unknown ``kind``,
            or a required field is missing or of the wrong type.
    """
    if not isinstance(record, Mapping):
        raise SchemaError(f"record is not an object: {record!r}")
    kind = record.get("kind")
    if not isinstance(kind, str):
        raise SchemaError(f"record has no string 'kind' field: {record!r}")
    required = RECORD_SCHEMAS.get(kind)
    if required is None:
        raise SchemaError(
            f"unknown record kind {kind!r}; known: {sorted(RECORD_SCHEMAS)}"
        )
    for name, expected in required.items():
        if name not in record:
            raise SchemaError(f"{kind} record missing required field {name!r}")
        value = record[name]
        # bool is an Integral subtype in python; reject it for numerics.
        if isinstance(value, bool) and expected in (_NUM, _INT):
            raise SchemaError(f"{kind}.{name} must be numeric, got bool")
        if not isinstance(value, expected):
            raise SchemaError(
                f"{kind}.{name} has type {type(value).__name__}, "
                f"expected {getattr(expected, '__name__', expected)}"
            )
    return kind


def strip_timing(record: Mapping[str, Any]) -> Dict[str, Any]:
    """One record without its wall-clock fields (for equality checks)."""
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


def canonical_stream(
    records: Iterable[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """The determinism-comparable view of a stream.

    Drops purely-timing record kinds and strips timing fields from the
    rest; two runs of the same seeded workload yield equal canonical
    streams regardless of worker count.
    """
    return [
        strip_timing(r) for r in records if r.get("kind") not in TIMING_KINDS
    ]
