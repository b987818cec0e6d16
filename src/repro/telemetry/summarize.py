"""Render a human-readable report from a telemetry run directory.

``repro telemetry summarize <dir>`` loads the run's manifest and JSONL
stream, validates every record against the schema, and prints a compact
report: record counts per kind, the training trajectory (loss, entropy,
predicted KL), simulation outcomes (success ratio, drop reasons, delay
summary), evaluation aggregates, and per-phase/batch wall-clock.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.manifest import (
    STREAM_FILENAME,
    RunManifest,
    read_manifest,
)
from repro.telemetry.schema import SchemaError, validate_record

__all__ = ["load_stream", "summarize_run"]


def load_stream(path: os.PathLike) -> List[Dict[str, Any]]:
    """Load a JSONL stream and validate every record against the schema.

    A last line without its newline is read like any other line: a
    record cut at a boundary loads, one cut mid-record is invalid JSON.

    Raises:
        SchemaError: A line is not UTF-8, not valid JSON or fails schema
            validation (the error names ``path:line``, 1-based).
    """
    records: List[Dict[str, Any]] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: not UTF-8 ({exc})") from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            try:
                validate_record(record)
            except SchemaError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
            records.append(record)
    return records


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def _fmt(value: Optional[float], spec: str = ".3f") -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n/a"
    return format(value, spec)


def _training_lines(updates: List[Dict[str, Any]]) -> List[str]:
    first, last = updates[0], updates[-1]
    lines = [
        f"training: {len(updates)} updates | "
        f"pi_loss {first['policy_loss']:.4f} -> {last['policy_loss']:.4f} | "
        f"v_loss {first['value_loss']:.4f} -> {last['value_loss']:.4f} | "
        f"entropy {first['entropy']:.3f} -> {last['entropy']:.3f}"
    ]
    kls = [r["kl"] for r in updates if isinstance(r.get("kl"), float)]
    if kls:
        lines.append(
            f"  trust region: predicted KL mean {_mean(kls):.2e} "
            f"max {max(kls):.2e}"
        )
    walls = [r["wall_seconds"] for r in updates if "wall_seconds" in r]
    if walls:
        lines.append(
            f"  update wall-clock: total {sum(walls):.2f}s "
            f"mean {_mean(walls) * 1000.0:.1f}ms"
        )
    return lines


def _sim_lines(runs: List[Dict[str, Any]]) -> List[str]:
    ratios = [float(r["success_ratio"]) for r in runs]
    drops: Dict[str, int] = {}
    for r in runs:
        for reason, count in r["drop_reasons"].items():
            drops[reason] = drops.get(reason, 0) + int(count)
    lines = [
        f"simulation: {len(runs)} runs | success {_mean(ratios):.3f} "
        f"(min {min(ratios):.3f} max {max(ratios):.3f}) | "
        f"flows {sum(int(r['flows_generated']) for r in runs)} "
        f"(+{sum(int(r['flows_succeeded']) for r in runs)} "
        f"-{sum(int(r['flows_dropped']) for r in runs)} "
        f"~{sum(int(r['flows_active']) for r in runs)} in flight)"
    ]
    if drops:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(drops.items()))
        lines.append(f"  drops: {rendered}")
    delays = [r["delay"] for r in runs if isinstance(r.get("delay"), dict)]
    if delays:
        p50 = _mean([d["p50"] for d in delays if "p50" in d])
        p95 = _mean([d["p95"] for d in delays if "p95" in d])
        dmax = max((d.get("max", float("-inf")) for d in delays), default=None)
        lines.append(
            f"  delay (successful flows): p50 {_fmt(p50, '.2f')} "
            f"p95 {_fmt(p95, '.2f')} max {_fmt(dmax, '.2f')}"
        )
    return lines


def _train_phase_lines(records: List[Dict[str, Any]]) -> List[str]:
    from repro.profiling import OPTIMIZER_SUBPHASE_NAMES, PHASE_NAMES

    totals = {
        name: sum(float(r.get(name, 0.0)) for r in records)
        for name in PHASE_NAMES
    }
    updates = sum(int(r["updates"]) for r in records)
    total = sum(totals.values())
    if total > 0.0:
        rendered = " ".join(
            f"{name}={seconds:.2f}s ({100.0 * seconds / total:.0f}%)"
            for name, seconds in totals.items()
        )
    else:
        rendered = " ".join(f"{name}=0.00s" for name in totals)
    lines = [f"train phases: {updates} updates | {rendered}"]
    subtotals = {
        name: sum(float(r.get(name, 0.0)) for r in records)
        for name in OPTIMIZER_SUBPHASE_NAMES
    }
    if any(subtotals.values()):
        skips = sum(int(r.get("stat_skips", 0)) for r in records)
        rendered = " ".join(
            f"{name}={seconds:.2f}s" for name, seconds in subtotals.items()
        )
        suffix = f" | stat skips {skips}" if skips else ""
        lines.append(f"  optimizer busy: {rendered}{suffix}")
    schedules = sorted(
        {
            (int(r["kfac_threads"]), bool(r["fused_backward_active"]))
            for r in records
            if "kfac_threads" in r and "fused_backward_active" in r
        }
    )
    if schedules:
        rendered = ", ".join(
            f"kfac_threads={threads} fused_backward_active={fused}"
            for threads, fused in schedules
        )
        lines.append(f"  optimizer schedule: {rendered}")
    return lines


def summarize_run(directory: os.PathLike) -> str:
    """Validate and render one run directory's report.

    Raises:
        FileNotFoundError: Missing manifest or stream file.
        SchemaError: The stream contains a malformed record.
    """
    directory = Path(directory)
    manifest: Optional[RunManifest]
    try:
        manifest = read_manifest(directory)
    except FileNotFoundError:
        manifest = None
    stream = directory / STREAM_FILENAME
    records = load_stream(stream)

    lines = [f"== Telemetry run: {directory} =="]
    if manifest is not None:
        lines.append(
            f"manifest: name={manifest.name} created={manifest.created} "
            f"seeds={list(manifest.seeds)} repro={manifest.package_version} "
            f"schema=v{manifest.schema_version}"
        )
        if manifest.usable_cpus:
            blas = " ".join(
                f"{var}={value if value is not None else 'unset'}"
                for var, value in sorted(manifest.blas_threads.items())
            )
            lines.append(f"host: usable_cpus={manifest.usable_cpus} {blas}")
        switches = " ".join(
            f"{var}={value}"
            for var, value in sorted(manifest.switches.items())
            if value is not None
        )
        if switches:
            lines.append(f"switches: {switches}")
        if manifest.config:
            knobs = ", ".join(
                f"{k}={v}" for k, v in sorted(manifest.config.items())
            )
            lines.append(f"config: {knobs}")
    else:
        lines.append("manifest: (missing)")

    counts: Dict[str, int] = {}
    for record in records:
        counts[record["kind"]] = counts.get(record["kind"], 0) + 1
    rendered_counts = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    lines.append(f"records: {len(records)} ({rendered_counts or 'empty'})")

    by_kind: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        by_kind.setdefault(record["kind"], []).append(record)

    if "train_update" in by_kind:
        lines.extend(_training_lines(by_kind["train_update"]))
    for result in by_kind.get("seed_result", []):
        lines.append(
            f"seed {result['seed']}: eval_reward "
            f"{result['mean_episode_reward']:.2f} "
            f"episodes={result['episodes']}"
        )
    for summary in by_kind.get("train_summary", []):
        lines.append(
            f"best agent: seed {summary['best_seed']} of "
            f"{summary['seeds']} ({summary['algorithm']})"
        )
    if "sim_run" in by_kind:
        lines.extend(_sim_lines(by_kind["sim_run"]))
    for agg in by_kind.get("eval_aggregate", []):
        excluded = int(agg["delay_seeds_excluded"])
        suffix = f" ({excluded} seed(s) excluded from delay)" if excluded else ""
        lines.append(
            f"evaluation[{agg['name']}]: {agg['seeds']} seeds | "
            f"success {_fmt(float(agg['mean_success']))} | "
            f"delay {_fmt(float(agg['mean_delay']), '.1f')}{suffix}"
        )
    evals = by_kind.get("eval_batch", [])
    if evals:
        total_decisions = sum(int(r["decisions"]) for r in evals)
        total_rounds = sum(int(r["rounds"]) for r in evals)
        fallbacks = sum(int(r.get("tie_fallbacks", 0)) for r in evals)
        widths = sorted({int(r["batch"]) for r in evals})
        mean_round = total_decisions / total_rounds if total_rounds else 0.0
        forward = sum(
            float(r["forward_seconds"]) for r in evals if "forward_seconds" in r
        )
        rate = [
            float(r["decisions_per_second"])
            for r in evals
            if "decisions_per_second" in r
        ]
        lines.append(
            f"lockstep eval: {len(evals)} run(s) at width {widths} "
            f"(derived from the episode count) | "
            f"{total_decisions} decisions in {total_rounds} rounds "
            f"(mean {mean_round:.1f}/round, {fallbacks} decided in float64) | "
            f"forward {forward:.2f}s"
            + (f" | {_mean(rate):.0f} decisions/s" if rate else "")
        )
    serving = by_kind.get("serving", [])
    if serving:
        requests = sum(int(r["requests"]) for r in serving)
        served = sum(int(r["served"]) for r in serving)
        shed = sum(int(r["shed"]) for r in serving)
        flushes = sum(int(r["flushes"]) for r in serving)
        mean_batch = served / flushes if flushes else 0.0
        rates = [
            float(r["decisions_per_second"])
            for r in serving
            if "decisions_per_second" in r
        ]
        swaps = sum(int(r.get("swaps", 0)) for r in serving)
        lines.append(
            f"serving: {len(serving)} run(s) | {requests} requests "
            f"({served} served, {shed} shed) | {flushes} flushes "
            f"mean batch {mean_batch:.1f}"
            + (f" | {_mean(rates):.0f} decisions/s" if rates else "")
            + (f" | {swaps} hot-swaps" if swaps else "")
        )
        p99s = [
            float(r["latency_p99_ms"]) for r in serving if "latency_p99_ms" in r
        ]
        if p99s:
            p50s = [
                float(r["latency_p50_ms"])
                for r in serving
                if "latency_p50_ms" in r
            ]
            lines.append(
                f"  latency: p50 {_fmt(_mean(p50s), '.2f')}ms "
                f"p99 {_fmt(_mean(p99s), '.2f')}ms (worst run "
                f"p99 {max(p99s):.2f}ms)"
            )
    for batch in by_kind.get("batch_timing", []):
        lines.append(
            f"batch {batch['name']}: {batch['mode']} "
            f"workers={batch['workers']} {batch['total_seconds']:.2f}s"
        )
    if "train_phases" in by_kind:
        lines.extend(_train_phase_lines(by_kind["train_phases"]))
    return "\n".join(lines)
