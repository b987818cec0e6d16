"""Structured run telemetry: JSONL metric streams + run manifests.

Runs of the training loop, the simulator, and the evaluation harness
are black boxes without instrumentation: per-update losses, entropy,
trust-region KL, per-run flow outcomes, and fan-out timing vanish
unless they surface in a final table.  This package records them as a
validated JSONL stream next to a run manifest, at zero overhead when
disabled:

- :mod:`repro.telemetry.recorder` — :data:`NULL_RECORDER` (no-op
  default) and :class:`JsonlRecorder` (picklable; worker-local streams
  merge deterministically into the parent's).
- :mod:`repro.telemetry.schema` — the closed record schema, validation,
  and the timing-stripped canonical view used by determinism checks.
- :mod:`repro.telemetry.manifest` — run directories: ``manifest.json``
  (config, seeds, package version, timestamp) + ``metrics.jsonl``.
- :mod:`repro.telemetry.summarize` — ``repro telemetry summarize``:
  validate a stream and render a run report.
"""

from repro.telemetry.manifest import (
    MANIFEST_FILENAME,
    STREAM_FILENAME,
    RunManifest,
    TelemetryRun,
    read_manifest,
    start_run,
)
from repro.telemetry.recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    NullRecorder,
    Recorder,
)
from repro.telemetry.schema import (
    RECORD_SCHEMAS,
    SCHEMA_VERSION,
    TIMING_FIELDS,
    TIMING_KINDS,
    SchemaError,
    canonical_stream,
    strip_timing,
    validate_record,
)
from repro.telemetry.summarize import load_stream, summarize_run

__all__ = [
    "MANIFEST_FILENAME",
    "NULL_RECORDER",
    "JsonlRecorder",
    "NullRecorder",
    "RECORD_SCHEMAS",
    "Recorder",
    "RunManifest",
    "SCHEMA_VERSION",
    "STREAM_FILENAME",
    "SchemaError",
    "TIMING_FIELDS",
    "TIMING_KINDS",
    "TelemetryRun",
    "canonical_stream",
    "load_stream",
    "read_manifest",
    "start_run",
    "strip_timing",
    "summarize_run",
    "validate_record",
]
