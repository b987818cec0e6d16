"""Run manifests: what produced a telemetry stream.

Every telemetry run directory pairs a ``manifest.json`` (who/what/when:
command name, config knobs, seeds, package version, schema version,
timestamp, and the host facts float-level reproducibility depends on)
with a ``metrics.jsonl`` stream.  :func:`start_run` creates
both and returns the run handle used by the CLI and tests.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.telemetry.recorder import JsonlRecorder
from repro.telemetry.schema import SCHEMA_VERSION

__all__ = [
    "BLAS_THREAD_VARS",
    "MANIFEST_FILENAME",
    "STREAM_FILENAME",
    "SWITCH_VARS",
    "RunManifest",
    "TelemetryRun",
    "start_run",
    "read_manifest",
]

MANIFEST_FILENAME = "manifest.json"
STREAM_FILENAME = "metrics.jsonl"

#: Environment variables that size the BLAS thread pool.  The pool size
#: picks the GEMM kernels' blocking, hence the floats: two runs are only
#: comparable bit for bit when these (and ``usable_cpus``) agree.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The ``REPRO_*`` switches ``src/`` reads (worker count, inference dtype
#: of deployed agents, runtime invariant checks).  A command-line flag
#: lands in ``config``; these reach a run without one, so the manifest
#: records them verbatim.
SWITCH_VARS = ("REPRO_WORKERS", "REPRO_EVAL_DTYPE", "REPRO_CHECK_INVARIANTS")


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one telemetry run.

    Attributes:
        name: What produced the run (e.g. ``"train"``, ``"compare"``).
        config: Flat JSON-able mapping of the run's knobs.
        seeds: The random seeds involved (training or evaluation).
        package_version: ``repro.__version__`` at run time.
        schema_version: Stream schema version (see
            :mod:`repro.telemetry.schema`).
        created: ISO-8601 UTC creation timestamp.
        created_unix: Same instant as a unix timestamp.
        usable_cpus: Cores the process could run on
            (:func:`repro.parallel.usable_cpus`; 0 in manifests written
            before the field existed).
        blas_threads: Value of each :data:`BLAS_THREAD_VARS` variable in
            force, ``None`` when unset.
        switches: Raw value of each :data:`SWITCH_VARS` variable, ``None``
            when unset (empty in manifests written before the field
            existed).
    """

    name: str
    config: Dict[str, Any] = field(default_factory=dict)
    seeds: Sequence[int] = ()
    package_version: str = ""
    schema_version: int = SCHEMA_VERSION
    created: str = ""
    created_unix: float = 0.0
    usable_cpus: int = 0
    blas_threads: Dict[str, Optional[str]] = field(default_factory=dict)
    switches: Dict[str, Optional[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "config": dict(self.config),
            "seeds": list(self.seeds),
            "package_version": self.package_version,
            "schema_version": self.schema_version,
            "created": self.created,
            "created_unix": self.created_unix,
            "usable_cpus": self.usable_cpus,
            "blas_threads": dict(self.blas_threads),
            "switches": dict(self.switches),
        }


@dataclass
class TelemetryRun:
    """A run directory: manifest + live recorder for its metric stream."""

    directory: Path
    manifest: RunManifest
    recorder: JsonlRecorder

    @property
    def stream_path(self) -> Path:
        return self.recorder.path

    def close(self) -> None:
        self.recorder.close()

    def __enter__(self) -> "TelemetryRun":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _package_version() -> str:
    try:
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - defensive
        return "unknown"


def start_run(
    directory: os.PathLike,
    name: str,
    config: Optional[Dict[str, Any]] = None,
    seeds: Sequence[int] = (),
) -> TelemetryRun:
    """Create a telemetry run directory with a manifest and empty stream.

    Args:
        directory: Run directory (created if missing).  An existing
            ``metrics.jsonl`` in it is truncated so reruns into the same
            directory do not concatenate streams.
        name: Run name recorded in the manifest (e.g. the CLI command).
        config: JSON-able knobs to record (non-JSON values are
            stringified).
        seeds: Seeds the run will use.
    """
    from repro.parallel.pool import usable_cpus  # pool imports telemetry

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        name=name,
        config=_jsonable(config or {}),
        seeds=list(seeds),
        package_version=_package_version(),
        schema_version=SCHEMA_VERSION,
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        created_unix=time.time(),
        usable_cpus=usable_cpus(),
        blas_threads={var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        switches={var: os.environ.get(var) for var in SWITCH_VARS},
    )
    (directory / MANIFEST_FILENAME).write_text(
        json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    stream = directory / STREAM_FILENAME
    if stream.exists():
        stream.unlink()
    return TelemetryRun(
        directory=directory,
        manifest=manifest,
        recorder=JsonlRecorder(stream),
    )


def read_manifest(directory: os.PathLike) -> RunManifest:
    """Load the manifest of a run directory.

    Raises:
        FileNotFoundError: No ``manifest.json`` in ``directory``.
        ValueError: The manifest is not valid JSON or misses fields.
    """
    path = Path(directory) / MANIFEST_FILENAME
    text = path.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
        return RunManifest(
            name=raw["name"],
            config=raw.get("config", {}),
            seeds=raw.get("seeds", []),
            package_version=raw.get("package_version", ""),
            schema_version=raw.get("schema_version", 0),
            created=raw.get("created", ""),
            created_unix=raw.get("created_unix", 0.0),
            usable_cpus=raw.get("usable_cpus", 0),
            blas_threads=raw.get("blas_threads", {}),
            switches=raw.get("switches", {}),
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed manifest ({exc})") from exc


def _jsonable(config: Dict[str, Any]) -> Dict[str, Any]:
    """Round-trip config values through JSON, stringifying what fails."""
    out: Dict[str, Any] = {}
    for key, value in config.items():
        try:
            json.dumps(value)
            out[key] = value
        except TypeError:
            out[key] = str(value)
    return out
