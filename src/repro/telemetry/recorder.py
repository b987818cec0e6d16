"""Structured run telemetry: a dependency-free JSONL metric recorder.

Two implementations of one tiny interface:

- :data:`NULL_RECORDER` — the default everywhere.  ``emit`` is a no-op
  and ``enabled`` is False, so instrumented hot paths pay one attribute
  check when telemetry is off (call sites guard dict construction with
  ``if recorder.enabled``).
- :class:`JsonlRecorder` — appends one JSON object per ``emit`` to a
  ``.jsonl`` file, creating parent directories lazily on first write.

Worker processes
----------------

A :class:`JsonlRecorder` pickles (the open file handle is dropped and
reopened lazily), but concurrent workers appending to one shared file
would interleave records nondeterministically.  The contract instead,
kept in one place (:func:`repro.parallel.pool.run_tasks`): the batch
derives one *worker-local* recorder per task with
:meth:`JsonlRecorder.for_task` (a deterministic sibling path), hands it
to the task function, closes it where the task ran, and after the batch
completes merges each worker file back into its own stream — in task
order — with :meth:`JsonlRecorder.absorb`.  The merged stream is
therefore identical for serial and parallel execution (modulo
wall-clock values; see :func:`repro.telemetry.schema.canonical_stream`).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import IO, Any, Dict, Optional

__all__ = ["Recorder", "NullRecorder", "NULL_RECORDER", "JsonlRecorder"]


def _coerce(value: Any) -> Any:
    """JSON-encode numpy scalars/arrays without importing numpy."""
    for attr in ("item",):  # numpy scalars and 0-d arrays
        if hasattr(value, attr):
            return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {value!r} ({type(value).__name__})")


class Recorder:
    """Telemetry sink interface (no-op base).

    Attributes:
        enabled: True when ``emit`` actually records something; hot
            paths skip building record fields when False.
    """

    enabled: bool = False

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one event of ``kind`` with the given fields."""

    def for_task(self, label: str) -> "Recorder":
        """A worker-local recorder for one parallel task (see module doc)."""
        return self

    def absorb(self, child: "Recorder") -> None:
        """Merge a worker-local child stream into this one and delete it."""

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class NullRecorder(Recorder):
    """Disabled telemetry: every operation is a no-op."""


#: Shared disabled recorder; use as the default for ``recorder`` params.
NULL_RECORDER = NullRecorder()


def _slug(label: str) -> str:
    """Filesystem-safe task label (deterministic across processes)."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", label).strip("-") or "task"


class JsonlRecorder(Recorder):
    """Appends one JSON object per event to a ``.jsonl`` stream.

    Every record is validated against the schema at emit time (cheap), so
    a malformed record fails at the source instead of at summarize time.

    Args:
        path: Stream file; parent directories are created on first emit.
    """

    enabled = True

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None

    # -- pickling: worker-local recorders cross the process boundary ----

    def __getstate__(self) -> Dict[str, Any]:
        return {"path": self.path}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self._fh = None

    # -------------------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        from repro.telemetry.schema import validate_record

        record = {"kind": kind, **fields}
        validate_record(record)
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, default=_coerce) + "\n")

    def for_task(self, label: str) -> "JsonlRecorder":
        """Worker-local sibling stream ``<stem>.<label>.jsonl``.

        The path depends only on this recorder's path and the task
        label, so the parent (which derives it) and the worker (which
        writes it) agree without communicating.
        """
        sibling = self.path.with_name(f"{self.path.stem}.{_slug(label)}.jsonl")
        return JsonlRecorder(sibling)

    def absorb(self, child: Recorder) -> None:
        """Append a finished child stream's records here, then delete it.

        Tolerates a child that never emitted (no file).  Records are
        copied verbatim (already validated at emit time in the worker);
        a child cut mid-write gets its last line terminated, so the
        parent's next record starts a line of its own and the cut line
        fails :func:`~repro.telemetry.load_stream` by its line number.
        """
        if not isinstance(child, JsonlRecorder) or child.path == self.path:
            return
        child.close()
        try:
            text = child.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        if text:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(text if text.endswith("\n") else text + "\n")
        child.path.unlink()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
