"""Benchmark fixtures shared by all bench modules."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

# Make the sibling _config module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))


class BenchReport(list):
    """Rendered report sections plus per-phase wall-clock breakdowns.

    Bench tests ``append`` rendered tables (list behaviour, unchanged)
    and may attach a stage breakdown — ``{"phases": [{"name", "seconds"},
    ...], "total_seconds"}``, timed with ``time.perf_counter()`` — via
    :meth:`add_phases`.  When
    ``REPRO_BENCH_JSON`` names a file, the whole report (sections, phase
    timings, and the run's performance configuration — scale, workers,
    eval batch) is written there as JSON at session end.
    """

    def __init__(self) -> None:
        super().__init__()
        self.phases: dict = {}
        self.config: dict = {}

    def add_phases(self, name: str, breakdown: dict) -> None:
        self.phases[name] = breakdown

    def to_dict(self) -> dict:
        return {"config": self.config, "sections": list(self), "phases": self.phases}


@pytest.fixture(scope="session")
def bench_report():
    """Collects rendered tables from all bench tests and prints them once
    at the end of the session, so `pytest benchmarks/ --benchmark-only`
    leaves a readable reproduction report in the output.  Set
    ``REPRO_BENCH_JSON=/path/report.json`` to also persist the report
    (including per-phase wall-clock breakdowns) as JSON."""
    report = BenchReport()
    from _config import SCALE, WORKERS

    report.config = {
        "scale": SCALE.name,
        "workers": WORKERS,
    }
    yield report
    if report:
        print("\n\n================ REPRODUCTION REPORT ================")
        for section in report:
            print()
            print(section)
        print("=====================================================")
    json_path = os.environ.get("REPRO_BENCH_JSON")
    if json_path and (report or report.phases):
        Path(json_path).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"\nBench report JSON written to {json_path}")
