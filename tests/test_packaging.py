"""Packaging and documentation deliverables sanity checks."""

from pathlib import Path

import pytest

import repro

REPO = Path(__file__).parent.parent


class TestPackage:
    def test_version(self):
        assert repro.__version__

    def test_all_subpackages_importable(self):
        for name in repro.__all__:
            if name != "__version__":
                assert getattr(repro, name) is not None

    def test_public_api_exports_resolve(self):
        """Every name in each subpackage's __all__ must actually exist."""
        from repro import (
            analysis, baselines, core, eval, nn, rl, services, sim, topology, traffic,
        )

        for module in (
            analysis, baselines, core, eval, nn, rl, services, sim, topology, traffic,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestTypedDistribution:
    def test_py_typed_marker_ships_with_the_package(self):
        """PEP 561: the installed (or src-layout imported) package carries
        the inline-types marker so downstream mypy runs see our stubs."""
        marker = Path(repro.__file__).parent / "py.typed"
        assert marker.exists(), "repro/py.typed marker missing"

    def test_py_typed_registered_as_package_data(self):
        text = (REPO / "pyproject.toml").read_text()
        assert "py.typed" in text, "py.typed not declared as package data"

    def test_dev_extra_pins_static_analysis_toolchain(self):
        text = (REPO / "pyproject.toml").read_text()
        for tool in ("mypy", "ruff"):
            assert tool in text, f"{tool} missing from the dev extra"


class TestDocumentationDeliverables:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_doc_exists_and_substantial(self, name):
        path = REPO / name
        assert path.exists(), f"{name} missing"
        assert len(path.read_text()) > 2000, f"{name} looks stubbed"

    def test_design_covers_every_figure(self):
        text = (REPO / "DESIGN.md").read_text()
        for artifact in ("Table I", "Fig. 6a", "Fig. 6d", "Fig. 7",
                         "Fig. 8a", "Fig. 8b", "Fig. 9a", "Fig. 9b"):
            assert artifact in text, f"DESIGN.md missing {artifact}"

    def test_experiments_records_paper_vs_measured(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for token in ("Table I", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9",
                      "Measured", "Paper"):
            assert token in text

    def test_benchmarks_cover_every_figure(self):
        names = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        assert names >= {
            "bench_table1_topologies.py",
            "bench_fig6_traffic_patterns.py",
            "bench_fig7_deadlines.py",
            "bench_fig8_generalization.py",
            "bench_fig9_scalability.py",
        }


class TestTrainingConfigQuick:
    def test_quick_reduces_budget_keeps_algorithm(self):
        from repro.core import TrainingConfig

        full = TrainingConfig()
        quick = full.quick()
        assert quick.algorithm == full.algorithm
        assert len(quick.seeds) < len(full.seeds)
        assert quick.updates_per_seed < full.updates_per_seed
