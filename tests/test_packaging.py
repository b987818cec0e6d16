"""Packaging and documentation deliverables sanity checks."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).parent.parent
PACKAGE = Path(repro.__file__).parent


class TestPackage:
    def test_version(self):
        assert repro.__version__

    def test_all_subpackages_importable(self):
        for name in repro.__all__:
            if name != "__version__":
                assert getattr(repro, name) is not None

    def test_public_api_exports_resolve(self):
        """Every name in each subpackage's __all__ must actually exist —
        for every subpackage on disk, not a hand-kept list of them."""
        subpackages = {
            info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
        }
        # The four a hand-kept list of ten once left out.
        assert {"faults", "parallel", "serving", "telemetry"} <= subpackages
        for subpackage in sorted(subpackages):
            module = importlib.import_module(f"repro.{subpackage}")
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"

    def test_every_declared_dependency_is_imported(self):
        """A runtime dependency nobody imports is an install cost with no
        user (scipy and networkx were, for twenty PRs)."""
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
        sources = [p.read_text() for p in PACKAGE.rglob("*.py")]
        for requirement in project["dependencies"]:
            name = re.match(r"[A-Za-z0-9_.-]+", requirement).group().replace("-", "_")
            statement = re.compile(rf"^\s*(import|from)\s+{re.escape(name)}\b", re.M)
            assert any(statement.search(text) for text in sources), (
                f"pyproject.toml declares {requirement!r} but nothing under "
                "src/repro imports it"
            )


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

    def test_design_layout_names_the_real_modules(self):
        """DESIGN §10's tree is regenerated, not remembered: the modules
        it lists under src/repro/ are exactly the ones on disk."""
        text = (REPO / "DESIGN.md").read_text()
        section = text.split("## 10. Repository layout", 1)[1]
        tree = section.split("```", 2)[1].split("src/repro/\n", 1)[1]
        listed = set()
        package = ""
        for line in tree.splitlines():
            if not line.startswith("  "):
                break  # tests/, benchmarks/, examples/ rows follow
            head = re.match(r"  (\w+)/ ", line)
            if head:
                package = head.group(1) + "/"
            elif not line.startswith("     "):
                package = ""  # the row of top-level modules
            listed |= {package + name for name in re.findall(r"\w+\.py", line)}
        on_disk = {
            path.relative_to(PACKAGE).as_posix()
            for path in PACKAGE.rglob("*.py")
            if path.name != "__init__.py"
        }
        assert listed == on_disk

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
