"""End-to-end tests of ``repro lint``: file discovery, reports, CLI.

Includes the self-lint acceptance check: the repository's own source tree
must be clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.linter import (
    lint_paths,
    lint_source,
    run_lint,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_MODULE = """\
import numpy as np

rng = np.random.default_rng()
"""

CLEAN_MODULE = """\
import numpy as np

rng = np.random.default_rng(42)
"""


@pytest.fixture
def bad_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "bad.py").write_text(BAD_MODULE)
    (pkg / "clean.py").write_text(CLEAN_MODULE)
    return tmp_path


class TestLintPaths:
    def test_discovers_python_files_recursively(self, bad_tree):
        findings = lint_paths([bad_tree], root=bad_tree)
        assert [(f.rule, f.path) for f in findings] == [("REP001", "pkg/bad.py")]

    def test_single_file_path(self, bad_tree):
        findings = lint_paths([bad_tree / "pkg" / "bad.py"], root=bad_tree)
        assert [f.rule for f in findings] == ["REP001"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])


class TestRunLint:
    def test_findings_give_exit_one(self, bad_tree):
        code, report = run_lint([str(bad_tree)], root=bad_tree)
        assert code == 1
        assert "REP001" in report

    def test_clean_tree_gives_exit_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_MODULE)
        code, report = run_lint([str(tmp_path)], root=tmp_path)
        assert code == 0

    def test_json_format(self, bad_tree):
        code, report = run_lint(
            [str(bad_tree)], output_format="json", root=bad_tree
        )
        payload = json.loads(report)
        assert code == 1
        assert payload["findings"][0]["rule"] == "REP001"
        assert payload["count"] == 1

    def test_unknown_select_rule_raises(self, bad_tree):
        with pytest.raises(ValueError):
            run_lint([str(bad_tree)], select=("REP999",), root=bad_tree)


class TestCliCommand:
    def test_lint_subcommand_exit_codes(self, bad_tree, capsys):
        code = main(["lint", str(bad_tree / "pkg" / "bad.py")])
        assert code == 1
        assert "REP001" in capsys.readouterr().out
        code = main(["lint", str(bad_tree / "pkg" / "clean.py")])
        assert code == 0

    def test_lint_subcommand_json(self, bad_tree, capsys):
        code = main(["lint", str(bad_tree), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["rule"] for f in payload["findings"]] == ["REP001"]

    def test_select_option(self, bad_tree, capsys):
        code = main(["lint", str(bad_tree), "--select", "REP007"])
        assert code == 0

    def test_explain_known_rule(self, capsys):
        assert main(["lint", "--explain", "REP003"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("REP003:")
        assert "Bad" in out and "Good" in out

    def test_explain_unknown_rule(self, capsys):
        assert main(["lint", "--explain", "REP999"]) == 2
        assert "known rules" in capsys.readouterr().out

    def test_output_file_writes_report(self, bad_tree, tmp_path, capsys):
        out_file = tmp_path / "report.sarif"
        code = main(
            ["lint", str(bad_tree), "--format", "sarif", "--output",
             str(out_file)]
        )
        assert code == 1
        assert "written to" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        assert doc["runs"][0]["results"]


class TestSelfLint:
    """The repository itself must pass its own determinism gate."""

    def test_repo_source_tree_is_clean(self):
        code, report = run_lint(
            ["src/repro", "benchmarks"],
            output_format="json",
            root=REPO_ROOT,
        )
        payload = json.loads(report)
        assert code == 0, f"repo lint gate failed:\n{report}"
        assert payload["findings"] == []

    def test_module_invocation_matches(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src/repro", "benchmarks",
             "--format", "json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestSelfFlowLint:
    """The CI lint invocation must be clean on the repository."""

    def test_flow_module_invocation_is_clean(self, tmp_path):
        sarif_path = tmp_path / "lint.sarif"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src/repro", "benchmarks",
             "--format", "sarif", "--output", str(sarif_path)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        doc = json.loads(sarif_path.read_text())
        assert doc["runs"][0]["results"] == []


class TestSarifFormat:
    def test_sarif_document_shape(self, bad_tree):
        code, report = run_lint(
            [str(bad_tree)], output_format="sarif", root=bad_tree
        )
        doc = json.loads(report)
        assert code == 1
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "REP001" in rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "REP001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "pkg/bad.py"
        assert location["region"]["startLine"] == 3
        assert "reproLintFingerprint/v1" in result["partialFingerprints"]

    def test_clean_tree_sarif_has_no_results(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_MODULE)
        code, report = run_lint(
            [str(tmp_path)], output_format="sarif", root=tmp_path
        )
        assert code == 0
        assert json.loads(report)["runs"][0]["results"] == []


class TestUnknownWaiverRule:
    def test_rep008_fires_on_unknown_rule_id(self):
        findings = lint_source(
            "x = 1  # repro: allow[REP999] typo\n", path="pkg/mod.py"
        )
        assert [f.rule for f in findings] == ["REP008"]
        assert "REP999" in findings[0].message

    def test_mixed_known_and_unknown_ids_reported_once(self):
        findings = lint_source(
            "x = 1  # repro: allow[REP001, REP150] half typo\n",
            path="pkg/mod.py",
        )
        assert [f.rule for f in findings] == ["REP008"]
        assert "REP150" in findings[0].message
        assert "REP001" not in findings[0].message.split(";")[0]

