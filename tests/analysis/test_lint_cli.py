"""End-to-end tests of ``tools/lint.py``: file discovery, the report,
the command line.

Includes the self-lint acceptance check: the repository's own source tree
must be clean.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from tools.lint import (
    lint_paths,
    lint_source,
    main,
    run_lint,
)

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
        assert report == "repro lint: no findings"

    def test_report_names_each_finding_and_counts_rules(self, bad_tree):
        code, report = run_lint([str(bad_tree)], root=bad_tree)
        assert report.splitlines() == [
            "pkg/bad.py:3:7: REP001 np.random.default_rng() constructed without "
            "a seed; pass an explicit seed or SeedSequence-derived generator",
            "repro lint: 1 finding(s) (REP001 x1)",
        ]


class TestCliCommand:
    def test_lint_command_exit_codes(self, bad_tree, capsys):
        code = main([str(bad_tree / "pkg" / "bad.py")])
        assert code == 1
        assert "REP001" in capsys.readouterr().out
        code = main([str(bad_tree / "pkg" / "clean.py")])
        assert code == 0


class TestSelfLint:
    """The repository itself must pass its own determinism gate."""

    def test_repo_source_tree_is_clean(self):
        code, report = run_lint(["src/repro", "benchmarks"], root=REPO_ROOT)
        assert code == 0, f"repo lint gate failed:\n{report}"
        assert report == "repro lint: no findings"

    def test_module_invocation_matches(self):
        # The exact command the CI lint job runs; the linter needs no
        # PYTHONPATH, it imports nothing from the package.
        result = subprocess.run(
            [sys.executable, "tools/lint.py", "src/repro", "benchmarks"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout == "repro lint: no findings\n"


class TestSelfFlowLint:
    """The lint step as written in the CI workflow must be clean."""

    def test_flow_module_invocation_is_clean(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        prefix = "run: python "
        commands = [
            line.strip()[len(prefix):].split()
            for line in workflow.splitlines()
            if line.strip().startswith(prefix + "tools/lint.py")
        ]
        assert len(commands) == 1, workflow
        result = subprocess.run(
            [sys.executable, *commands[0]],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout == "repro lint: no findings\n"
        assert result.stderr == ""


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

    def test_unknown_id_in_a_line_above_waiver_fires(self):
        # Concatenated so this file's own lines do not carry a waiver.
        findings = lint_source(
            "# repro: " + "allow[REP040] keys are disjoint\nbuf.fill(0)\n",
            path="pkg/mod.py",
        )
        assert [(f.rule, f.line) for f in findings] == [("REP008", 1)]

    def test_known_id_in_a_line_above_waiver_is_clean(self):
        assert lint_source(
            "# repro: " + "allow[REP004] keys are disjoint\nbuf.fill(0)\n",
            path="pkg/mod.py",
        ) == []

