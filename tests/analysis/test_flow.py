"""Fixture-driven tests of the whole-program flow analyzer.

Each REP1xx rule has a known-bad synthetic module tree that must fire
and a known-good twin that must stay silent; the suite also pins waiver
semantics on the new rules and the headline acceptance check that the
real ``src/repro`` tree is flow-clean.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.flow import analyze_paths, build_program
from repro.analysis.linter import FLOW_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "flow"


def _rules(directory: Path) -> set:
    return {f.rule for f in analyze_paths([directory], root=directory)}


class TestFixturePairs:
    @pytest.mark.parametrize("rule", sorted(FLOW_RULES))
    def test_bad_twin_fires_exactly_its_rule(self, rule):
        bad = FIXTURES / f"{rule.lower()}_bad"
        assert _rules(bad) == {rule}

    @pytest.mark.parametrize("rule", sorted(FLOW_RULES))
    def test_good_twin_is_silent(self, rule):
        good = FIXTURES / f"{rule.lower()}_good"
        assert _rules(good) == set()

    def test_rep101_finding_names_task_and_draw_site(self):
        bad = FIXTURES / "rep101_bad"
        findings = analyze_paths([bad], root=bad)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "pipeline.py"
        assert "pipeline.Pipeline.step" in finding.message
        assert "worker.py:5" in finding.message
        assert "self" in finding.message  # stream kind

    def test_rep103_names_both_dispatch_lines(self):
        bad = FIXTURES / "rep103_bad"
        (finding,) = analyze_paths([bad], root=bad)
        assert "'scratch'" in finding.message
        assert "lines 20 and 21" in finding.message

    def test_rep104_fires_on_both_reduction_shapes(self):
        bad = FIXTURES / "rep104_bad"
        findings = analyze_paths([bad], root=bad)
        assert len(findings) == 2
        assert {f.line for f in findings} == {9, 15}

    def test_rep105_anchors_on_the_mutation_line(self):
        bad = FIXTURES / "rep105_bad"
        (finding,) = analyze_paths([bad], root=bad)
        assert finding.line == 14  # batch.append, not the submit
        assert "submitted at line 13" in finding.message


class TestSelect:
    def test_select_restricts_rules(self):
        bad = FIXTURES / "rep104_bad"
        assert analyze_paths([bad], root=bad, select=("REP101",)) == []
        findings = analyze_paths([bad], root=bad, select=("REP104",))
        assert {f.rule for f in findings} == {"REP104"}


class TestWaivers:
    def test_inline_waiver_suppresses_rep101(self, tmp_path):
        bad = FIXTURES / "rep101_bad"
        (finding,) = analyze_paths([bad], root=bad)
        out = tmp_path / "tree"
        out.mkdir()
        for file in bad.glob("*.py"):
            lines = file.read_text().splitlines()
            if file.name == finding.path:
                lines.insert(
                    finding.line - 1, "# repro: allow[REP101] fixture waiver"
                )
            (out / file.name).write_text("\n".join(lines) + "\n")
        assert analyze_paths([out], root=out) == []

    def test_waiver_does_not_leak_across_lines(self, tmp_path):
        """A waiver two lines above the finding suppresses nothing."""
        bad = FIXTURES / "rep105_bad"
        (finding,) = analyze_paths([bad], root=bad)
        out = tmp_path / "tree"
        out.mkdir()
        for file in bad.glob("*.py"):
            lines = file.read_text().splitlines()
            lines.insert(finding.line - 3, "# repro: allow[REP105] too far away")
            (out / file.name).write_text("\n".join(lines) + "\n")
        findings = analyze_paths([out], root=out)
        assert [f.rule for f in findings] == ["REP105"]

    def test_waiver_for_other_rule_does_not_suppress(self, tmp_path):
        bad = FIXTURES / "rep105_bad"
        (finding,) = analyze_paths([bad], root=bad)
        out = tmp_path / "tree"
        out.mkdir()
        for file in bad.glob("*.py"):
            lines = file.read_text().splitlines()
            lines.insert(finding.line - 1, "# repro: allow[REP104] wrong rule")
            (out / file.name).write_text("\n".join(lines) + "\n")
        findings = analyze_paths([out], root=out)
        assert [f.rule for f in findings] == ["REP105"]


class TestProgramModel:
    def test_call_graph_crosses_module_boundaries(self):
        program = build_program([FIXTURES / "rep101_bad"], root=FIXTURES / "rep101_bad")
        step = program.functions["pipeline.Pipeline.step"]
        targets = [q for site in step.call_sites for q, _ in site.targets]
        assert "worker.scale_batch" in targets

    def test_reachability_includes_entry(self):
        fixture = FIXTURES / "rep101_bad"
        program = build_program([fixture], root=fixture)
        reachable = program.reachable("pipeline.Pipeline.step")
        assert "pipeline.Pipeline.step" in reachable
        assert "worker.scale_batch" in reachable

    def test_mutated_params_close_over_calls(self):
        fixture = FIXTURES / "rep103_bad"
        program = build_program([fixture], root=fixture)
        square = program.functions["shared.square_into"]
        assert "out" in square.out_params
        assert "out" in square.mutated_params


class TestSelfFlowClean:
    def test_repo_source_tree_is_flow_clean(self):
        """Acceptance: the flow pass of ``repro lint`` is clean on the
        real tree (no flow rule is waived anywhere, so zero findings is
        required)."""
        findings = analyze_paths(
            [REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT,
        )
        assert findings == [], [
            f"{f.rule} {f.path}:{f.line} {f.message}" for f in findings
        ]

    def test_acktr_concurrent_site_is_seen_by_the_analyzer(self, tmp_path):
        """The K-FAC overlap site needs no waiver because the task holds
        only actor-side objects while the calling thread mutates the
        critic's.  Guard against the analyzer merely losing sight of the
        dispatch: hand the calling thread the *actor's* optimizer in a
        scratch copy and the finding must appear."""
        src = (REPO_ROOT / "src" / "repro" / "rl" / "acktr.py").read_text()
        assert "repro: allow" not in src
        disjoint = "self.policy.critic, self.critic_kfac, noise, dvalues, fused"
        assert disjoint in src
        (tmp_path / "acktr.py").write_text(
            src.replace(disjoint, disjoint.replace("critic_kfac", "actor_kfac"))
        )
        # The finding needs KFAC.update_stats in the program index to
        # prove _network_update mutates its kfac argument.
        kfac = REPO_ROOT / "src" / "repro" / "nn" / "kfac.py"
        (tmp_path / "kfac.py").write_text(kfac.read_text())
        findings = analyze_paths([tmp_path], root=tmp_path)
        assert [f.rule for f in findings] == ["REP105"]
