"""Tests for ``repro lint --explain``: every rule documented, rendering
complete, unknown ids rejected with the known-rule list."""

from __future__ import annotations

import pytest

from repro.analysis.explain import RULE_DOCS, render_explanation
from repro.analysis.flow import analyze_paths
from repro.analysis.linter import FLOW_RULES, RULES, lint_source

#: Names the snippets lean on; the path puts them in a seeded core package.
PREAMBLE = "import numpy as np, random, time\n"
SNIPPET_PATH = "repro/sim/snippet.py"


class TestCoverage:
    def test_every_rule_id_is_documented(self):
        assert set(RULE_DOCS) == set(RULES) | set(FLOW_RULES)

    @pytest.mark.parametrize("rule", sorted(set(RULES) | set(FLOW_RULES)))
    def test_doc_fields_are_nonempty(self, rule):
        doc = RULE_DOCS[rule]
        assert doc.rationale.strip()
        assert doc.bad.strip()
        assert doc.good.strip()


class TestExamplesAreLive:
    """``--explain`` must not show as *bad* code the linter passes (REP004
    once did: a set reaching the loop through a name is a documented
    false negative), nor as *good* code it flags."""

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_file_local_bad_is_flagged_and_good_is_clean(self, rule):
        doc = RULE_DOCS[rule]
        bad = lint_source(PREAMBLE + doc.bad, path=SNIPPET_PATH)
        assert {finding.rule for finding in bad} == {rule}
        assert lint_source(PREAMBLE + doc.good, path=SNIPPET_PATH) == []

    def test_rep104_bad_is_flagged_and_good_is_clean(self, tmp_path):
        doc = RULE_DOCS["REP104"]
        target = tmp_path / SNIPPET_PATH
        target.parent.mkdir(parents=True)
        target.write_text(PREAMBLE + doc.bad + "\n")
        assert [f.rule for f in analyze_paths([tmp_path], root=tmp_path)] == ["REP104"]
        target.write_text(PREAMBLE + doc.good + "\n")
        assert analyze_paths([tmp_path], root=tmp_path) == []


class TestRender:
    @pytest.mark.parametrize("rule", sorted(set(RULES) | set(FLOW_RULES)))
    def test_render_contains_all_sections(self, rule):
        text = render_explanation(rule)
        assert text.startswith(f"{rule}:")
        for section in ("Why", "Bad", "Good"):
            assert section in text
        assert f"allow[{rule}]" in text

    def test_family_line_distinguishes_flow_rules(self):
        assert "whole-program" in render_explanation("REP101")
        assert "file-local" in render_explanation("REP004")

    def test_lowercase_input_accepted(self):
        assert render_explanation("rep101").startswith("REP101:")

    def test_unknown_rule_raises_with_known_list(self):
        with pytest.raises(KeyError) as excinfo:
            render_explanation("REP999")
        message = excinfo.value.args[0]
        assert "REP999" in message
        assert "REP101" in message  # known rules listed
