"""Tests for ``repro lint --explain``: every rule documented, rendering
complete, unknown ids rejected with the known-rule list."""

from __future__ import annotations

import pytest

from repro.analysis.explain import RULE_DOCS, render_explanation
from repro.analysis.linter import RULES, lint_source

#: Names the snippets lean on; the path puts them in a seeded core package.
PREAMBLE = "import numpy as np, random, time\n"
SNIPPET_PATH = "repro/sim/snippet.py"


class TestCoverage:
    def test_every_rule_id_is_documented(self):
        assert set(RULE_DOCS) == set(RULES)

    @pytest.mark.parametrize("rule", sorted(RULES))
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


class TestRender:
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_render_contains_all_sections(self, rule):
        text = render_explanation(rule)
        assert text.startswith(f"{rule}:")
        for section in ("Why", "Bad", "Good"):
            assert section in text
        assert f"allow[{rule}]" in text

    def test_lowercase_input_accepted(self):
        assert render_explanation("rep004").startswith("REP004:")

    def test_unknown_rule_raises_with_known_list(self):
        with pytest.raises(KeyError) as excinfo:
            render_explanation("REP999")
        message = excinfo.value.args[0]
        assert "REP999" in message
        assert "REP001" in message  # known rules listed
