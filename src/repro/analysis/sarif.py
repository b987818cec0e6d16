"""SARIF 2.1.0 rendering for lint findings.

Minimal but schema-valid output so CI can upload the report as an
artifact (and code-scanning UIs can ingest it): one run, one tool
driver (``repro-lint``), a ``rules`` array covering every rule id the
invocation could emit, and one ``result`` per finding with a physical
location and the linter's stable fingerprint
(:attr:`Finding.fingerprint <repro.analysis.linter.Finding.fingerprint>`,
exposed under ``partialFingerprints`` so a result keeps its identity
when unrelated lines move).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable

from repro.analysis.linter import RULES, Finding

__all__ = ["SARIF_VERSION", "render_sarif"]

SARIF_VERSION = "2.1.0"
_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_sarif(findings: Iterable[Finding]) -> str:
    """Render findings as a SARIF 2.1.0 JSON document.

    The driver's rule table is ``RULES``; a rule id seen in findings but
    missing there (``REP000``, a syntax error) is still added, so the
    document never references an undeclared rule.
    """
    rule_table: Dict[str, str] = dict(RULES)
    results = []
    for finding in findings:
        rule_table.setdefault(finding.rule, finding.message)
        results.append(
            {
                "ruleId": finding.rule,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": finding.path},
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    "reproLintFingerprint/v1": finding.fingerprint
                },
            }
        )
    document = {
        "$schema": _SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {"text": text},
                            }
                            for rule_id, text in sorted(rule_table.items())
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
