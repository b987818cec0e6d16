"""Static and runtime analysis for the repo's determinism guarantees.

The repo's headline property — bit-identical results across the serial,
process-parallel, and batched-inference execution paths — is exactly the
kind of property that silently breaks when an unseeded RNG, an
unordered-set iteration, or a wall-clock read slips into a seeded code
path.  This package enforces those invariants in two complementary ways:

- :mod:`repro.analysis.linter` — an AST-based project linter
  (``repro lint``) with repo-specific rules REP001–REP008 and inline
  ``# repro: allow[REPnnn] <reason>`` suppressions.
- :mod:`repro.analysis.sarif` / :mod:`repro.analysis.explain` —
  SARIF 2.1.0 rendering for CI upload and ``repro lint --explain``
  rule documentation.
- :mod:`repro.analysis.invariants` — a runtime sanitizer:
  ``REPRO_CHECK_INVARIANTS=1`` routes simulator/state invariants
  (event-time monotonicity, capacity conservation, flow accounting,
  event-queue live-count consistency) through :func:`check`, raising
  :class:`InvariantViolation` with structured context.  The sanitizer
  observes and never perturbs: a seeded run with it enabled is
  bit-identical to one without.
"""

from repro.analysis.invariants import (
    InvariantViolation,
    check,
    invariants_enabled,
)
from repro.analysis.explain import RULE_DOCS, render_explanation
from repro.analysis.linter import (
    Finding,
    LintConfig,
    RULES,
    lint_paths,
    lint_source,
)
from repro.analysis.sarif import render_sarif

__all__ = [
    "InvariantViolation",
    "check",
    "invariants_enabled",
    "Finding",
    "LintConfig",
    "RULES",
    "RULE_DOCS",
    "lint_paths",
    "lint_source",
    "render_explanation",
    "render_sarif",
]
