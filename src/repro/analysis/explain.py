"""Rule documentation for ``repro lint --explain REPxxx``.

Every rule carries a rationale tied to the repo's determinism contract
plus a minimal bad/good example pair.  A test asserts the table covers
every id in ``RULES`` so a new rule cannot ship undocumented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.linter import RULES

__all__ = ["RULE_DOCS", "RuleDoc", "render_explanation"]


@dataclass(frozen=True)
class RuleDoc:
    """Human-facing documentation for one lint rule."""

    rationale: str
    bad: str
    good: str


RULE_DOCS: Dict[str, RuleDoc] = {
    "REP001": RuleDoc(
        rationale=(
            "numpy.random.default_rng() / RandomState() / random.Random() "
            "without an explicit seed pulls entropy from the OS, so the "
            "stream differs every run and the result can never be "
            "replayed; every generator in the seeded core must be "
            "constructed from a seed that is itself derived from the run "
            "configuration."
        ),
        bad="rng = np.random.default_rng()  # OS entropy",
        good="rng = np.random.default_rng(config.seed)",
    ),
    "REP002": RuleDoc(
        rationale=(
            "The module-level global streams (np.random.normal, "
            "random.random, np.random.seed) are shared by every caller in "
            "the process, so the draw sequence depends on unrelated code "
            "running first; per-component seeded Generators keep streams "
            "isolated and replayable."
        ),
        bad="np.random.seed(0)\nx = np.random.normal()",
        good="rng = np.random.default_rng(0)\nx = rng.normal()",
    ),
    "REP003": RuleDoc(
        rationale=(
            "Wall-clock and other nondeterministic reads (time.time, "
            "datetime.now, uuid4) inside a seeded core package leak host "
            "state into results; simulation time must come from the event "
            "queue and identifiers from seeded counters so runs replay "
            "bit-identically."
        ),
        bad="deadline = time.time() + flow.ttl",
        good="deadline = sim.now + flow.ttl  # event-queue clock",
    ),
    "REP004": RuleDoc(
        rationale=(
            "Iterating a set or a dict .keys() view yields elements in "
            "hash/insertion order, which PYTHONHASHSEED and code-path "
            "history randomise between runs; any float accumulation or "
            "ordered output built from the iteration is run-dependent.  "
            "sum() and math.fsum() over such an expression count as "
            "iteration: float addition is not associative, so the total "
            "changes bitwise with the order.  sorted() makes the traversal "
            "a pure function of the contents.  Known false negative: only "
            "a set / .keys() expression spelled at the loop or sum is seen; "
            "an unordered collection that reaches it through a name "
            "(active = set(xs) ... for flow in active) is not."
        ),
        bad="for flow in set(active_flows):\n    total += flow.demand",
        good="for flow in sorted(set(active_flows), key=lambda f: f.flow_id):\n    total += flow.demand",
    ),
    "REP005": RuleDoc(
        rationale=(
            "Exact ==/!= between floats in library code encodes an "
            "accident of rounding: the comparison flips when an upstream "
            "computation is legitimately reordered (vectorised, fused), "
            "turning a bit-identity refactor into a behaviour change.  "
            "Compare against a tolerance, or restructure to avoid the "
            "comparison."
        ),
        bad="if remaining == 0.0:\n    release(link)",
        good="if abs(remaining) < 1e-12:\n    release(link)",
    ),
    "REP006": RuleDoc(
        rationale=(
            "A mutable default ([], {}, set()) is evaluated once at def "
            "time and shared by every call, so state leaks across "
            "invocations — and across workers that fork after the first "
            "call populated it."
        ),
        bad="def collect(results=[]):\n    results.append(...)",
        good="def collect(results=None):\n    results = [] if results is None else results",
    ),
    "REP007": RuleDoc(
        rationale=(
            "assert statements are stripped under python -O, so an "
            "invariant guarded only by assert silently stops being "
            "checked in optimised runs; library code raises a structured "
            "exception (or routes through repro.analysis.invariants.check) "
            "instead."
        ),
        bad="assert state.load >= 0, 'negative load'",
        good="if state.load < 0:\n    raise InvariantViolation('negative load', context=...)",
    ),
    "REP008": RuleDoc(
        rationale=(
            "A waiver naming a rule id that does not exist suppresses "
            "nothing and usually means a typo (REP004 vs REP040) — the "
            "finding it was meant to silence is still live or the waiver "
            "is dead weight; unknown ids are reported so waivers stay "
            "honest."
        ),
        # NB: examples concatenated so this file's own source lines do
        # not match the line-based waiver regex.
        bad="# repro: " + "allow[REP040] keys are disjoint\nbuf.fill(0)",
        good="# repro: " + "allow[REP004] keys are disjoint\nbuf.fill(0)",
    ),
}


def render_explanation(rule: str) -> str:
    """Full text block for one rule id; raises KeyError for unknown ids."""
    rule = rule.upper()
    if rule not in RULE_DOCS or rule not in RULES:
        known = ", ".join(sorted(set(RULES) | set(RULE_DOCS)))
        raise KeyError(f"unknown rule {rule!r}; known rules: {known}")
    doc = RULE_DOCS[rule]
    out = [
        f"{rule}: {RULES[rule]}",
        "",
        "Why",
        "---",
        doc.rationale,
        "",
        "Bad",
        "---",
        doc.bad,
        "",
        "Good",
        "----",
        doc.good,
        "",
        f"Waive a confirmed-safe site with: # repro: allow[{rule}] <justification>",
    ]
    return "\n".join(out)
