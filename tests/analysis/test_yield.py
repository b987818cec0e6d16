"""Yield test of ``repro lint``: every rule must catch a seeded mutation
of code this tree actually has.

The bad/good fixtures in ``test_linter.py`` prove each rule fires on a
synthetic module written for it; the self-lint tests prove the real
tree is clean.  Neither shows that a rule would notice the real code
going wrong.  Here each rule gets at least one *mutation of a real
source file* — copied to ``tmp_path`` under its repo-relative path (the
path scopes REP003/REP005/REP007) and edited by exact-string
replacement — and the linter must report exactly that rule.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.analysis.linter import RULES, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

#: case -> (file, [(exact old text, new text), ...]); the rule a case
#: must trigger is its id up to the first "-".
MUTATIONS: Dict[str, Tuple[str, List[Tuple[str, str]]]] = {
    "REP001": (
        "src/repro/traffic/arrival.py",
        [(
            "        self.mean_interval = mean_interval\n"
            "        self._rng = np.random.default_rng(rng)\n",
            "        self.mean_interval = mean_interval\n"
            "        self._rng = np.random.default_rng()\n",
        )],
    ),
    "REP002": (
        "src/repro/nn/init.py",
        [("    flat = rng.normal(size=", "    flat = np.random.normal(size=")],
    ),
    "REP003": (
        "src/repro/sim/simulator.py",
        [(
            "wall_start = _time.perf_counter() if recorder.enabled else 0.0",
            "wall_start = _time.time() if recorder.enabled else 0.0",
        )],
    ),
    "REP004": (
        "src/repro/sim/simulator.py",
        [(
            "for flow_id in sorted(self._allocations):",
            "for flow_id in self._allocations.keys():",
        )],
    ),
    "REP005": (
        "src/repro/traffic/flows.py",
        [(
            "        return self.remaining_time(now) <= 0.0\n",
            "        return self.remaining_time(now) == 0.0\n",
        )],
    ),
    "REP006": (
        "src/repro/parallel/pool.py",
        [(
            "    labels: Optional[Sequence[str]] = None,\n",
            "    labels: Sequence[str] = [],\n",
        )],
    ),
    "REP007": (
        "src/repro/sim/metrics.py",
        [(
            "        if self.phase_boundaries is None:\n"
            '            raise InvariantViolation("phase classification without boundaries")\n',
            "        assert self.phase_boundaries is not None\n",
        )],
    ),
    # A float sum over a set: the order, and so the total, follows hashing.
    "REP004-sum": (
        "src/repro/sim/metrics.py",
        [(
            "sum(self._delays) / len(self._delays) if self._delays else None",
            "sum(set(self._delays)) / len(self._delays) if self._delays else None",
        )],
    ),
}


def _mutated_copy(tmp_path: Path, rel: str, edits: List[Tuple[str, str]]) -> None:
    source = (REPO_ROOT / rel).read_text(encoding="utf-8")
    for old, new in edits:
        assert source.count(old) == 1, f"mutation anchor not unique in {rel}: {old!r}"
        source = source.replace(old, new)
    compile(source, rel, "exec")  # the mutant is still a valid module
    target = tmp_path / rel
    target.parent.mkdir(parents=True)
    target.write_text(source, encoding="utf-8")


def _rules_reported(tmp_path: Path) -> List[str]:
    return sorted({f.rule for f in lint_paths([tmp_path], root=tmp_path)})


def _rule(case: str) -> str:
    return case.split("-", 1)[0]


def test_every_rule_has_a_mutation():
    # REP008 polices waiver comments, not code: its yield is pinned by
    # tests/analysis/test_lint_cli.py::TestUnknownWaiverRule.
    assert {_rule(case) for case in MUTATIONS} == set(RULES) - {"REP008"}


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_rule_catches_a_mutation_of_real_code(case, tmp_path):
    rel, edits = MUTATIONS[case]
    _mutated_copy(tmp_path, rel, edits)
    assert _rules_reported(tmp_path) == [_rule(case)]


@pytest.mark.parametrize("rel", sorted({rel for rel, _ in MUTATIONS.values()}))
def test_unmutated_copy_is_silent(rel, tmp_path):
    """Control: the findings above come from the edits, not from lifting
    one file out of the program."""
    _mutated_copy(tmp_path, rel, [])
    assert _rules_reported(tmp_path) == []
