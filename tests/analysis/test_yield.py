"""Yield test of ``repro lint``: every rule must catch a seeded mutation
of code this tree actually has.

The fixture twins in ``tests/analysis/fixtures`` prove each rule fires on
a synthetic module written for it; the self-lint tests prove the real
tree is clean.  Neither shows that a rule would notice the real code
going wrong.  Here each rule gets one *mutation of a real source file*
— copied to ``tmp_path`` under its repo-relative path (the path scopes
REP003/REP005/REP007) and edited by exact-string replacement — and both
passes together must report exactly that rule.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.analysis.flow import analyze_paths
from repro.analysis.linter import FLOW_RULES, RULES, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

ACKTR = "src/repro/rl/acktr.py"

#: The K-FAC overlap site: actor update on the pool, critic update on the
#: calling thread, then the join.
_OVERLAP = """\
            critic_times = _network_update(
                self.policy.critic, self.critic_kfac, noise, dvalues, fused
            )
            actor_times = future.result()
"""
_SUBMIT_ARGS = "self.policy.actor, self.actor_kfac, fisher_grad, dlogits, fused,\n"
_TASK_SIGNATURE = "    fused: bool,\n) -> Tuple[float, float]:\n"
_TASK_PROLOGUE = "    fisher_seconds = 0.0\n    t0 = time.perf_counter()\n"

#: rule -> (file, [(exact old text, new text), ...]).
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
    # Share the trainer's rng into the pooled task and draw from it.
    "REP101": (
        ACKTR,
        [
            (
                _TASK_SIGNATURE,
                "    fused: bool,\n"
                "    rng: Optional[np.random.Generator] = None,\n"
                ") -> Tuple[float, float]:\n",
            ),
            (
                _TASK_PROLOGUE,
                "    if rng is not None:\n"
                "        loss_dout = loss_dout + rng.normal(size=loss_dout.shape)\n"
                + _TASK_PROLOGUE,
            ),
            (_SUBMIT_ARGS, _SUBMIT_ARGS.replace("fused,", "fused, self.rng,")),
        ],
    ),
    # Drop the fork hook that resets the module-level executor.
    "REP102": (
        ACKTR,
        [(
            'if hasattr(os, "register_at_fork"):  # pragma: no branch\n'
            "    os.register_at_fork(after_in_child=_reset_executor_after_fork)\n",
            "",
        )],
    ),
    # Submit both network updates with one buffer the task writes via out=.
    "REP103": (
        ACKTR,
        [
            (
                _TASK_SIGNATURE,
                "    fused: bool,\n"
                "    scratch: Optional[np.ndarray] = None,\n"
                ") -> Tuple[float, float]:\n",
            ),
            (
                _TASK_PROLOGUE,
                "    if scratch is not None:\n"
                "        np.square(loss_dout, out=scratch)\n" + _TASK_PROLOGUE,
            ),
            (_SUBMIT_ARGS, _SUBMIT_ARGS.replace("fused,", "fused, self.scratch,")),
            (
                _OVERLAP,
                "            critic_future = _kfac_executor().submit(\n"
                "                _network_update,\n"
                "                self.policy.critic, self.critic_kfac, noise, dvalues, fused,\n"
                "                self.scratch,\n"
                "            )\n"
                "            critic_times = critic_future.result()\n"
                "            actor_times = future.result()\n",
            ),
        ],
    ),
    "REP104": (
        "src/repro/sim/metrics.py",
        [(
            "sum(self._delays) / len(self._delays) if self._delays else None",
            "sum(set(self._delays)) / len(self._delays) if self._delays else None",
        )],
    ),
    # In-place write to an array the in-flight actor task holds.
    "REP105": (ACKTR, [(_OVERLAP, "            dlogits *= 2.0\n" + _OVERLAP)]),
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
    findings = lint_paths([tmp_path], root=tmp_path)
    findings += analyze_paths([tmp_path], root=tmp_path)
    return sorted({f.rule for f in findings})


def test_every_rule_has_a_mutation():
    # REP008 polices waiver comments, not code: its yield is pinned by
    # tests/analysis/test_lint_cli.py::TestUnknownWaiverRule.
    assert set(MUTATIONS) == (set(RULES) - {"REP008"}) | set(FLOW_RULES)


@pytest.mark.parametrize("rule", sorted(MUTATIONS))
def test_rule_catches_a_mutation_of_real_code(rule, tmp_path):
    rel, edits = MUTATIONS[rule]
    _mutated_copy(tmp_path, rel, edits)
    assert _rules_reported(tmp_path) == [rule]


@pytest.mark.parametrize("rel", sorted({rel for rel, _ in MUTATIONS.values()}))
def test_unmutated_copy_is_silent(rel, tmp_path):
    """Control: the findings above come from the edits, not from lifting
    one file out of the program."""
    _mutated_copy(tmp_path, rel, [])
    assert _rules_reported(tmp_path) == []
