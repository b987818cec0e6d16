"""The call-count ratchet: exact cost counts of the deployed decision.

``tools/count.py`` counts the Python and C calls ``sys.setprofile`` sees
over one short, fixed coordinate run per workload (the committed
checkpoint, eval seed 0, the horizon in ``tools.count.HORIZONS``).  The
host cannot move these numbers, so they are pinned exactly: a change
that lowers a count lowers its pin in the same diff, and one that raises
a count fails here until its pin is raised, with the reason stated in
CHANGES.md.  The counts include numpy's Python-level wrappers and the
interpreter's own calls, so they are pinned for one interpreter and one
numpy (CPython 3.11, as CI runs, with numpy 2.4) and skipped elsewhere.
"""

from __future__ import annotations

import platform
import sys

import numpy as np
import pytest

from tools.count import Counts, count_calls

#: (decisions, Python calls, C calls) per counted run.
PINNED = {
    "coordinate_abilene": Counts(1108, 40949, 43108),
    "coordinate_interroute_churn": Counts(2413, 68171, 79885),
}

_RUNTIME = (
    platform.python_implementation(),
    sys.version_info[:2],
    tuple(int(part) for part in np.__version__.split(".")[:2]),
)


@pytest.fixture(autouse=True)
def _no_sanitizer(monkeypatch):
    # The invariant sweep would count its own checks.
    monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)


@pytest.mark.skipif(
    _RUNTIME != ("CPython", (3, 11), (2, 4)),
    reason=f"counts pinned on CPython 3.11 with numpy 2.4, not {_RUNTIME}",
)
@pytest.mark.parametrize("name", sorted(PINNED))
def test_counts_equal_their_pins(name):
    assert count_calls(name) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_two_runs_count_alike(name):
    assert count_calls(name) == count_calls(name)


def test_an_unknown_workload_is_refused():
    with pytest.raises(ValueError, match="unknown workload"):
        count_calls("coordinate_nowhere")
