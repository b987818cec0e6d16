"""Runtime checks of the repo's determinism guarantees.

:mod:`repro.analysis.invariants` is a runtime sanitizer:
``REPRO_CHECK_INVARIANTS=1`` routes simulator/state invariants
(event-time monotonicity, capacity conservation, flow accounting,
event-queue live-count consistency) through :func:`check`, raising
:class:`InvariantViolation` with structured context.  The sanitizer
observes and never perturbs: a seeded run with it enabled is
bit-identical to one without.  The static determinism linter is a
development tool outside the package (``tools/lint.py``).
"""

from repro.analysis.invariants import (
    InvariantViolation,
    check,
    invariants_enabled,
)

__all__ = [
    "InvariantViolation",
    "check",
    "invariants_enabled",
]
