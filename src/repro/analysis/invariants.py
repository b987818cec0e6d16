"""Runtime invariant sanitizer.

Library code must not rely on bare ``assert`` for load-bearing invariants:
``python -O`` strips asserts, silently disabling the very checks that
guard the determinism and conservation properties the repo advertises
(lint rule REP007).  This module provides the replacement:

- :class:`InvariantViolation` — raised when an internal invariant breaks,
  carrying a structured ``context`` dict (flow ids, loads, capacities)
  so failures in long seeded runs are diagnosable from the message alone.
- :func:`check` — ``assert`` with structure: raises on a falsy condition,
  survives ``-O``, and attaches the keyword context.
- :func:`invariants_enabled` — reads ``REPRO_CHECK_INVARIANTS``; when
  truthy, the simulator additionally runs its *expensive* per-event
  invariant sweep (capacity conservation over every node/link, event
  queue live-count recount, flow-accounting cross-checks).  The cheap
  always-on checks do not consult this flag.

The sanitizer only observes: it never draws randomness, never mutates
simulation state, and therefore cannot perturb a seeded run — a run with
``REPRO_CHECK_INVARIANTS=1`` is bit-identical to one without.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

__all__ = ["InvariantViolation", "check", "invariants_enabled"]

_ENV_FLAG = "REPRO_CHECK_INVARIANTS"
_TRUTHY = frozenset({"1", "true", "yes", "on"})


class InvariantViolation(AssertionError):
    """An internal invariant of the simulation/training stack broke.

    Subclasses :class:`AssertionError` so existing ``pytest.raises``
    call sites and property-based tests that expect assertion-style
    failures keep working, while surviving ``python -O``.

    Attributes:
        message: The message without the context.
        context: Structured key/value diagnostics attached at the check
            site (e.g. ``flow_id=…, load=…, capacity=…``).
    """

    def __init__(self, message: str, **context: Any) -> None:
        self.message = message
        self.context: Dict[str, Any] = dict(context)
        if context:
            details = ", ".join(f"{k}={v!r}" for k, v in context.items())
            message = f"{message} [{details}]"
        super().__init__(message)


def check(condition: object, message: str, **context: Any) -> None:
    """Raise :class:`InvariantViolation` when ``condition`` is falsy.

    Unlike ``assert``, this survives ``python -O`` and attaches the
    keyword ``context`` to the raised exception for structured
    diagnostics::

        check(load >= 0, "negative node load", node=node, load=load)
    """
    if not condition:
        raise InvariantViolation(message, **context)


def invariants_enabled(env: Optional[Dict[str, str]] = None) -> bool:
    """True when ``REPRO_CHECK_INVARIANTS`` requests the expensive
    per-event sanitizer sweep (``1``/``true``/``yes``/``on``,
    case-insensitive).  ``env`` overrides ``os.environ`` for tests."""
    source = os.environ if env is None else env
    return source.get(_ENV_FLAG, "").strip().lower() in _TRUTHY
