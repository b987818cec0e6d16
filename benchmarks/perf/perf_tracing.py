"""Span recorder for the traced replay.

Spans are opened from the harness's own files: ``patched`` swaps a
public method of a layer for a wrapper that times the call, and restores
the original afterwards, so the program carries no tracing code.  A
replay makes up to a million spans, so they are folded into one cell per
name as they close (count, inclusive seconds, self seconds) instead of
being kept one by one.

Self time is a span's duration minus the part of it that child spans
cover.  Because every span's duration is added to its parent's child
total, the self times of all cells plus the root's own self time equal
the root's duration exactly; the root's self time is what the harness
reports as unattributed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

__all__ = ["Cell", "Tracer", "Patch", "patched"]


class Cell:
    """Totals of every span that closed under one name."""

    __slots__ = ("count", "total_s", "self_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Nested-span accounting on one thread.

    ``begin``/``end`` are the primitives; ``wrap`` builds the usual
    wrapper from them.  ``clock`` is injectable so the arithmetic can be
    tested on synthetic times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.cells: Dict[str, Cell] = {}
        #: Seconds covered by child spans, one entry per open span; the
        #: first entry belongs to the root.
        self._covered: List[float] = [0.0]
        self.wall_s = 0.0

    def begin(self) -> float:
        self._covered.append(0.0)
        return self.clock()

    def end(self, name: str, started: float) -> float:
        duration = self.clock() - started
        covered = self._covered.pop()
        cell = self.cells.get(name)
        if cell is None:
            cell = self.cells[name] = Cell()
        cell.count += 1
        cell.total_s += duration
        cell.self_s += duration - covered
        self._covered[-1] += duration
        return duration

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            started = begin()
            try:
                return fn(*args, **kwargs)
            finally:
                end(name, started)

        return traced

    def wrap_iterator(self, name: str, iterator: Iterator[Any]) -> Iterator[Any]:
        """Time each ``next()`` of a lazy producer as one span."""
        begin, end = self.begin, self.end
        while True:
            started = begin()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                end(name, started)
            yield item

    @contextmanager
    def root(self) -> Iterator[None]:
        """The span of the whole traced region; sets :attr:`wall_s`."""
        if len(self._covered) != 1:
            raise RuntimeError("root span opened inside another span")
        self._covered[0] = 0.0
        started = self.clock()
        try:
            yield
        finally:
            self.wall_s = self.clock() - started

    # ------------------------------------------------------------------

    def count(self, name: str) -> int:
        cell = self.cells.get(name)
        return cell.count if cell is not None else 0

    def self_s(self, name: str) -> float:
        cell = self.cells.get(name)
        return cell.self_s if cell is not None else 0.0

    def total_s(self, name: str) -> float:
        cell = self.cells.get(name)
        return cell.total_s if cell is not None else 0.0

    @property
    def attributed_s(self) -> float:
        return sum(cell.self_s for cell in self.cells.values())

    @property
    def unattributed_share(self) -> float:
        """1 - sum of self times / wall: the root span's own share."""
        if self.wall_s <= 0.0:
            return 0.0
        return 1.0 - self.attributed_s / self.wall_s


#: (class, attribute, wrapper factory taking the original callable).
Patch = Tuple[type, str, Callable[[Callable[..., Any]], Callable[..., Any]]]


@contextmanager
def patched(patches: Sequence[Patch]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for the block.

    The attribute must be defined on ``owner`` itself: a layer whose
    entry point moved should break the trace loudly, not silently stop
    being timed.
    """
    saved: List[Tuple[type, str, Any]] = []
    try:
        for owner, attr, make in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
