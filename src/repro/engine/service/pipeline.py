"""The one pull-loop driver every transport runs a batch through.

:class:`PullLoop` drives a :class:`~repro.engine.scheduler.BatchSchedule`
with one thread per *slot* — a pool width's worth of local slots, or
one live socket worker each.  Every slot thread repeats
``take → execute(slot, unit) → finish`` until the schedule is done:
component compiles first (in the plan's critical-path order), a shape's
representative once the components it needs have landed, its sibling
units once the representative has finished — while other shapes are
still compiling.  The transports only supply ``execute``: the thread
transport calls the engine, the process transport blocks on its pool's
future, the coordinator sends one wire op.

The schedule is touched only under the loop's condition, and
``execute`` always runs outside it, so a transport may take its own
locks there (the coordinator discards dead workers from ``execute``;
the REP004 lock-order graph gains no edge).

Determinism: the loop orders *wall-clock* only.  Component compiles
are byte-identical to the ones a representative would have performed
inline (see :func:`~repro.compiler.knowledge.compile_component`),
publishes are idempotent, and every shape runs its representative
before its siblings — so Fractions are byte-identical to per-answer
execution.

Failure semantics: a compile that raises is finished anyway — the
owning shape's representative then compiles the component inline and
reports per-answer status.  A representative or sibling unit that
raises aborts the batch: the slots stop taking units and
:meth:`PullLoop.run` re-raises the error.  :class:`LostSlot` instead
requeues the unit and retires only its slot, for a survivor to run.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Mapping, Sequence

from ..base import EngineResult
from ..scheduler import BatchSchedule, Unit

Span = tuple[float, float]


def merge_intervals(spans: Sequence[Span]) -> list[Span]:
    """Union of possibly-overlapping ``(start, end)`` intervals, as a
    sorted list of disjoint intervals.  Empty/inverted spans are
    dropped."""
    merged: list[list[float]] = []
    for start, end in sorted(spans):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def interval_overlap(a: Sequence[Span], b: Sequence[Span]) -> float:
    """Seconds during which *any* interval of ``a`` overlaps *any*
    interval of ``b`` — the union-interval intersection measure.

    This is the honest definition of ``pipeline_overlap_seconds``:
    double-counting parallel compiles or parallel executions would
    inflate the stat, so both sides are unioned first.
    """
    left = merge_intervals(a)
    right = merge_intervals(b)
    total = 0.0
    i = j = 0
    while i < len(left) and j < len(right):
        low = max(left[i][0], right[j][0])
        high = min(left[i][1], right[j][1])
        if high > low:
            total += high - low
        if left[i][1] <= right[j][1]:
            i += 1
        else:
            j += 1
    return total


def deadline_for(
    base: float | None,
    budget_seconds: float | None = None,
    items: int = 1,
) -> float | None:
    """Scale a per-op deadline to the work an op actually covers.

    ``base`` is the fleet's single-op deadline (``None`` = no deadline,
    which passes through).  Compile ops may legitimately run for their
    whole compilation ``budget_seconds``, and a ``task_group`` covers
    ``items`` answers in one round-trip — a flat deadline would declare
    healthy-but-busy workers dead.  The result is never below ``base``:
    the deadline exists to catch *hung* links, not slow work.
    """
    if base is None:
        return None
    deadline = base * max(1, items)
    if budget_seconds is not None and budget_seconds > 0:
        deadline = max(deadline, base + budget_seconds)
    return max(base, deadline)


class LostSlot(Exception):
    """Raised by ``execute`` when its slot can run no more units (a
    socket worker's link died): the unit goes back to the schedule
    and the slot retires."""


class PullLoop:
    """Drive one :class:`~repro.engine.scheduler.BatchSchedule` with
    one thread per slot.

    ``execute(slot, unit)`` runs one unit: a compile unit returns
    whether it compiled anything (memo and store hits return false),
    a representative or sibling unit returns ``{job index: result}``.
    The loop measures every unit's span and keeps the batch's
    counters: ``compiles`` (standalone component compiles),
    ``stitches`` (representatives that waited on compiles) and
    :attr:`overlap_seconds`.  :meth:`run` may be called again with
    fresh slots while the schedule is not done (the coordinator does,
    over the workers that survived).
    """

    def __init__(
        self,
        schedule: BatchSchedule,
        execute: Callable[[object, Unit], bool | Mapping[int, EngineResult]],
    ) -> None:
        self.schedule = schedule
        self.execute = execute
        self.results: dict[int, EngineResult] = {}
        self.compiles = 0
        self.stitches = 0
        self._compile_spans: list[Span] = []
        self._execute_spans: list[Span] = []
        self._cond = threading.Condition()
        self._error: BaseException | None = None

    @property
    def overlap_seconds(self) -> float:
        """Seconds during which a compile ran while a representative
        or sibling unit ran (see :func:`interval_overlap`)."""
        return interval_overlap(self._compile_spans, self._execute_spans)

    def run(self, slots: Iterable[object]) -> None:
        """Pull until the schedule is done or every slot retired;
        re-raises the error of a failed representative or sibling
        unit."""
        threads = [
            threading.Thread(target=self._pull, args=(slot,),
                             name="repro-slot", daemon=True)
            for slot in slots
        ]
        self.schedule.width = len(threads)  # no slot thread runs yet
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self._error is not None:
            raise self._error

    def _pull(self, slot: object) -> None:
        schedule = self.schedule
        while True:
            with self._cond:
                while True:
                    if self._error is not None:
                        return
                    unit = schedule.take()
                    if unit is not None:
                        break
                    if not schedule.running:
                        return  # nothing queued, nothing running: done
                    self._cond.wait()
            started = time.perf_counter()
            try:
                outcome = self.execute(slot, unit)
            except LostSlot:
                with self._cond:
                    schedule.requeue(unit)
                    self._cond.notify_all()
                return
            except BaseException as error:
                if unit.kind != "compile" or not isinstance(error, Exception):
                    with self._cond:
                        self._error = self._error or error  # the first
                        self._cond.notify_all()
                    return
                outcome = False  # the representative compiles inline
            finished = time.perf_counter()
            with self._cond:
                if unit.kind == "compile":
                    self._compile_spans.append((started, finished))
                    self.compiles += bool(outcome)
                else:
                    self._execute_spans.append((started, finished))
                    self.results.update(outcome)
                    self.stitches += unit.gated
                schedule.finish(unit)
                self._cond.notify_all()
