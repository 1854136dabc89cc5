"""The one batch schedule of the local transports.

:func:`run_pipelined` drives a :class:`~repro.engine.scheduler.BatchPlan`
as a dependency loop:

1. every fleet-deduplicated component compile of ``plan.pipeline`` is
   submitted, in the plan's critical-path order;
2. a shape's representative is submitted the moment the last component
   it needs lands — at once when it needs none (warm shapes, shapes
   too small to memoize, or ``plan.pipeline is None``);
3. the moment a representative lands, the shape's sibling answers
   dispatch down the batched path — while other shapes are still
   compiling.  Groups of shapes without a representative (sampling
   engines, which do not deduplicate) start at once.

The harness is executor-agnostic: callers provide three submit
callbacks (component compile, single job, job group) returning
futures, so the same loop drives a thread pool and a process pool.
One caller thread processes completions — there is no shared mutable
state and therefore no locking (the REP004 lock-order graph gains no
nodes here).

Determinism: the loop orders *wall-clock* only.  Component compiles
are byte-identical to the ones a representative would have performed
inline (see :func:`~repro.compiler.knowledge.compile_component`),
publishes are idempotent, and every shape runs its representative
before its siblings — so Fractions are byte-identical to per-answer
execution.

Failure semantics: a failed component compile (budget, bug) is marked
done anyway — the owning shape's representative then compiles the
component inline and reports per-answer status.  A failed
representative or group future aborts the batch: outstanding futures
are cancelled and the error propagates.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..base import EngineResult
from ..scheduler import BatchPlan, ComponentJob, Job

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


def timed_compile(compile_fn: Callable[[], bool]) -> tuple[bool, float]:
    """Run one component compile and measure it: ``(compiled,
    seconds)``.  The standard body of a compile task; the seconds feed
    ``pipeline_overlap_seconds``."""
    started = time.perf_counter()
    compiled = compile_fn()
    return compiled, time.perf_counter() - started


@dataclass
class PipelineOutcome:
    """What one batch actually did, for the stats plumbing."""

    outcomes: dict[int, EngineResult] = field(default_factory=dict)
    #: Standalone compiles the component pass performed (memo/store
    #: hits excluded).
    compiles: int = 0
    #: Stitch jobs dispatched (shape representatives that had compile
    #: dependencies).
    stitches: int = 0
    #: Union-interval intersection of compile and execute activity.
    overlap_seconds: float = 0.0


def run_pipelined(
    plan: BatchPlan,
    submit_compile: Callable[[ComponentJob], Future],
    submit_job: Callable[[Job], Future],
    submit_group: Callable[[list[Job]], Future],
    max_inflight_compiles: int | None = None,
) -> PipelineOutcome:
    """Drive one batch through the dependency loop.

    ``submit_compile(component)`` must return a future resolving to
    ``(compiled, seconds)`` (see :func:`timed_compile`);
    ``submit_job(job)`` one resolving to an :class:`EngineResult`;
    ``submit_group(jobs)`` one resolving to a list of results in job
    order.  Completions are processed on the calling thread.

    ``max_inflight_compiles`` bounds how many component compiles are
    submitted at once.  Against a FIFO executor this is what makes the
    pipeline actually pipeline: with more components than pool slots,
    submitting every compile up front parks ready stitches behind the
    whole compile backlog — a barrier in disguise.  Transports pass
    ``pool width - 1`` so one slot always drains execution-ready work;
    ``None`` keeps the submit-everything behaviour.
    """
    pipeline = plan.pipeline
    components = pipeline.components if pipeline is not None else []
    needs = pipeline.needs if pipeline is not None else {}
    outcome = PipelineOutcome()
    compile_spans: list[Span] = []
    execute_spans: list[Span] = []

    # Shape bookkeeping: which component indexes each gated shape still
    # waits for, and which shapes wait on each component index.
    waiting: dict[str, set[int]] = {}
    dependents: dict[int, list[str]] = {}
    rep_for: dict[str, Job] = {}
    tails: dict[str, list[list[Job]]] = {}
    for rep in plan.warm_wave:
        rep_for.setdefault(rep.affinity(), rep)
    for group in plan.groups:
        tails.setdefault(group[0].affinity(), []).append(group)
    for affinity, indexes in needs.items():
        if affinity not in rep_for:
            continue
        remaining = set(indexes)
        if not remaining:
            continue
        waiting[affinity] = remaining
        for index in indexes:
            dependents.setdefault(index, []).append(affinity)

    # Completions arrive through a queue (futures' done-callbacks put
    # themselves), so each one costs O(1) however many are in flight.
    pending: dict[Future, tuple] = {}
    completed: queue.SimpleQueue[Future] = queue.SimpleQueue()

    def track(future: Future, tag: tuple) -> None:
        pending[future] = tag
        future.add_done_callback(completed.put)

    def start_rep(affinity: str, gated: bool) -> None:
        rep = rep_for[affinity]
        if gated:
            outcome.stitches += 1
        track(submit_job(rep), ("rep", rep, affinity))

    def start_tails(affinity: str) -> None:
        for group in tails.get(affinity, ()):
            if plan.batched:
                track(submit_group(group), ("group", group))
            else:
                for job in group:
                    track(submit_job(job), ("job", job))

    # Compiles are released in critical-path order through a bounded
    # window (see ``max_inflight_compiles``): the window fills first,
    # then each completion hands its slot to the next queued compile —
    # *after* any stitch it unlocked, so execution-ready work sits
    # ahead of the replacement compile in a FIFO executor's queue.
    compile_backlog = [
        (index, component)
        for index, component in enumerate(components)
        if index in dependents
    ]
    compile_backlog.reverse()  # pop() yields critical-path order
    window = (len(compile_backlog) if max_inflight_compiles is None
              else max(1, max_inflight_compiles))
    inflight_compiles = 0

    def feed_compiles() -> None:
        nonlocal inflight_compiles
        while compile_backlog and inflight_compiles < window:
            index, component = compile_backlog.pop()
            inflight_compiles += 1
            track(submit_compile(component), ("compile", index))

    feed_compiles()
    for rep in plan.warm_wave:
        affinity = rep.affinity()
        if rep_for[affinity] is rep and affinity not in waiting:
            start_rep(affinity, gated=False)
    for affinity in tails:
        if affinity not in rep_for:
            start_tails(affinity)

    try:
        while pending:
            future = completed.get()
            tag = pending.pop(future)
            now = time.perf_counter()
            if tag[0] == "compile":
                _, index = tag
                inflight_compiles -= 1
                try:
                    compiled, seconds = future.result()
                except Exception:
                    # The owning shapes' representatives compile
                    # the component inline and surface the real
                    # error per answer.
                    compiled, seconds = False, 0.0
                if compiled:
                    outcome.compiles += 1
                if seconds > 0.0:
                    compile_spans.append((now - seconds, now))
                for affinity in dependents.get(index, ()):
                    remaining = waiting.get(affinity)
                    if remaining is None:
                        continue
                    remaining.discard(index)
                    if not remaining:
                        del waiting[affinity]
                        start_rep(affinity, gated=True)
                feed_compiles()
            elif tag[0] == "rep":
                _, rep, affinity = tag
                result = future.result()
                outcome.outcomes[rep.index] = result
                seconds = getattr(result, "seconds", 0.0) or 0.0
                if seconds > 0.0:
                    execute_spans.append((now - seconds, now))
                start_tails(affinity)
            elif tag[0] == "group":
                _, group = tag
                results = future.result()
                seconds = 0.0
                for job, result in zip(group, results):
                    outcome.outcomes[job.index] = result
                    seconds += getattr(result, "seconds", 0.0) or 0.0
                if seconds > 0.0:
                    execute_spans.append((now - seconds, now))
            else:  # "job"
                _, job = tag
                result = future.result()
                outcome.outcomes[job.index] = result
                seconds = getattr(result, "seconds", 0.0) or 0.0
                if seconds > 0.0:
                    execute_spans.append((now - seconds, now))
    except BaseException:
        for future in pending:
            future.cancel()
        raise

    outcome.overlap_seconds = interval_overlap(compile_spans, execute_spans)
    return outcome
