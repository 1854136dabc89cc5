"""Pure scheduling logic for batched explanation.

Extracted from :class:`~repro.engine.session.ExplainSession` so that the
decisions — which answers share a lineage shape, which job represents
each shape, and which canonical components the batch must compile —
are plain data transformations, unit-testable without a database, an
executor, or a socket.  The session builds :class:`Job` objects
(binding an answer to its circuit, player list, and per-answer
options), hands them to :func:`plan_batch`, and passes the resulting
:class:`BatchPlan` to a transport (:mod:`repro.engine.service`).

A plan is a list of :class:`Shape` s — each shape's representative,
its sibling units and the component compiles the representative
needs — plus the distinct component keys.  That list is the one form a
batch takes on its way to a worker: every transport, and the socket
coordinator on the far side of the wire, builds one
:class:`BatchSchedule` from it: distinct component compiles first,
then each shape's representative once the components it needs have
landed, then the shape's sibling units once the representative has
finished.  The schedule is pure state; the transports' slots pull
from it (:class:`~repro.engine.service.pipeline.PullLoop`).

Scheduling invariants
---------------------
* **Representatives** — for cache-using engines, exactly one job per
  canonical shape (the batch's first occurrence) is its
  representative; every other job of that shape is a guaranteed
  cache/store hit once its representative has run.
* **One compile per component** — :func:`plan_pipeline` dedupes
  canonical components across every cold shape of the batch.
* **Determinism** — planning is pure: same jobs in, same plan out,
  regardless of thread timing or worker arrival order.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

from .base import EngineOptions


@dataclass
class Job:
    """One answer's unit of work: a prepared circuit plus options.

    ``options`` already carries everything answer-specific (the derived
    sampling seed, the canonicalization handle); ``signature`` is the
    canonical structural signature for cache-using engines, ``None``
    for engines that never compile.
    """

    index: int
    answer: tuple
    circuit: object
    players: list
    options: EngineOptions
    signature: object = None


def estimate_compile_cost(key: Sequence) -> float:
    """A priori cost estimate for compiling one canonical component.

    ``key`` is a canonical clause set (tuple of literal tuples).  The
    model is deliberately crude — d-DNNF compile time is exponential in
    the worst case — but it only has to *rank* components: literal
    count times ``log2`` of the variable count tracks the branching
    work of the compiler's divide-and-conquer well enough to put big
    components first.
    """
    n_literals = 0
    variables: set[int] = set()
    for clause in key:
        n_literals += len(clause)
        for lit in clause:
            variables.add(abs(lit))
    return float(n_literals) * max(1.0, math.log2(len(variables) + 1))


def artifact_component_planner() -> Callable[["Job"], object]:
    """Build the ``component_planner`` callback for cache-using engines.

    The returned closure inspects a shape representative's artifact
    handle (duck-typed; see
    :meth:`~repro.engine.cache.CircuitArtifacts.component_plan`): warm
    shapes — d-DNNF or tape already in memory or on disk — plan no
    compiles, cold shapes plan their distinct canonical components.
    Planning failures degrade to "no plan" rather than aborting the
    batch: the shape's representative then compiles inline.
    """

    def planner(job: "Job") -> object:
        handle = getattr(job.options, "artifacts", None)
        if handle is None:
            return None
        try:
            if handle.is_warm():
                return None
            return handle.component_plan()
        except Exception:
            return None

    return planner


class Shape(NamedTuple):
    """One lineage shape of a batch plan.

    ``representative`` runs first and alone (``None`` for engines that
    do not deduplicate); ``units`` are the shape's sibling units, run
    once the representative has finished: one group of every sibling
    when the engine batches, otherwise one single-job unit per job.
    ``needs`` holds the indexes into :attr:`BatchPlan.components` the
    representative waits for.
    """

    representative: Job | None
    units: list[list[Job]]
    needs: tuple[int, ...] = ()


@dataclass
class BatchPlan:
    """The execution plan of one ``explain_many`` batch: its shapes in
    first-occurrence order, and the distinct canonical component keys
    their representatives wait for, in dispatch (critical-path-first)
    order.  Transports honour one ordering constraint: a shape's
    sibling units start only after its representative has finished.
    """

    engine: str
    shapes: list[Shape]
    components: list[object] = field(default_factory=list)

    def jobs(self) -> Iterator[Job]:
        """Every job of the plan, shape by shape, representative first."""
        for rep, units, _ in self.shapes:
            if rep is not None:
                yield rep
            for unit in units:
                yield from unit

    def compilation_budget(self):
        """The budget of the batch's compiles (every job's options
        carry it; the first job's is read)."""
        first = next(self.jobs(), None)
        return None if first is None else first.options.compilation_budget()


def plan_pipeline(
    representatives: Sequence[Job],
    component_planner: Callable[[Job], object],
) -> tuple[list[object], list[tuple[int, ...]]]:
    """Plan the fleet-wide one-pass component compile for a batch.

    Calls ``component_planner`` on each shape representative (``None``
    or an empty plan means the shape is warm or has nothing memoizable),
    dedupes the canonical component keys across *all* shapes, and
    orders the distinct compiles critical-path-first: components owned
    by the costliest shape go first (so the longest stitch chain starts
    as early as possible), ties broken by own cost descending, then by
    key — fully deterministic.  Returns the ordered keys and, per
    representative, the sorted indexes of the keys it needs.
    """
    shape_keys = [list(component_planner(rep) or ()) for rep in representatives]
    owners: dict[object, list[int]] = {}
    for shape, keys in enumerate(shape_keys):
        for key in keys:
            owners.setdefault(key, []).append(shape)
    costs = {key: estimate_compile_cost(key) for key in owners}
    shape_cost = [sum(costs[key] for key in keys) for keys in shape_keys]
    components = sorted(
        owners,
        key=lambda key: (
            -max(shape_cost[shape] for shape in owners[key]),
            -costs[key],
            key,
        ),
    )
    position = {key: index for index, key in enumerate(components)}
    needs = [tuple(sorted(position[key] for key in keys))
             for keys in shape_keys]
    return components, needs


def plan_batch(
    engine: str, jobs: Sequence[Job], deduplicate: bool,
    batch: bool = False,
    component_planner: Callable[[Job], object] | None = None,
) -> BatchPlan:
    """Group ``jobs`` by canonical shape and pick each representative.

    With ``deduplicate`` false (engines that never touch the cache)
    every job is its own shape, with no representative.  Jobs whose
    ``signature`` is ``None`` never share a shape even when
    deduplicating — an unknown shape must not alias another.

    With ``batch`` true (engines whose ``supports_batch`` is set), a
    shape's siblings form one unit that transports execute as one
    batched engine call; otherwise each sibling is a unit of its own.
    Each shape's representative still runs first and alone, so
    compile-once/store invariants hold batched or not.

    With a ``component_planner`` (see :func:`artifact_component_planner`
    and :func:`plan_pipeline`), the plan also carries the batch's
    component compiles — none when every shape turns out warm.
    """
    if not deduplicate:
        return BatchPlan(engine, [Shape(None, [[job]]) for job in jobs])
    groups: dict[object, list[Job]] = {}
    for job in jobs:
        key = job.signature if job.signature is not None else ("\0job", job.index)
        groups.setdefault(key, []).append(job)
    reps = [group[0] for group in groups.values()]
    components, needs = (
        plan_pipeline(reps, component_planner)
        if component_planner is not None
        else ([], [()] * len(reps))
    )
    shapes = [
        Shape(rep, [siblings] if batch and siblings
              else [[job] for job in siblings], shape_needs)
        for (rep, *siblings), shape_needs in zip(groups.values(), needs)
    ]
    return BatchPlan(engine, shapes, components)


@dataclass(frozen=True, eq=False)
class Unit:
    """One piece of work a :class:`BatchSchedule` hands out.

    ``kind`` is ``"compile"`` (``item`` is a component index),
    ``"rep"`` (``item`` is a shape's representative) or ``"siblings"``
    (``item`` is one of the shape's sibling units, whatever the
    transport groups them into).  ``gated`` marks a representative
    that waited on component compiles: a *stitch* job.
    """

    kind: str
    item: object
    shape: int = -1
    gated: bool = False


class BatchSchedule:
    """The dependency state of one batch: which unit may run next.

    ``shapes`` holds ``(representative, sibling units, needs)`` per
    shape in first-occurrence order (a plan's :class:`Shape` list); a
    ``None`` representative makes the sibling units ready at once
    (engines that do not deduplicate).  ``needs`` are the component
    indexes, below ``n_components``, the representative waits for;
    only components some shape needs are compiled, in index order —
    the plan's critical-path order.  An index out of range raises
    :class:`ValueError` (plans also arrive over the wire).

    A representative becomes ready once its components have finished,
    its sibling units once it has finished.  :meth:`take` prefers a
    compile while nothing else is ready or fewer than ``width - 1``
    compiles are running, so one slot of ``width`` stays free for
    ready work.  A failed compile is finished like any other: the
    representative then compiles inline.

    Pure state, no lock and no clock: callers serialize access.
    """

    def __init__(
        self,
        shapes: Sequence[tuple[object, Sequence[object], Sequence[int]]],
        n_components: int,
        width: int = 1,
    ) -> None:
        self.width = width
        self._reps: list[object] = []
        self._tails: list[Sequence[object]] = []
        self._waiting: dict[int, set[int]] = {}
        self._dependents: dict[int, list[int]] = {}
        self._ready: deque[Unit] = deque()
        for shape, (rep, siblings, needs) in enumerate(shapes):
            self._reps.append(rep)
            self._tails.append(siblings)
            if rep is None:
                self._ready.extend(
                    Unit("siblings", unit, shape) for unit in siblings)
                continue
            remaining = set(needs)
            if not all(0 <= index < n_components for index in remaining):
                raise ValueError(
                    f"shape {shape} needs components {sorted(remaining)}, "
                    f"the plan has {n_components}")
            if not remaining:
                self._ready.append(Unit("rep", rep, shape))
                continue
            self._waiting[shape] = remaining
            for index in remaining:
                self._dependents.setdefault(index, []).append(shape)
        self._compiles: deque[Unit] = deque(
            Unit("compile", index) for index in sorted(self._dependents))
        #: Units taken and neither finished nor requeued.
        self.running = 0
        self._compiling = 0

    @property
    def done(self) -> bool:
        """Every unit has finished."""
        return not (self._compiles or self._ready or self.running)

    def take(self) -> Unit | None:
        """The next unit to run, or ``None`` when nothing is ready."""
        if self._compiles and (
                not self._ready or self._compiling < self.width - 1):
            unit = self._compiles.popleft()
            self._compiling += 1
        elif self._ready:
            unit = self._ready.popleft()
        else:
            return None
        self.running += 1
        return unit

    def finish(self, unit: Unit) -> None:
        """Record ``unit`` as done and release what waited on it."""
        self.running -= 1
        if unit.kind == "compile":
            self._compiling -= 1
            for shape in self._dependents[unit.item]:
                remaining = self._waiting[shape]
                remaining.discard(unit.item)
                if not remaining:
                    del self._waiting[shape]
                    self._ready.append(
                        Unit("rep", self._reps[shape], shape, gated=True))
        elif unit.kind == "rep":
            self._ready.extend(
                Unit("siblings", item, unit.shape)
                for item in self._tails[unit.shape])

    def requeue(self, unit: Unit) -> None:
        """Put a taken ``unit`` back at the front of its queue (its
        slot could not run it)."""
        self.running -= 1
        if unit.kind == "compile":
            self._compiling -= 1
            self._compiles.appendleft(unit)
        else:
            self._ready.appendleft(unit)
