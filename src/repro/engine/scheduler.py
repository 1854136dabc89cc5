"""Pure scheduling logic for batched explanation.

Extracted from :class:`~repro.engine.session.ExplainSession` so that the
decisions — which answers share a lineage shape, which job represents
each shape, and which canonical components the batch must compile —
are plain data transformations, unit-testable without a database, an
executor, or a socket.  The session builds :class:`Job` objects
(binding an answer to its circuit, player list, and per-answer
options), hands them to :func:`plan_batch`, and passes the resulting
:class:`BatchPlan` to a transport (:mod:`repro.engine.service`).

Every transport runs one schedule over the plan's dependency DAG,
held by :class:`BatchSchedule`: distinct component compiles first,
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
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

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

    def portable(self) -> "Job":
        """A copy safe to ship to another process or host.

        The in-memory cache and canonicalization handle are process-
        local (and unpicklable), so they are stripped — remote workers
        attach their own cache — and the signature is replaced by its
        stable hex digest, which is all placement needs.
        """
        signature = (
            self.signature
            if self.signature is None or isinstance(self.signature, str)
            else self._digest()
        )
        return replace(
            self,
            options=self.options.with_(cache=None, artifacts=None),
            signature=signature,
        )

    def affinity(self) -> str:
        """The shape key: jobs with equal keys share a representative."""
        if self.signature is None:
            return f"job:{self.index}"
        if isinstance(self.signature, str):
            return self.signature
        return self._digest()

    def _digest(self) -> str:
        """The signature's digest, hashed once by the job's handle (the
        same one its store files are named by) when it has one."""
        handle = self.options.artifacts
        if handle is not None:
            return handle.digest
        from .store import signature_digest  # local import: avoid cycle

        return signature_digest(self.signature)


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


@dataclass(frozen=True)
class ComponentJob:
    """One fleet-deduplicated component compile of the pipeline pass.

    ``key`` is the canonical clause set (the :mod:`compiler.knowledge`
    memo key) and ``shapes`` the affinity digests of every shape in
    this batch that stitches it.
    """

    key: object
    shapes: tuple[str, ...]


@dataclass
class PipelinePlan:
    """The compile units of a batch's dependency DAG.

    ``components`` holds each distinct canonical component exactly once,
    in dispatch order (critical-path-first: components of the most
    expensive shapes, largest first).  ``needs`` maps a shape's affinity
    digest to the indexes (into ``components``) it must have compiled
    before its stitch job is pure stitching; shapes absent from
    ``needs`` (warm, or too small to memoize) have no compile
    dependencies and may dispatch immediately.
    """

    components: list[ComponentJob]
    needs: dict[str, tuple[int, ...]] = field(default_factory=dict)


def artifact_component_planner(kind: str = "tape") -> Callable[["Job"], object]:
    """Build the ``component_planner`` callback for cache-using engines.

    The returned closure inspects a shape representative's artifact
    handle (duck-typed; see
    :meth:`~repro.engine.cache.CircuitArtifacts.component_plan`): warm
    shapes — ``kind`` artifact already in memory or on disk — plan no
    compiles, cold shapes plan their distinct canonical components.
    Planning failures degrade to "no plan" rather than aborting the
    batch: the shape's representative then compiles inline.
    """

    def planner(job: "Job") -> object:
        handle = getattr(job.options, "artifacts", None)
        if handle is None:
            return None
        try:
            if handle.is_warm(kind):
                return None
            return handle.component_plan()
        except Exception:
            return None

    return planner


@dataclass
class BatchPlan:
    """The execution plan of one ``explain_many`` batch.

    ``jobs`` is every job in answer order; ``warm_wave`` holds one
    representative per distinct shape (empty when ``deduplicated`` is
    false — sampling engines have nothing to warm), ``main_wave`` the
    rest.  Transports honour one ordering constraint: a shape's
    main-wave jobs start only after its representative has finished.
    """

    engine: str
    jobs: list[Job]
    warm_wave: list[Job]
    main_wave: list[Job]
    n_shapes: int
    deduplicated: bool
    #: Main-wave jobs grouped by shape, in first-occurrence order
    #: (the unit of batched execution when ``batched`` is true; empty
    #: groups are never emitted).  Only meaningful when deduplicated.
    groups: list[list[Job]] = None  # type: ignore[assignment]
    #: Whether transports should execute ``groups`` as whole-shape
    #: batched calls instead of one call per main-wave job.
    batched: bool = False
    #: The batch's component compiles and the shapes gated on them, or
    #: ``None`` when the DAG has no compile units (warm batches,
    #: sampling engines, shapes too small to memoize).
    pipeline: "PipelinePlan | None" = None

    def __post_init__(self) -> None:
        if self.groups is None:
            self.groups = [[job] for job in self.main_wave]

    def compilation_budget(self):
        """The budget of the batch's component compiles (the
        representatives' options carry it)."""
        if not self.warm_wave:
            return None
        return self.warm_wave[0].options.compilation_budget()

    def shapes(self) -> list[tuple[Job | None, list[list[Job]]]]:
        """Each shape's representative with its groups, in
        first-occurrence order.

        Without deduplication every group is a shape of its own, with
        no representative (``None``).  Otherwise a shape's groups are
        the consecutive ``groups`` whose jobs share its signature
        (:func:`plan_batch` emits both lists in the same shape order),
        so no digest is hashed here.
        """
        if not self.deduplicated:
            return [(None, [group]) for group in self.groups]
        groups = iter(self.groups)
        pending = next(groups, None)
        shapes: list[tuple[Job | None, list[list[Job]]]] = []
        for rep in self.warm_wave:
            tails = []
            while (pending is not None and rep.signature is not None
                   and pending[0].signature == rep.signature):
                tails.append(pending)
                pending = next(groups, None)
            shapes.append((rep, tails))
        return shapes


def plan_pipeline(
    warm_wave: Sequence[Job],
    component_planner: Callable[[Job], object],
) -> PipelinePlan | None:
    """Plan the fleet-wide one-pass component compile for a batch.

    Calls ``component_planner`` on each shape representative (``None``
    or an empty plan means the shape is warm or has nothing memoizable),
    dedupes the canonical component keys across *all* shapes, and
    orders the distinct compiles critical-path-first: components owned
    by the costliest shape go first (so the longest stitch chain starts
    as early as possible), ties broken by own cost descending, then by
    key — fully deterministic.  Returns ``None`` when no shape plans
    any component.
    """
    owners: dict[object, list[str]] = {}
    shape_keys: dict[str, list[object]] = {}
    for rep in warm_wave:
        keys = component_planner(rep)
        if not keys:
            continue
        affinity = rep.affinity()
        if affinity in shape_keys:
            continue
        shape_keys[affinity] = list(keys)
        for key in keys:
            owned = owners.setdefault(key, [])
            if affinity not in owned:
                owned.append(affinity)
    if not owners:
        return None
    costs = {key: estimate_compile_cost(key) for key in owners}
    shape_cost = {
        affinity: sum(costs[key] for key in keys)
        for affinity, keys in shape_keys.items()
    }
    ordered = sorted(
        owners,
        key=lambda key: (
            -max(shape_cost[affinity] for affinity in owners[key]),
            -costs[key],
            key,
        ),
    )
    components = [ComponentJob(key, tuple(owners[key])) for key in ordered]
    position = {job.key: index for index, job in enumerate(components)}
    needs = {
        affinity: tuple(sorted(position[key] for key in keys))
        for affinity, keys in shape_keys.items()
    }
    return PipelinePlan(components, needs)


def plan_batch(
    engine: str, jobs: Sequence[Job], deduplicate: bool,
    batch: bool = False,
    component_planner: Callable[[Job], object] | None = None,
) -> BatchPlan:
    """Group ``jobs`` by canonical shape and pick each representative.

    With ``deduplicate`` false (engines that never touch the cache)
    every job is its own shape, with no representative.  Jobs whose
    ``signature`` is ``None`` never share a group even when
    deduplicating — an unknown shape must not alias another.

    With ``batch`` true (engines whose ``supports_batch`` is set), the
    plan additionally carries the main wave as same-shape *groups*:
    transports then execute each group as one batched engine call.
    Each shape's representative still runs first and alone, so
    compile-once/store invariants hold batched or not.

    With a ``component_planner`` (see :func:`artifact_component_planner`
    and :func:`plan_pipeline`), the plan also carries the batch's
    component compiles in :attr:`BatchPlan.pipeline` — ``None`` when
    every shape turns out warm.
    """
    jobs = list(jobs)
    if not deduplicate:
        return BatchPlan(engine, jobs, [], list(jobs), len(jobs), False)
    groups: dict[object, list[Job]] = {}
    for job in jobs:
        key = job.signature if job.signature is not None else ("\0job", job.index)
        groups.setdefault(key, []).append(job)
    warm_wave = [group[0] for group in groups.values()]
    main_wave = [job for group in groups.values() for job in group[1:]]
    shape_groups = [group[1:] for group in groups.values() if group[1:]]
    pipeline = (
        plan_pipeline(warm_wave, component_planner)
        if component_planner is not None
        else None
    )
    return BatchPlan(
        engine, jobs, warm_wave, main_wave, len(groups), True,
        groups=shape_groups if batch else None, batched=batch,
        pipeline=pipeline,
    )


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

    ``shapes`` holds ``(affinity, representative, sibling units)`` per
    shape in first-occurrence order; a ``None`` representative makes
    the sibling units ready at once (engines that do not deduplicate).
    ``needs`` maps an affinity to the component indexes (below
    ``n_components``) its representative waits for; only components
    some shape needs are compiled, in index order — the plan's
    critical-path order.

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
        shapes: Sequence[tuple[object, object, Sequence[object]]],
        needs: Mapping[object, Sequence[int]],
        n_components: int,
        width: int = 1,
    ) -> None:
        self.width = width
        self._reps: list[object] = []
        self._tails: list[Sequence[object]] = []
        self._waiting: dict[int, set[int]] = {}
        self._dependents: dict[int, list[int]] = {}
        self._ready: deque[Unit] = deque()
        for shape, (affinity, rep, siblings) in enumerate(shapes):
            self._reps.append(rep)
            self._tails.append(siblings)
            if rep is None:
                self._ready.extend(
                    Unit("siblings", unit, shape) for unit in siblings)
                continue
            remaining = {
                index for index in needs.get(affinity, ())
                if 0 <= index < n_components
            }
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
