"""Local transports: slot threads in this process, or a persistent
process pool.

Both run every batch through the one pull-loop driver,
:class:`~repro.engine.service.pipeline.PullLoop`, over the plan's
:class:`~repro.engine.scheduler.BatchSchedule`: component compiles,
then each shape's representative once its components have landed,
then the shape's sibling groups.  A batch gets one slot per unit of
width.  The thread transport's slots call the engine directly against
the session's in-memory cache; the process transport's slots each
block on one task of a persistent process pool (created lazily on the
first batch, released by :meth:`close`), which keeps each worker's
per-process artifact cache warm between ``explain_many`` calls.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

from ...circuits.circuit import Circuit
from ...compiler.knowledge import compile_component
from ..base import EngineOptions, EngineResult
from ..cache import ArtifactCache
from ..registry import get_engine
from ..scheduler import BatchPlan, BatchSchedule, Unit
from ..store import PersistentArtifactStore
from .base import Transport
from .pipeline import PullLoop

#: Per-process artifact cache of pool workers, keyed by store directory
#: (None = no persistent store).  Lives for the worker's lifetime so
#: repeated tasks in one worker also get in-memory hits.
_WORKER_CACHES: dict[str | None, ArtifactCache] = {}


def _worker_cache(store_dir: str | None) -> ArtifactCache:
    cache = _WORKER_CACHES.get(store_dir)
    if cache is None:
        store = PersistentArtifactStore(store_dir) if store_dir else None
        cache = ArtifactCache(store=store)
        _WORKER_CACHES[store_dir] = cache
    return cache


def _process_explain_group(
    engine_name: str,
    requests: list[tuple[Circuit, list, EngineOptions]],
    store_dir: str | None,
) -> list[EngineResult]:
    """Top-level body of one :class:`ProcessPoolTransport` task.

    Runs in a pool worker: rebuilds a per-process cache over the shared
    store directory (cache handles are not picklable, so the parent
    ships only the directory path) and runs the unit's jobs through
    the engine's ``explain_batch`` — a same-shape group shares one
    sweep and one task round-trip."""
    cache = _worker_cache(store_dir)
    prepared = [
        (circuit, players, options.with_(cache=cache))
        for circuit, players, options in requests
    ]
    return get_engine(engine_name).explain_batch(prepared)


def _process_compile_component(key, store_dir: str | None, budget) -> bool:
    """Top-level body of one component-compile task.

    Runs in a pool worker over the shared store: a published component
    lands in the ``.comp`` store tier, where every other worker's (and
    the parent's) stitch jobs find it.  Returns whether it compiled
    (a memo or store hit does not)."""
    cache = _worker_cache(store_dir)
    return compile_component(key, cache.component_memo(), budget=budget)


def _plan_cache(plan: BatchPlan) -> ArtifactCache | None:
    """The session cache a plan's jobs report through, if any."""
    for job in plan.jobs():
        handle = job.options.artifacts
        if handle is not None:
            return handle.cache
        if job.options.cache is not None:
            return job.options.cache
    return None


def _run_plan(
    plan: BatchPlan,
    width: int,
    compile_key: Callable[[object], bool],
    explain: Callable[[list[tuple]], list[EngineResult]],
) -> dict[int, EngineResult]:
    """Drive ``plan`` on ``width`` slots: ``compile_key`` compiles one
    component key, ``explain`` runs a unit's ``(circuit, players,
    options)`` requests through ``explain_batch``, results in order."""
    keys = plan.components
    schedule = BatchSchedule(plan.shapes, len(keys))

    def execute(slot, unit: Unit):
        if unit.kind == "compile":
            return compile_key(keys[unit.item])
        jobs = [unit.item] if unit.kind == "rep" else unit.item
        results = explain(
            [(job.circuit, job.players, job.options) for job in jobs])
        return {job.index: result for job, result in zip(jobs, results)}

    loop = PullLoop(schedule, execute)
    loop.run(range(width))
    cache = _plan_cache(plan)
    if cache is not None and keys:
        cache.record_pipeline(
            overlap_seconds=loop.overlap_seconds,
            compiles=loop.compiles,
            stitches=loop.stitches,
        )
    return loop.results


class InProcessTransport(Transport):
    """Slot threads running the engine against the session's in-memory
    cache: ``max_workers`` slots (default as a thread pool's,
    ``min(32, cpus + 4)``) that live for one batch."""

    kind = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        self.max_workers = max_workers

    def run_batch(self, plan: BatchPlan) -> dict[int, EngineResult]:
        engine = get_engine(plan.engine)
        cache = _plan_cache(plan)
        budget = plan.compilation_budget()
        return _run_plan(
            plan,
            self.max_workers or min(32, (os.cpu_count() or 1) + 4),
            lambda key: compile_component(
                key, cache.component_memo(), budget=budget),
            engine.explain_batch,
        )


class ProcessPoolTransport(Transport):
    """Persistent :class:`ProcessPoolExecutor` workers over a shared
    persistent store.

    Component compiles, representatives and sibling groups all run in
    long-lived pool workers that rebuild a cache over the store
    directory; the store is what carries a compiled component or shape
    from one worker to another.  Without a store the session plans no
    component compiles, and a sibling group that lands on another
    worker than its representative recompiles the shape there.
    """

    kind = "process"

    def __init__(
        self, max_workers: int | None = None, store_dir: str | None = None
    ) -> None:
        super().__init__()
        self.max_workers = max_workers
        self.store_dir = store_dir
        self._pool: ProcessPoolExecutor | None = None

    @property
    def width(self) -> int:
        """Pool processes, and slots per batch."""
        return self.max_workers or os.cpu_count() or 1

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.width)
        return self._pool

    def run_batch(self, plan: BatchPlan) -> dict[int, EngineResult]:
        """One batch, resilient to a single pool death.

        A worker process dying (OOM kill, segfault in a native dep)
        poisons the whole executor; the inner handlers already drop the
        poisoned pool, so one retry re-runs the batch on a fresh pool —
        correct because jobs are pure reads over the shared store plus
        idempotent publishes.  A second death in the same batch
        propagates: that is a machine problem, not a transient."""
        try:
            return self._run_batch_once(plan)
        except BrokenProcessPool:
            self._count("pool_restarts")
            return self._run_batch_once(plan)

    def _run_batch_once(self, plan: BatchPlan) -> dict[int, EngineResult]:
        pool = self._ensure_pool()
        budget = plan.compilation_budget()

        def explain(requests: list[tuple]) -> list[EngineResult]:
            # Handles and caches are process-local: workers attach
            # their own over the store directory.
            portable = [
                (circuit, players, options.with_(cache=None, artifacts=None))
                for circuit, players, options in requests
            ]
            return pool.submit(
                _process_explain_group, plan.engine, portable,
                self.store_dir,
            ).result()

        try:
            return _run_plan(
                plan, self.width,
                lambda key: pool.submit(
                    _process_compile_component, key, self.store_dir, budget,
                ).result(),
                explain,
            )
        except BrokenProcessPool:
            # A dead worker poisons the whole executor; drop it so the
            # next batch gets a fresh pool instead of failing forever.
            self._pool = None
            raise

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
