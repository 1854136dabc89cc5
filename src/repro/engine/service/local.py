"""Local transports: a shared thread pool and a persistent process pool.

Both keep their executor alive across batches (created lazily on the
first batch, released by :meth:`close`), which removes the per-call
pool start-up and — for processes — keeps each worker's per-process
artifact cache warm between ``explain_many`` calls.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ...circuits.circuit import Circuit
from ...compiler.knowledge import compile_component
from ..base import EngineOptions, EngineResult
from ..cache import ArtifactCache
from ..registry import get_engine
from ..scheduler import BatchPlan, Job
from ..store import PersistentArtifactStore
from .base import Transport
from .pipeline import PipelineOutcome, run_pipelined, timed_compile

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


def _process_explain(
    engine_name: str,
    circuit: Circuit,
    players: list,
    options: EngineOptions,
    store_dir: str | None,
) -> EngineResult:
    """Top-level body of one :class:`ProcessPoolTransport` task.

    Runs in a pool worker: rebuilds a per-process cache over the shared
    store directory (cache handles are not picklable, so the parent
    ships only the directory path) and dispatches through the registry.
    """
    cache = _worker_cache(store_dir)
    options = options.with_(cache=cache)
    return get_engine(engine_name).explain_circuit(circuit, players, options)


def _process_explain_group(
    engine_name: str,
    requests: list[tuple[Circuit, list, EngineOptions]],
    store_dir: str | None,
) -> list[EngineResult]:
    """Top-level body of one batched :class:`ProcessPoolTransport` task.

    The whole same-shape group runs in one pool worker through the
    engine's ``explain_batch`` — one shared sweep and one task
    round-trip instead of one per answer."""
    cache = _worker_cache(store_dir)
    prepared = [
        (circuit, players, options.with_(cache=cache))
        for circuit, players, options in requests
    ]
    return get_engine(engine_name).explain_batch(prepared)


def _process_compile_component(
    key, store_dir: str | None, budget
) -> tuple[bool, float]:
    """Top-level body of one pipelined component-compile task.

    Runs in a pool worker over the shared store: a published component
    lands in the ``.comp`` store tier, where every other worker's (and
    the parent's) stitch jobs find it.  Returns ``(compiled,
    seconds)``."""
    cache = _worker_cache(store_dir)
    return timed_compile(
        lambda: compile_component(key, cache.component_memo(), budget=budget)
    )


def _explain_group(engine, jobs: list[Job]) -> list[EngineResult]:
    """In-process body of one batched group: engine.explain_batch over
    the group's jobs, results in job order."""
    return engine.explain_batch(
        [(job.circuit, job.players, job.options) for job in jobs]
    )


def _plan_cache(plan: BatchPlan) -> ArtifactCache | None:
    """The session cache a plan's jobs report through, if any."""
    for job in plan.jobs:
        handle = job.options.artifacts
        if handle is not None:
            return handle.cache
        if job.options.cache is not None:
            return job.options.cache
    return None


def _record_pipeline(plan: BatchPlan, outcome: PipelineOutcome) -> None:
    cache = _plan_cache(plan)
    if cache is not None:
        cache.record_pipeline(
            overlap_seconds=outcome.overlap_seconds,
            compiles=outcome.compiles,
            stitches=outcome.stitches,
        )


def _collect(
    futures: dict[Future, Job], outcomes: dict[int, EngineResult]
) -> None:
    """Drain ``futures`` into ``outcomes``; on any failure cancel what
    has not started so an aborted batch never leaks queued work."""
    try:
        for future, job in futures.items():
            outcomes[job.index] = future.result()
    except BaseException:
        for future in futures:
            future.cancel()
        raise


def _collect_groups(
    futures: dict[Future, list[Job]], outcomes: dict[int, EngineResult]
) -> None:
    """Group-wise :func:`_collect`: each future yields one result per
    job of its group, in order."""
    try:
        for future, jobs in futures.items():
            for job, result in zip(jobs, future.result()):
                outcomes[job.index] = result
    except BaseException:
        for future in futures:
            future.cancel()
        raise


class InProcessTransport(Transport):
    """Thread-pool execution against the session's in-memory cache."""

    kind = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-explain",
            )
        return self._pool

    def run_batch(self, plan: BatchPlan) -> dict[int, EngineResult]:
        engine = get_engine(plan.engine)
        pool = self._ensure_pool()
        if plan.pipeline is not None:
            cache = _plan_cache(plan)
            if cache is not None:
                memo = cache.component_memo()
                budget = (
                    plan.warm_wave[0].options.compilation_budget()
                    if plan.warm_wave else None
                )
                outcome = run_pipelined(
                    plan,
                    submit_compile=lambda component: pool.submit(
                        timed_compile,
                        lambda key=component.key: compile_component(
                            key, memo, budget=budget
                        ),
                    ),
                    submit_job=lambda job: pool.submit(
                        engine.explain_circuit,
                        job.circuit, job.players, job.options,
                    ),
                    submit_group=lambda group: pool.submit(
                        _explain_group, engine, group
                    ),
                    # Leave one pool slot for execution-ready work so
                    # the compile backlog cannot monopolize the pool.
                    max_inflight_compiles=pool._max_workers - 1,
                )
                _record_pipeline(plan, outcome)
                return outcome.outcomes
        outcomes: dict[int, EngineResult] = {}
        # Warm wave first, then the rest: the barrier guarantees every
        # shape's representative populated the cache before its
        # siblings run as hits.
        futures = {
            pool.submit(
                engine.explain_circuit, job.circuit, job.players, job.options
            ): job
            for job in plan.warm_wave
        }
        _collect(futures, outcomes)
        if plan.batched:
            # One pool task per shape group: the engine executes the
            # whole group as a single batched pass.
            group_futures = {
                pool.submit(_explain_group, engine, group): group
                for group in plan.groups
            }
            _collect_groups(group_futures, outcomes)
            return outcomes
        futures = {
            pool.submit(
                engine.explain_circuit, job.circuit, job.players, job.options
            ): job
            for job in plan.main_wave
        }
        _collect(futures, outcomes)
        return outcomes

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


class ProcessPoolTransport(Transport):
    """Persistent :class:`ProcessPoolExecutor` workers over a shared
    persistent store.

    The warm wave runs in the parent (with the session cache, so every
    distinct shape compiles exactly once and — when a store is attached
    — lands on disk before any worker asks for it); the main wave fans
    out to long-lived pool workers that rebuild a cache over the same
    store directory.  Without a store, workers compile independently —
    the pool then only pays off through in-worker shape reuse.
    """

    kind = "process"

    def __init__(
        self, max_workers: int | None = None, store_dir: str | None = None
    ) -> None:
        super().__init__()
        self.max_workers = max_workers
        self.store_dir = store_dir
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
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
        engine = get_engine(plan.engine)
        if plan.pipeline is not None and self.store_dir is not None:
            # Pipelined cold batch: component compiles, stitches, and
            # sibling groups all run in pool workers over the shared
            # store (the store is what propagates compiled artifacts
            # between workers, hence the store_dir guard above).
            pool = self._ensure_pool()
            budget = (
                plan.warm_wave[0].options.compilation_budget()
                if plan.warm_wave else None
            )

            def submit_job(job: Job) -> Future:
                portable = job.portable()
                return pool.submit(
                    _process_explain, plan.engine, portable.circuit,
                    portable.players, portable.options, self.store_dir,
                )

            def submit_group(group: list[Job]) -> Future:
                portables = [job.portable() for job in group]
                return pool.submit(
                    _process_explain_group, plan.engine,
                    [(p.circuit, p.players, p.options) for p in portables],
                    self.store_dir,
                )

            try:
                outcome = run_pipelined(
                    plan,
                    submit_compile=lambda component: pool.submit(
                        _process_compile_component, component.key,
                        self.store_dir, budget,
                    ),
                    submit_job=submit_job,
                    submit_group=submit_group,
                    # Leave one worker for execution-ready work so the
                    # compile backlog cannot monopolize the pool.
                    max_inflight_compiles=pool._max_workers - 1,
                )
            except BrokenProcessPool:
                self._pool = None
                raise
            _record_pipeline(plan, outcome)
            return outcome.outcomes
        outcomes: dict[int, EngineResult] = {}
        for job in plan.warm_wave:
            outcomes[job.index] = engine.explain_circuit(
                job.circuit, job.players, job.options
            )
        if not plan.main_wave:
            return outcomes
        pool = self._ensure_pool()
        try:
            if plan.batched:
                # One pool task per shape group: the worker process
                # runs the group as a single batched engine call.
                group_futures = {}
                for group in plan.groups:
                    portables = [job.portable() for job in group]
                    group_futures[
                        pool.submit(
                            _process_explain_group,
                            plan.engine,
                            [(p.circuit, p.players, p.options)
                             for p in portables],
                            self.store_dir,
                        )
                    ] = group
                _collect_groups(group_futures, outcomes)
                return outcomes
            futures = {}
            for job in plan.main_wave:
                portable = job.portable()
                futures[
                    pool.submit(
                        _process_explain,
                        plan.engine,
                        portable.circuit,
                        portable.players,
                        portable.options,
                        self.store_dir,
                    )
                ] = job
            _collect(futures, outcomes)
        except BrokenProcessPool:
            # A dead worker poisons the whole executor; drop it so the
            # next batch gets a fresh pool instead of failing forever.
            self._pool = None
            raise
        return outcomes

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
