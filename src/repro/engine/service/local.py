"""Local transports: a shared thread pool and a persistent process pool.

Both run every batch through one schedule,
:func:`~repro.engine.service.pipeline.run_pipelined`: component
compiles, then each shape's representative once its components have
landed, then the shape's sibling groups.  Both keep their executor
alive across batches (created lazily on the first batch, released by
:meth:`close`), which removes the per-call pool start-up and — for
processes — keeps each worker's per-process artifact cache warm
between ``explain_many`` calls.
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
    """Top-level body of one component-compile task.

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
    if cache is not None and plan.pipeline is not None:
        cache.record_pipeline(
            overlap_seconds=outcome.overlap_seconds,
            compiles=outcome.compiles,
            stitches=outcome.stitches,
        )


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
        cache = _plan_cache(plan)
        budget = plan.compilation_budget()
        outcome = run_pipelined(
            plan,
            submit_compile=lambda component: pool.submit(
                timed_compile,
                lambda key=component.key: compile_component(
                    key, cache.component_memo(), budget=budget
                ),
            ),
            submit_job=lambda job: pool.submit(
                engine.explain_circuit, job.circuit, job.players, job.options,
            ),
            submit_group=lambda group: pool.submit(
                _explain_group, engine, group
            ),
            # Leave one pool slot for execution-ready work so the
            # compile backlog cannot monopolize the pool.
            max_inflight_compiles=pool._max_workers - 1,
        )
        _record_pipeline(plan, outcome)
        return outcome.outcomes

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


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
        pool = self._ensure_pool()
        budget = plan.compilation_budget()

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
            # A dead worker poisons the whole executor; drop it so the
            # next batch gets a fresh pool instead of failing forever.
            self._pool = None
            raise
        _record_pipeline(plan, outcome)
        return outcome.outcomes

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
