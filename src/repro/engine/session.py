"""Batched explanation sessions: a thin facade over scheduler + service.

:meth:`ExplainSession.explain_many` is the multi-answer counterpart of
:func:`repro.core.attribution.attribute`: it computes the query's
lineage once, opens each answer's circuit against the shared
:class:`~repro.engine.cache.ArtifactCache` (one canonicalization pass
per answer, whose :class:`~repro.engine.cache.CircuitArtifacts` handle
is threaded through to the engine), answers on the client every
exact job whose shape an earlier batch published
Shapley values for, and hands the remaining jobs to the
scheduler/service layer: :func:`~repro.engine.scheduler.plan_batch`
groups answers by canonical shape, picks one representative per shape
and plans the batch's distinct component compiles, and a
:class:`~repro.engine.service.Transport` executes the plan.  Every
transport runs the same schedule, a
:class:`~repro.engine.scheduler.BatchSchedule` pulled by one slot per
unit of pool width or per socket worker: component compiles, then each
representative once its components have landed, then its shape's
sibling groups.  After the batch, each swept shape publishes its
values on its cache entry once, so reuse is scoped to later batches
without any per-batch bookkeeping in the transports.  Per-tuple
budget/timeout outcomes are preserved: each answer gets its own
:class:`~repro.engine.base.EngineResult` with its own status, exactly
as the per-answer path reports them.

The session remembers, per normalized plan (the output of
:func:`~repro.core.pipeline.to_plan`), the query's
:class:`~repro.db.evaluate.LineageResult` and each requested answer's
circuit and canonical form, together with the versions
(:meth:`~repro.db.database.Database.version`) of the relations the plan
scans.  While those versions hold, a repeated call neither evaluates
the query nor extracts or canonicalizes an answer again: it binds a
fresh handle per answer to its cache slot
(:meth:`~repro.engine.cache.ArtifactCache.bind`) and goes on as above.
Any mutation of a scanned relation, its facts or their endogenous
status, makes the next call evaluate afresh.  The memo is an LRU of
:data:`LINEAGE_MEMO_PLANS` plans; a cache that stores nothing
(``max_entries=0``) keeps no memo, and :meth:`ExplainSession.close`
drops it.

Three executors are supported, all long-lived (created once per
session, reused across ``explain_many`` calls, released by
:meth:`close` or by leaving the session's ``with`` block):

* ``"thread"`` — :class:`~repro.engine.service.InProcessTransport`,
  slot threads sharing the session's in-memory cache;
* ``"process"`` — :class:`~repro.engine.service.ProcessPoolTransport`,
  a *persistent* :class:`~concurrent.futures.ProcessPoolExecutor`
  whose long-lived workers run every unit of the batch, rebuild
  caches over the session store's directory and keep them warm
  between calls;
* ``"socket"`` — :class:`~repro.engine.service.SocketTransport`, a
  client of a ``repro serve`` coordinator handing the batch's units to
  ``repro worker`` processes that share one store directory (pass
  ``coordinator="host:port"``).

By default (``executor=None``) each exact batch picks threads or the
process pool from its shape sizes (:meth:`ExplainSession._choose`):
compilation and Algorithm 1 are pure Python, so threads serialize on
the interpreter lock, and a batch whose unpublished shapes are large
enough to repay shipping its answers to pool children runs there.  The
pool starts with the first such batch and stays for the session.

Determinism: exact results are independent of scheduling (Fractions
from structure); for the sampling engines each answer's RNG seed is
:func:`~repro.engine.base.derive_answer_seed` — a stable hash of
``(options.seed, answer)`` — so batched runs are reproducible regardless
of interleaving or transport, invariant to answer order and subsetting,
and agree with the single-answer path at the same seed.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace
from itertools import chain
from typing import Hashable, Sequence

from ..circuits.circuit import Circuit

from ..core.numerics import coefficients_cache_info
from ..core.pipeline import ExactOutcome, ProvenanceStats, QueryLike, to_plan
from ..db.algebra import Operator, Scan, walk
from ..db.database import Database
from ..db.evaluate import LineageResult, lineage
from ..compiler.knowledge import compile_component
from .base import EngineOptions, EngineResult, derive_answer_seed
from .cache import ArtifactCache
from .registry import get_engine
from .scheduler import BatchPlan, Job, artifact_component_planner, plan_batch
from .service import (
    InProcessTransport,
    ProcessPoolTransport,
    SocketTransport,
    Transport,
)
from .service.local import usable_cpus

#: Executor kinds accepted by :class:`ExplainSession`.
EXECUTORS = ("thread", "process", "socket")

#: Plans whose lineage one session remembers, least recently used
#: first out (and query texts whose parsed plan it remembers).  Under
#: cyclic access an LRU smaller than the cycle misses on every call, so
#: this stays well above a workload's query count (perfbench's
#: imdb-fleet cycles through 8).
LINEAGE_MEMO_PLANS = 32

#: The default executor's break-even, in squared facts: a batch runs on
#: the process pool when the sum of ``facts ** 2`` over its unpublished
#: shapes, less :data:`SHIP_COST` per answer it would ship, exceeds
#: this (pool start-up included).  Calibrated on a 2-vCPU host, cold
#: wall seconds with 2 workers, TPC-H queries at the given scale:
#:
#: ============  ======  =======  =========  =========  ==========
#: query         shapes  answers  sum f**2   thread s   process s
#: ============  ======  =======  =========  =========  ==========
#: Q3 @ 0.01          7    1,250        280  0.27-0.39  0.58-0.65
#: Q10 @ 0.005       14      158        588  0.12-0.13  0.17-0.19
#: Q11 @ 0.005        1      397          4  0.03-0.04  0.08-0.09
#: Q19 @ 0.005        3        3      5,210  0.18       0.19-0.21
#: Q18 @ 0.005      125      727     22,935  0.89-1.16  0.90-1.11
#: Q16 @ 0.002       16       20     23,909  0.36-0.41  0.23-0.24
#: Q16 @ 0.004       21       21     76,904  1.25-1.27  0.56-0.71
#: ============  ======  =======  =========  =========  ==========
#:
#: Q18 and Q16 @ 0.002 have the same sum but different winners, which
#: the answer term separates: 1,125 and 23,309 against 8,000.
POOL_COST = 8_000

#: What shipping one answer to a pool child (and its result back)
#: costs, in the squared facts of :data:`POOL_COST`.
SHIP_COST = 30


def _check_executor(executor: str | None) -> None:
    if executor is not None and executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {EXECUTORS}"
        )


class _Lineage:
    """One plan's lineage on one database, remembered by a session
    while the relations the plan scans keep their versions.

    ``records`` maps each answer requested so far to its lineage
    circuit, its sorted players and, for cache-using engines, its
    :attr:`~repro.engine.cache.CircuitArtifacts.canonical` form and
    each player's position among the canonical labels (what a relabel
    of published values reads): a handle is never kept, since it
    carries per-call state and its cache slot may be evicted or
    cleared.
    """

    __slots__ = ("database", "relations", "versions", "result", "answers",
                 "records")

    def __init__(
        self,
        database: Database,
        relations: tuple[str, ...],
        versions: tuple[int, ...],
        result: LineageResult,
    ) -> None:
        self.database = database
        self.relations = relations
        self.versions = versions
        self.result = result
        self.answers = result.tuples()
        self.records: dict[tuple, tuple] = {}

    def fresh(self, database: Database) -> bool:
        """Whether the entry still describes ``database``."""
        return self.database is database and self.versions == tuple(
            database.version(relation) for relation in self.relations)


class ExplainSession:
    """A database + method + cache bound together for batched work.

    The session is a context manager; transports (pools, worker
    connections) are created lazily, reused across calls, and shut down
    deterministically::

        with ExplainSession(db, executor="process") as session:
            first = session.explain_many(query)       # pool starts here
            second = session.explain_many(query)      # same warm pool
        # pool is gone, even if a batch raised

    Parameters
    ----------
    database:
        The database with its endogenous/exogenous partition.
    method:
        A registered engine name (see
        :func:`~repro.engine.registry.available_engines`).
    options:
        Engine options; the session's cache is injected into them.
    cache:
        Shared :class:`ArtifactCache`.  ``None`` creates a fresh one;
        pass ``ArtifactCache(max_entries=0)`` to measure uncached runs,
        or ``ArtifactCache(store=PersistentArtifactStore(dir))`` to
        share compiled artifacts across processes and runs.
    max_workers:
        Pool width for :meth:`explain_many` (``None`` = executor
        default; local transports only).
    executor:
        ``"thread"``, ``"process"``, or ``"socket"`` — the transport of
        every :meth:`explain_many` call that names none.  ``None`` (the
        default) picks threads or the process pool per batch: the pool
        when the batch's unpublished shapes outweigh shipping its
        answers (:data:`POOL_COST`), threads otherwise, for engines
        other than ``"exact"``, with one usable CPU or with
        ``max_workers=1``.
    coordinator:
        ``"host:port"`` (or a ``(host, port)`` tuple) of a running
        coordinator; required for the ``"socket"`` executor.
    min_workers:
        Socket executor only: have the coordinator hold each batch
        until at least this many workers registered.
    op_timeout / batch_timeout / retries / degrade / connect_retry_for:
        Socket executor resilience knobs, passed through to
        :class:`~repro.engine.service.SocketTransport`: per-leg and
        per-batch deadlines, bounded retry with jittered backoff, and
        the ``degrade="local"`` fallback that runs a batch in-process
        (byte-identical Fractions) when the fleet is unreachable.
    """

    def __init__(
        self,
        database: Database,
        method: str = "exact",
        options: EngineOptions | None = None,
        cache: ArtifactCache | None = None,
        max_workers: int | None = None,
        executor: str | None = None,
        coordinator: str | tuple[str, int] | None = None,
        min_workers: int | None = None,
        op_timeout: float | None = 30.0,
        batch_timeout: float | None = 600.0,
        retries: int = 2,
        degrade: str | None = None,
        connect_retry_for: float = 10.0,
    ) -> None:
        _check_executor(executor)
        self.database = database
        self.engine = get_engine(method)
        self.cache = cache if cache is not None else ArtifactCache()
        base = options if options is not None else EngineOptions()
        self.options = base.with_(cache=self.cache)
        self.max_workers = max_workers
        self.executor = executor
        self.coordinator = coordinator
        self.min_workers = min_workers
        self.op_timeout = op_timeout
        self.batch_timeout = batch_timeout
        self.retries = retries
        self.degrade = degrade
        self.connect_retry_for = connect_retry_for
        self._transports: dict[str, Transport] = {}
        self._closed = False
        self._answers_explained = 0
        self._unique_shapes = 0
        self._socket_batches = False
        self._remote_stats: dict[str, int] = {}
        self._remote_workers = 0
        self._lock = threading.Lock()
        self._memo: OrderedDict[Operator, _Lineage] = OrderedDict()
        self._plans: OrderedDict[str, tuple[dict, Operator]] = OrderedDict()
        self._lineage_reuse_hits = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down every transport this session created (idempotent).

        The process pool is joined; the socket transport's
        coordinator and workers live in their own processes and are
        *not* stopped — they are shared infrastructure.
        """
        self._closed = True
        with self._lock:
            self._memo.clear()
            self._plans.clear()
        transports, self._transports = self._transports, {}
        errors = []
        for transport in transports.values():
            try:
                transport.close()
            except Exception as error:  # keep closing the rest
                errors.append(error)
        if errors:
            raise errors[0]

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def transport_kinds(self) -> tuple[str, ...]:
        """The executors this session has started, sorted: under the
        default executor, which of threads and the pool its batches
        ran on."""
        return tuple(sorted(self._transports))

    def __enter__(self) -> "ExplainSession":
        if self._closed:
            raise RuntimeError("session is closed")
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if not self._closed and self._transports:
                self.close()
        except Exception:
            pass

    def _transport(self, kind: str) -> Transport:
        transport = self._transports.get(kind)
        if transport is not None:
            return transport
        if kind == "thread":
            transport = InProcessTransport(self.max_workers)
        elif kind == "process":
            store = self.cache.store
            transport = ProcessPoolTransport(
                self.max_workers,
                str(store.directory) if store is not None else None,
            )
        else:
            if self.coordinator is None:
                raise ValueError(
                    "executor='socket' needs coordinator='host:port'"
                )
            transport = SocketTransport(
                self.coordinator,
                min_workers=self.min_workers,
                op_timeout=self.op_timeout,
                batch_timeout=self.batch_timeout,
                retries=self.retries,
                degrade=self.degrade,
                connect_retry_for=self.connect_retry_for,
            )
        self._transports[kind] = transport
        return transport

    # ------------------------------------------------------------------
    # Explaining
    # ------------------------------------------------------------------

    def explain_one(
        self, circuit: Circuit, players: Sequence[Hashable]
    ) -> EngineResult:
        """Explain a single prepared lineage circuit (cache-aware)."""
        return self.engine.explain_circuit(circuit, list(players), self.options)

    def explain_many(
        self,
        query: QueryLike,
        answers: Sequence[tuple] | None = None,
        executor: str | None = None,
    ) -> dict[tuple, EngineResult]:
        """Explain every answer of ``query`` (or the given subset).

        Returns one :class:`EngineResult` per answer, keyed by answer
        tuple and ordered like the query's answer list.  ``executor``
        overrides the session default for this call.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        executor = executor if executor is not None else self.executor
        _check_executor(executor)
        requests = self._requests(query, answers)
        reuse = self.engine.name == "exact"
        outcomes = self._serve_published(requests) if reuse else {}
        pending = [self._job(index, request)
                   for index, request in enumerate(requests)
                   if index not in outcomes]
        if pending:
            if executor is None:
                executor = self._choose(pending)
            plan = plan_batch(
                self.engine.name, pending, self.engine.uses_cache,
                batch=self.engine.supports_batch,
                component_planner=self._component_planner(executor),
            )
            transport = self._transport(executor)
            outcomes.update(transport.run_batch(plan))
            if transport.kind == "socket":
                # Cumulative per worker lifetime, latest snapshot wins
                # (no summing across batches — that would double
                # count).  An empty snapshot is still a snapshot: it
                # replaces stale numbers from an earlier batch rather
                # than keeping them.
                self._socket_batches = True
                self._remote_stats = dict(transport.remote_stats)
                self._remote_workers = getattr(transport, "remote_workers", 0)
            self._unique_shapes += len(plan.shapes)
            if reuse:
                self._publish(plan, outcomes)
        self._answers_explained += len(requests)
        return {request[0]: outcomes[index]
                for index, request in enumerate(requests)}

    def _choose(self, pending: list[Job]) -> str:
        """The default executor's transport for one batch.

        The process pool when the batch's unpublished shapes, at
        ``facts ** 2`` each, outweigh :data:`SHIP_COST` per answer by
        more than :data:`POOL_COST`; threads otherwise, for engines the
        constants were not calibrated on (anything but ``"exact"``),
        and wherever a pool cannot run two children at once (one usable
        CPU, or ``max_workers=1``).
        """
        if (self.engine.name != "exact" or self.max_workers == 1
                or usable_cpus() < 2):
            return "thread"
        facts = {job.signature: len(job.players) for job in pending}
        cost = sum(n * n for n in facts.values()) - SHIP_COST * len(pending)
        return "process" if cost > POOL_COST else "thread"

    def _serve_published(self, requests: list[tuple]) -> dict[int, EngineResult]:
        """Results of the requests whose shape has published Shapley
        values, relabelled on the client (keyed by request index): they
        are never planned or dispatched.

        Algorithm 1 and Equation 3 read only the shape's tape, so a
        relabel returns the very Fractions a sweep would.  The outcome
        carries the publishing answer's sizes (with this answer's
        source circuit size; one object per shape and size) and the
        relabel time as its ``shapley`` stage.
        """
        served: dict[int, EngineResult] = {}
        sized: dict[tuple[int, int], ProvenanceStats] = {}
        for index, (_, _, players, handle, positions) in enumerate(requests):
            start = time.perf_counter()
            published = handle.shapley_values()
            if published is None:
                continue
            canonical, stats = published
            values = dict(zip(players, [canonical[k] for k in positions]))
            key = (id(stats), handle.source_size)
            answer_stats = sized.get(key)
            if answer_stats is None:
                answer_stats = sized[key] = replace(
                    stats, circuit_size=handle.source_size)
            seconds = time.perf_counter() - start
            outcome = ExactOutcome(
                "ok", values, answer_stats, {"shapley": seconds})
            served[index] = EngineResult(
                self.engine.name, values, True, "ok", seconds, detail=outcome,
            )
        self.cache.record_reuse(len(served))
        return served

    @staticmethod
    def _publish(plan: BatchPlan, outcomes: dict[int, EngineResult]) -> None:
        """Publish each swept shape's values once, for later batches.

        The shape's first answer that came back ok publishes, so a
        shape whose values break the efficiency axiom is refused (and
        counted) once per batch, however many answers it has.
        """
        for rep, units, _ in plan.shapes:
            for job in chain([rep], *units):
                result = outcomes[job.index]
                if result.ok and isinstance(result.detail, ExactOutcome):
                    job.options.artifacts.publish_shapley_values(
                        result.values, result.detail.stats)
                    break

    def warm_ahead(
        self,
        query: QueryLike,
        answers: Sequence[tuple] | None = None,
        executor: str | None = None,
        wait: bool = True,
        timeout: float = 60.0,
    ) -> dict[str, int]:
        """Compile the query's distinct lineage shapes ahead of demand.

        Plans the batch exactly like :meth:`explain_many` and then
        compiles only the representatives — one per canonical
        shape — without running Algorithm 1.  With the ``"socket"``
        executor the representatives go to the coordinator's
        compile-ahead queue and workers build the artifacts into the
        fleet's shared store off the request path (``wait=False``
        returns as soon as they are queued); locally the session cache
        (and its store, when attached) is warmed inline.  A subsequent
        :meth:`explain_many` of the same query then compiles nothing.

        Returns counters: ``shapes`` (distinct shapes planned),
        ``queued``, ``completed``, ``failed``, ``pending`` (tasks
        still in flight — nonzero only with ``wait=False`` or on
        timeout), and ``component_tasks`` (distinct canonical
        components the fleet-wide one-pass compile phase
        covered before any representative ran — zero when every shape
        is warm or too small to memoize).
        """
        if self._closed:
            raise RuntimeError("session is closed")
        executor = executor if executor is not None else self.executor
        _check_executor(executor)
        if executor is None:
            # Local warming runs inline whichever pool would explain.
            executor = "thread"
        jobs = self._build_jobs(query, answers)
        if not self.engine.uses_cache:
            # Sampling engines never compile: nothing to warm.
            return {"shapes": 0, "queued": 0, "completed": 0,
                    "failed": 0, "pending": 0, "component_tasks": 0}
        plan = plan_batch(
            self.engine.name, jobs, True,
            component_planner=self._component_planner(executor),
        )
        component_tasks = len(plan.components)
        if executor == "socket":
            transport = self._transport("socket")
            queued = transport.warm_batch(plan)
            status = (
                transport.wait_warm(timeout) if wait
                else transport.warm_status()
            )
            return {
                "shapes": len(plan.shapes),
                "queued": queued,
                "completed": int(status.get("completed", 0)),
                "failed": int(status.get("failed", 0)),
                "pending": int(status.get("pending", 0)),
                "component_tasks": component_tasks,
            }
        # Local executors: one-pass component phase first — each
        # distinct canonical component across *all* cold shapes
        # compiles exactly once instead of redundantly inside each
        # representative — then each representative, now pure
        # stitching, through the session cache (with a store attached
        # this also pre-warms process-pool workers, which reload from
        # the same directory).
        budget = self.options.compilation_budget()
        compiles = 0
        if plan.components:
            memo = self.cache.component_memo()

            def warm_component(key) -> bool:
                try:
                    return compile_component(key, memo, budget=budget)
                except Exception:
                    # The owning representative retries inline below
                    # and reports the real failure.
                    return False

            compiles = sum(warm_component(key) for key in plan.components)
        completed = failed = 0
        for shape in plan.shapes:
            handle = shape.representative.options.artifacts
            try:
                handle.tape(budget=budget)
                completed += 1
            except Exception:
                failed += 1
        if plan.components:
            self.cache.record_pipeline(compiles=compiles)
        return {"shapes": len(plan.shapes), "queued": len(plan.shapes),
                "completed": completed, "failed": failed, "pending": 0,
                "component_tasks": component_tasks}

    def _component_planner(self, executor: str):
        """The batch's component planner, or ``None`` when the batch
        plans no component compiles.

        Cache-using engines plan components; the ``"process"`` executor
        additionally needs a persistent store — without one, a pool
        worker could not see a component another worker compiled.
        Warm batches cost nothing extra: the planner probes each
        shape's artifacts and a batch with no cold shape plans no
        component compiles.
        """
        if not self.engine.uses_cache:
            return None
        if executor == "process" and self.cache.store is None:
            return None
        return artifact_component_planner()

    def _lineage(self, plan: Operator) -> _Lineage:
        """The lineage of ``plan`` on the session's database: the
        remembered entry while no relation the plan scans has changed,
        else a fresh evaluation, remembered unless the cache stores
        nothing (``max_entries=0``) or the plan cannot be hashed."""
        database = self.database
        remember = self.cache.max_entries != 0
        if remember:
            try:
                hash(plan)
            except TypeError:
                remember = False
        if remember:
            with self._lock:
                entry = self._memo.get(plan)
                if entry is not None and entry.fresh(database):
                    self._memo.move_to_end(plan)
                    self._lineage_reuse_hits += 1
                    return entry
        relations = tuple(sorted(
            {op.relation for op in walk(plan) if isinstance(op, Scan)}))
        # Versions are read before evaluating, so a mutation racing
        # the evaluation leaves the entry stale rather than wrong.
        versions = tuple(database.version(name) for name in relations)
        entry = _Lineage(
            database, relations, versions,
            lineage(plan, database, endogenous_only=True),
        )
        if remember:
            with self._lock:
                self._memo[plan] = entry
                self._memo.move_to_end(plan)
                while len(self._memo) > LINEAGE_MEMO_PLANS:
                    self._memo.popitem(last=False)
        return entry

    def _plan(self, query: QueryLike) -> Operator:
        """``query`` as a plan.  A SQL text's plan is remembered (an LRU
        of :data:`LINEAGE_MEMO_PLANS` texts) while the database's
        schema keeps the relations it was parsed against."""
        if not isinstance(query, str):
            return to_plan(query, self.database)
        relations = self.database.schema.relations
        with self._lock:
            cached = self._plans.get(query)
            if cached is not None and cached[0] == relations:
                self._plans.move_to_end(query)
                return cached[1]
        plan = to_plan(query, self.database)
        with self._lock:
            self._plans[query] = (dict(relations), plan)
            self._plans.move_to_end(query)
            while len(self._plans) > LINEAGE_MEMO_PLANS:
                self._plans.popitem(last=False)
        return plan

    def _requests(
        self, query: QueryLike, answers: Sequence[tuple] | None
    ) -> list[tuple]:
        """One ``(answer, circuit, players, handle, positions)`` per
        requested answer: its lineage circuit, sorted players, and for
        cache-using engines its canonicalization handle and each
        player's position among the handle's labels (``None`` twice
        otherwise).

        The query's lineage, and each answer's circuit and canonical
        form, come from the session's memo (see :meth:`_lineage`); the
        first request of an answer extracts and canonicalizes it, every
        later one only binds a fresh handle to its cache slot."""
        entry = self._lineage(self._plan(query))
        if answers is None:
            answers = entry.answers
        else:
            rows = entry.result.relation.rows
            for answer in answers:
                if answer not in rows:
                    raise ValueError(f"{answer!r} is not an answer of the query")

        uses_cache = self.engine.uses_cache
        with self._lock:
            records = [entry.records.get(answer) for answer in answers]
        requests = []
        for answer, record in zip(answers, records):
            if record is not None:
                circuit, players, canonical, positions = record
                handle = self.cache.bind(*canonical) if uses_cache else None
            else:
                circuit = entry.result.lineage_of(answer)
                if uses_cache:
                    # One canonicalization pass per answer: the handle
                    # both keys the dedup groups in the plan and rides
                    # into the engine through options.artifacts, so
                    # explain_circuit never recomputes the signature.
                    handle = self.cache.open(circuit)
                    players = tuple(sorted(handle.labels))
                    canonical = handle.canonical
                    position = {label: k for k, label in enumerate(handle.labels)}
                    positions = tuple(position[player] for player in players)
                else:
                    handle = canonical = positions = None
                    players = tuple(sorted(circuit.reachable_vars()))
                with self._lock:
                    entry.records.setdefault(
                        answer, (circuit, players, canonical, positions))
            requests.append((answer, circuit, players, handle, positions))
        return requests

    def _job(self, index: int, request: tuple) -> Job:
        """The :class:`Job` of one request: per-answer options (the
        derived sampling seed, the handle) and the shape's signature."""
        answer, circuit, players, handle, _ = request
        options = self.options
        if options.seed is not None:
            options = options.with_(seed=derive_answer_seed(options.seed, answer))
        signature = None
        if handle is not None:
            options = options.with_(artifacts=handle)
            signature = handle.signature
        return Job(index, answer, circuit, list(players), options, signature)

    def _build_jobs(
        self, query: QueryLike, answers: Sequence[tuple] | None
    ) -> list[Job]:
        """One :class:`Job` per requested answer (see :meth:`_requests`)."""
        return [self._job(index, request)
                for index, request in enumerate(self._requests(query, answers))]

    # ------------------------------------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        """Session counters merged with both cache tiers' stats.

        ``compile_calls`` vs ``answers_explained`` is the headline
        number: with repeated lineage shapes it is strictly smaller.
        ``fastpath_hits`` / ``fastpath_fallbacks`` count answers served
        by the machine-width tier vs. answers whose shape ran the
        interpreted reference pass, with the fallbacks split by reason
        under ``fastpath_overflow_fallbacks`` (runtime sentinel
        tripped), ``fastpath_ineligible_fallbacks`` (no NumPy, or the
        tape's structure), ``fastpath_small_fallbacks`` (shapes too
        small for the tier to pay off) and
        ``fastpath_budget_fallbacks`` (value buffers over the fast
        path's size ceiling); ``batched_groups`` / ``batched_answers``
        count same-shape groups that shared one Algorithm-1 sweep per
        shape and the answers they covered; ``shapley_reuse_hits``
        counts answers this session relabelled from the Shapley values
        an earlier batch published for their shape, before dispatch —
        so it is a local counter on every executor, socket included,
        and a relabelled answer moves no ``fastpath_*`` or
        ``remote_*`` counter; ``invariant_violations`` counts values
        refused at publication for breaking the efficiency axiom;
        ``lineage_reuse_hits`` counts calls (of :meth:`explain_many` or
        :meth:`warm_ahead`) that read the query's lineage and its
        answers' canonical forms from the session memo instead of
        evaluating the query again.  The
        ``shapley_coefficients_cache_*`` keys expose the bounded
        Equation-3 weight cache.  With a persistent store attached,
        ``store_*`` counters report the parent's disk tier.  Each task
        of the ``"process"`` executor's pool returns the change it made
        to its child's cache counters, which are added here under the
        same keys (a child's ``store_*`` counters stay in the child);
        socket workers report back separately — the coordinator's
        per-batch aggregate appears under ``remote_*`` keys, cumulative
        since each worker started.
        """
        merged = {
            "answers_explained": self._answers_explained,
            "unique_shapes": self._unique_shapes,
            "lineage_reuse_hits": self._lineage_reuse_hits,
            **self.cache.stats_dict(),
            **coefficients_cache_info(),
        }
        if self._socket_batches:
            merged["remote_workers"] = self._remote_workers
            for key, value in self._remote_stats.items():
                merged[f"remote_{key}"] = value
        # Client-side resilience counters (retries, busy_rejections,
        # degraded_batches, pool_restarts) live on the transports;
        # cumulative over the session like everything else here.
        for transport in self._transports.values():
            for key, value in transport.service_stats.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExplainSession(method={self.engine.name!r}, "
            f"answers={self._answers_explained}, cache={self.cache!r})"
        )
