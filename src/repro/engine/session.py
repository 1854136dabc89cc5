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

Three executors are supported, all long-lived (created once per
session, reused across ``explain_many`` calls, released by
:meth:`close` or by leaving the session's ``with`` block):

* ``"thread"`` (default) —
  :class:`~repro.engine.service.InProcessTransport`, slot threads
  sharing the session's in-memory cache;
* ``"process"`` — :class:`~repro.engine.service.ProcessPoolTransport`,
  a *persistent* :class:`~concurrent.futures.ProcessPoolExecutor`
  whose long-lived workers run every unit of the batch, rebuild
  caches over the session store's directory and keep them warm
  between calls;
* ``"socket"`` — :class:`~repro.engine.service.SocketTransport`, a
  client of a ``repro serve`` coordinator handing the batch's units to
  ``repro worker`` processes that share one store directory (pass
  ``coordinator="host:port"``).

Determinism: exact results are independent of scheduling (Fractions
from structure); for the sampling engines each answer's RNG seed is
:func:`~repro.engine.base.derive_answer_seed` — a stable hash of
``(options.seed, answer)`` — so batched runs are reproducible regardless
of interleaving or transport, invariant to answer order and subsetting,
and agree with the single-answer path at the same seed.
"""

from __future__ import annotations

import time
from dataclasses import replace
from itertools import chain
from typing import Hashable, Sequence

from ..circuits.circuit import Circuit

from ..core.numerics import coefficients_cache_info
from ..core.pipeline import ExactOutcome, QueryLike, to_plan
from ..db.database import Database
from ..db.evaluate import lineage
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

#: Executor kinds accepted by :class:`ExplainSession`.
EXECUTORS = ("thread", "process", "socket")


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
        ``"thread"`` (default), ``"process"``, or ``"socket"`` — the
        default transport of :meth:`explain_many`.
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
        executor: str = "thread",
        coordinator: str | tuple[str, int] | None = None,
        min_workers: int | None = None,
        op_timeout: float | None = 30.0,
        batch_timeout: float | None = 600.0,
        retries: int = 2,
        degrade: str | None = None,
        connect_retry_for: float = 10.0,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}"
            )
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
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}"
            )
        jobs = self._build_jobs(query, answers)
        reuse = self.engine.name == "exact"
        outcomes = self._serve_published(jobs) if reuse else {}
        pending = [job for job in jobs if job.index not in outcomes]
        if pending:
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
        self._answers_explained += len(jobs)
        return {job.answer: outcomes[job.index] for job in jobs}

    def _serve_published(self, jobs: list[Job]) -> dict[int, EngineResult]:
        """Results of the jobs whose shape has published Shapley values,
        relabelled on the client (keyed by job index): they are never
        planned or dispatched.

        Algorithm 1 and Equation 3 read only the shape's tape, so a
        relabel returns the very Fractions a sweep would.  The outcome
        carries the publishing answer's sizes (with this answer's
        source circuit size) and the relabel time as its ``shapley``
        stage.
        """
        served: dict[int, EngineResult] = {}
        for job in jobs:
            handle = job.options.artifacts
            start = time.perf_counter()
            published = handle.shapley_values()
            if published is None:
                continue
            canonical, stats = published
            by_label = dict(zip(handle.labels, canonical))
            values = {player: by_label[player] for player in job.players}
            seconds = time.perf_counter() - start
            outcome = ExactOutcome(
                "ok", values,
                replace(stats, circuit_size=handle.source_size),
                {"shapley": seconds},
            )
            served[job.index] = EngineResult(
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
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}"
            )
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

    def _build_jobs(
        self, query: QueryLike, answers: Sequence[tuple] | None
    ) -> list[Job]:
        """One :class:`Job` per requested answer: lineage circuit,
        canonicalization handle, and per-answer options."""
        result = lineage(
            to_plan(query, self.database), self.database, endogenous_only=True
        )
        available = result.tuples()
        if answers is None:
            answers = available
        else:
            known = set(available)
            for answer in answers:
                if answer not in known:
                    raise ValueError(f"{answer!r} is not an answer of the query")

        uses_cache = self.engine.uses_cache
        jobs: list[Job] = []
        for index, answer in enumerate(answers):
            circuit = result.lineage_of(answer)
            options = self.options
            if options.seed is not None:
                options = options.with_(
                    seed=derive_answer_seed(options.seed, answer)
                )
            if uses_cache:
                # One canonicalization pass per answer: the handle both
                # keys the dedup groups in the plan and rides into the
                # engine through options.artifacts, so explain_circuit
                # never recomputes the signature.
                handle = self.cache.open(circuit)
                options = options.with_(artifacts=handle)
                players = sorted(handle.labels)
                signature = handle.signature
            else:
                players = sorted(circuit.reachable_vars())
                signature = None
            jobs.append(
                Job(index, answer, circuit, players, options, signature)
            )
        return jobs

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
        refused at publication for breaking the efficiency axiom.  The
        ``shapley_coefficients_cache_*`` keys expose the bounded
        Equation-3 weight cache.  With a persistent store attached,
        ``store_*`` counters report the disk tier.  Pool
        workers of the ``"process"`` executor keep
        their own local counters (only their artifact *files* are
        shared); socket workers *do* report back — the coordinator's
        per-batch aggregate appears under ``remote_*`` keys, cumulative
        since each worker started.
        """
        merged = {
            "answers_explained": self._answers_explained,
            "unique_shapes": self._unique_shapes,
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
