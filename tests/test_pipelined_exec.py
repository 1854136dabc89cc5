"""Tests for the batch schedule: component compiles, then each shape's
representative, then its sibling groups.

Covers the scheduler's dependency DAG (fleet-wide component dedupe,
critical-path-first ordering), the union-interval overlap measure
behind ``pipeline_overlap_seconds``, the dependency loop on the thread
and process transports (byte-identical Fractions vs per-answer
``ExplainSession.explain_one``), the absence of any barrier between
shapes, and the one-pass component phase of ``warm_ahead``.
"""

import threading
from fractions import Fraction

from repro.engine import (
    ArtifactCache,
    EngineOptions,
    EngineResult,
    ExplainSession,
    PersistentArtifactStore,
)
from repro.engine.base import Engine
from repro.engine.registry import _INSTANCES, _REGISTRY, register_engine
from repro.engine.scheduler import (
    Job,
    artifact_component_planner,
    estimate_compile_cost,
    plan_batch,
    plan_pipeline,
)
from repro.engine.service.local import InProcessTransport, ProcessPoolTransport
from repro.engine.service.pipeline import interval_overlap, merge_intervals
from repro.workloads.synthetic import shared_block_circuits

from .test_service import mixed_fanout_database
from .test_store import JOIN_QUERY, explain_each_answer, join_database

#: Canonical-component-shaped keys (tuples of literal tuples) with
#: strictly decreasing structural cost: BIG > MID > SMALL.
BIG = ((1, 2, 3), (-1, 4), (2, 5), (-3, 6))
MID = ((1, 2), (-2, 3), (3, 4))
SMALL = ((7, 8),)


def _jobs_with_planner(spec):
    """Fake representatives (one per shape name) plus a planner that
    returns each shape's component keys from ``spec``."""
    options = EngineOptions()
    jobs = [
        Job(index, (index,), None, [], options, name)
        for index, name in enumerate(spec)
    ]
    return jobs, lambda job: spec[job.signature]


def values_of(results):
    return {key: result.values for key, result in results.items()}


def explain_each_circuit(circuits):
    """The per-answer reference for hand-built batches: each circuit
    explained alone through ``ExplainSession.explain_one``, keyed by
    its job index."""
    with ExplainSession(join_database(1, 1), method="exact") as session:
        return {
            index: session.explain_one(
                circuit, sorted(circuit.reachable_vars())
            ).values
            for index, circuit in enumerate(circuits)
        }


def build_jobs(circuits, cache, options=None):
    """Hand-built session jobs: one answer per circuit, opened against
    ``cache`` (mirrors ExplainSession._build_jobs)."""
    base = (options if options is not None else EngineOptions()).with_(
        cache=cache
    )
    jobs = []
    for index, circuit in enumerate(circuits):
        handle = cache.open(circuit)
        jobs.append(Job(
            index, (index,), circuit, sorted(handle.labels),
            base.with_(artifacts=handle), handle.signature,
        ))
    return jobs


class TestPlanPipeline:
    def test_components_dedupe_across_shapes(self):
        jobs, planner = _jobs_with_planner({
            "s1": [BIG, SMALL], "s2": [SMALL, MID],
        })
        components, needs = plan_pipeline(jobs, planner)
        assert sorted(map(str, components)) == sorted(map(str, [BIG, MID, SMALL]))
        # the shared component is needed by both shapes
        shared = components.index(SMALL)
        assert shared in needs[0] and shared in needs[1]

    def test_critical_path_first_ordering(self):
        # s1 owns the costliest total (BIG + MID); its components go
        # first, largest first; the cheap shape's component comes last.
        jobs, planner = _jobs_with_planner({
            "s2": [SMALL], "s1": [BIG, MID],
        })
        components, needs = plan_pipeline(jobs, planner)
        assert components == [BIG, MID, SMALL]
        assert needs == [(2,), (0, 1)]

    def test_shared_component_takes_the_max_owner_cost(self):
        # SMALL is owned by the expensive shape too, so it ranks with
        # that shape's critical path, ahead of the lone MID shape.
        jobs, planner = _jobs_with_planner({
            "s1": [BIG, SMALL], "s2": [MID], "s3": [SMALL],
        })
        components, _ = plan_pipeline(jobs, planner)
        assert components == [BIG, SMALL, MID]

    def test_no_components_means_no_pipeline(self):
        jobs, planner = _jobs_with_planner({"s1": [], "s2": None})
        assert plan_pipeline(jobs, planner) == ([], [(), ()])

    def test_needs_are_sorted_index_tuples(self):
        jobs, planner = _jobs_with_planner({"s1": [SMALL, BIG, MID]})
        _, needs = plan_pipeline(jobs, planner)
        assert needs == [(0, 1, 2)]

    def test_estimates_rank_by_size(self):
        assert estimate_compile_cost(BIG) > estimate_compile_cost(MID) \
            > estimate_compile_cost(SMALL) > 0

    def test_plan_batch_threads_the_pipeline_through(self):
        jobs, planner = _jobs_with_planner({"s1": [BIG]})
        with_pipeline = plan_batch(
            "exact", jobs, True, component_planner=planner
        )
        assert with_pipeline.components == [BIG]
        assert [shape.needs for shape in with_pipeline.shapes] == [(0,)]
        without = plan_batch("exact", jobs, True)
        assert without.components == []
        assert [shape.needs for shape in without.shapes] == [()]


class TestIntervalOverlap:
    def test_merge_unions_and_drops_empty_spans(self):
        assert merge_intervals([(1.0, 3.0), (0.0, 2.0), (4.0, 4.0),
                                (5.0, 6.0)]) == [(0.0, 3.0), (5.0, 6.0)]

    def test_overlap_is_the_union_intersection(self):
        assert interval_overlap([(0.0, 10.0)],
                                [(2.0, 3.0), (4.0, 6.0)]) == 3.0
        # overlapping spans on one side must not double count
        assert interval_overlap([(0.0, 2.0), (1.0, 4.0)],
                                [(3.0, 5.0)]) == 1.0

    def test_disjoint_sides_overlap_zero(self):
        assert interval_overlap([(0.0, 1.0)], [(2.0, 3.0)]) == 0.0
        assert interval_overlap([], [(0.0, 1.0)]) == 0.0


class TestThreadPipelinedExecution:
    def test_shared_block_family_matches_explain_one(self):
        # The headline parity: the fig7-style shared-block family under
        # the dependency loop returns Fractions byte-identical to
        # explaining each answer alone, while compiling each of the
        # family's distinct components exactly once fleet-wide.
        circuits = shared_block_circuits(4)
        expected = explain_each_circuit(circuits)

        cache = ArtifactCache()
        plan = plan_batch(
            "exact", build_jobs(circuits, cache), True, batch=True,
            component_planner=artifact_component_planner(),
        )
        owned = sum(len(shape.needs) for shape in plan.shapes)
        distinct = len(plan.components)
        assert 0 < distinct < owned  # the fleet-wide dedupe bought something
        transport = InProcessTransport(4)
        try:
            results = transport.run_batch(plan)
        finally:
            transport.close()

        assert values_of(results) == expected
        for result in results.values():
            assert result.ok
            assert all(type(v) is Fraction for v in result.values.values())
        stats = cache.stats
        assert stats.component_pass_compiles == distinct
        assert stats.component_compilations == distinct
        assert stats.stitch_jobs == len(circuits)
        assert stats.pipeline_overlap_seconds >= 0.0
        assert stats.compile_calls == len(circuits)

    def test_ungated_shapes_run_alongside_gated_ones(self):
        # A mixed batch: one shape too small to plan components rides
        # the same pipelined batch as a gated shared-block shape.
        small_db_jobs = None  # built below from a tiny join
        circuits = shared_block_circuits(2, n_blocks=2)
        cache = ArtifactCache()
        jobs = build_jobs(circuits, cache)
        with ExplainSession(join_database(1, 2), method="exact",
                            cache=cache) as session:
            small_db_jobs = session._build_jobs(JOIN_QUERY, None)
        for offset, job in enumerate(small_db_jobs):
            job.index = len(jobs) + offset
            jobs.append(job)
        plan = plan_batch(
            "exact", jobs, True, batch=True,
            component_planner=artifact_component_planner(),
        )
        assert plan.components
        # the tiny join shape plans no components: it is ungated
        assert any(not shape.needs for shape in plan.shapes)
        transport = InProcessTransport(4)
        try:
            results = transport.run_batch(plan)
        finally:
            transport.close()
        assert len(results) == len(jobs)
        assert all(result.ok for result in results.values())


class TestProcessPipelinedExecution:
    def test_parity_over_a_shared_store(self, tmp_path):
        circuits = shared_block_circuits(3, n_blocks=3)
        expected = explain_each_circuit(circuits)

        store = PersistentArtifactStore(str(tmp_path / "store"))
        cache = ArtifactCache(store=store)
        plan = plan_batch(
            "exact", build_jobs(circuits, cache), True, batch=True,
            component_planner=artifact_component_planner(),
        )
        assert plan.components
        transport = ProcessPoolTransport(2, str(store.directory))
        try:
            results = transport.run_batch(plan)
        finally:
            transport.close()
        assert values_of(results) == expected
        for result in results.values():
            assert all(type(v) is Fraction for v in result.values.values())
        # pool workers did the compiles; the parent records the pass
        stats = cache.stats
        assert stats.component_pass_compiles == len(plan.components)
        assert stats.stitch_jobs == len(circuits)


class TestSessionPipelineKnobs:
    def test_session_matches_explain_one(self):
        db = join_database(6, 6)
        with ExplainSession(db, method="exact") as session:
            results = session.explain_many(JOIN_QUERY)
        assert values_of(results) == explain_each_answer(db, JOIN_QUERY)

    def test_pipelined_session_reports_counters(self):
        db = join_database(6, 6)
        with ExplainSession(db, method="exact") as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert all(result.ok for result in results.values())
        # one shape, one >=8-var component: one pass compile, one stitch
        assert stats["component_pass_compiles"] == 1
        assert stats["stitch_jobs"] == 1
        assert stats["compile_calls"] == 1

    def test_process_executor_without_store_falls_back(self):
        # No shared store: a pool worker could not see a component
        # another worker compiled, so a process session plans no
        # component compiles — and still matches the thread run.
        db = join_database(4, 6)
        with ExplainSession(db, method="exact") as session:
            thread = session.explain_many(JOIN_QUERY)
            assert session.stats["component_pass_compiles"] == 1
        with ExplainSession(db, method="exact", max_workers=2) as session:
            process = session.explain_many(JOIN_QUERY, executor="process")
            stats = session.stats
        assert values_of(process) == values_of(thread)
        assert stats["component_pass_compiles"] == 0
        assert stats["stitch_jobs"] == 0

    def test_second_batch_is_warm_and_unpipelined(self):
        db = join_database(6, 6)
        with ExplainSession(db, method="exact") as session:
            first = session.explain_many(JOIN_QUERY)
            second = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert values_of(first) == values_of(second)
        # the warm probe kept the second batch off the pipeline: no
        # extra pass compiles, no extra stitches, one compile total
        assert stats["component_pass_compiles"] == 1
        assert stats["stitch_jobs"] == 1
        assert stats["compile_calls"] == 1
        assert stats["tape_compilations"] == 1


class TestNoBarrier:
    def test_sibling_group_runs_while_another_representative_blocks(self):
        # Two shapes too small to memoize, so the batch plans no
        # component compiles.  Shape A's representative blocks until a
        # sibling of shape B runs: only a schedule that starts B's
        # siblings as soon as B's own representative finishes — not
        # after every representative — lets it through.
        release = threading.Event()
        seen = {}
        lock = threading.Lock()

        class _BlockingEngine(Engine):
            name = "_test_blocking"
            exact = False
            uses_cache = True

            def explain_circuit(self, circuit, players, options=None):
                shape = "A" if len(players) == 2 else "B"
                with lock:
                    call = seen.get(shape, 0)
                    seen[shape] = call + 1
                if shape == "A" and call == 0:
                    status = "ok" if release.wait(5.0) else "timeout"
                elif shape == "B" and call > 0:
                    release.set()
                    status = "ok"
                else:
                    status = "ok"
                return EngineResult(
                    self.name, {p: Fraction(0) for p in players}, False,
                    status=status,
                )

        register_engine(_BlockingEngine)
        try:
            db = mixed_fanout_database(4, (1, 2))
            with ExplainSession(
                db, method="_test_blocking", max_workers=2,
            ) as session:
                results = session.explain_many(JOIN_QUERY)
                stats = session.stats
        finally:
            _REGISTRY.pop("_test_blocking", None)
            _INSTANCES.pop("_test_blocking", None)
        assert stats["unique_shapes"] == 2
        assert stats["component_pass_compiles"] == 0
        assert seen == {"A": 2, "B": 2}
        assert all(result.ok for result in results.values()), {
            answer: result.status for answer, result in results.items()
        }


class TestWarmAheadOnePass:
    def test_warm_ahead_reports_and_runs_the_component_pass(self):
        db = join_database(6, 6)
        with ExplainSession(db, method="exact") as session:
            status = session.warm_ahead(JOIN_QUERY)
            assert status["component_tasks"] == 1
            assert status["completed"] == 1 and status["failed"] == 0
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert all(result.ok for result in results.values())
        assert stats["component_pass_compiles"] == 1
        assert stats["compile_calls"] == 1  # the warm pass only

    def test_warm_ahead_dedupes_components_across_shapes(self):
        # Four shared-block shapes own 4 components each but only 5
        # distinct structures (pool_size = n_blocks + n_circuits - 1):
        # the one-pass phase compiles each distinct structure once.
        circuits = shared_block_circuits(2, n_blocks=4)
        cache = ArtifactCache()
        jobs = build_jobs(circuits, cache)
        plan = plan_batch(
            "exact", jobs, True,
            component_planner=artifact_component_planner(),
        )
        owned = sum(len(shape.needs) for shape in plan.shapes)
        assert 0 < len(plan.components) < owned
