"""Tests for the pure scheduling layer: shape dedup and representative
planning (:func:`plan_batch`), the plan's wire form, and the dependency
state every transport pulls from (:class:`BatchSchedule`), driven here
without threads through random completions and requeues."""

import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.knowledge import CompilationBudget
from repro.engine import ArtifactCache, EngineOptions
from repro.engine.cache import CircuitArtifacts
from repro.engine.scheduler import BatchPlan, BatchSchedule, Job, plan_batch
from repro.engine.service.remote import _portable_shapes
from repro.workloads.synthetic import chained_dnf


def job(index, signature, answer=None):
    return Job(
        index=index,
        answer=answer if answer is not None else (index,),
        circuit=None,
        players=[],
        options=EngineOptions(),
        signature=signature,
    )


def indexes(plan):
    """Each shape of ``plan`` as ``(representative index, unit indexes,
    needs)``."""
    return [(rep.index if rep is not None else None,
             [[j.index for j in unit] for unit in units], needs)
            for rep, units, needs in plan.shapes]


class TestPlanBatch:
    def test_representative_is_first_occurrence_per_shape(self):
        jobs = [job(0, "A"), job(1, "B"), job(2, "A"), job(3, "A"), job(4, "B")]
        plan = plan_batch("exact", jobs, deduplicate=True)
        assert indexes(plan) == [(0, [[2], [3]], ()), (1, [[4]], ())]
        assert plan.components == []
        assert sorted(j.index for j in plan.jobs()) == [0, 1, 2, 3, 4]

    def test_no_dedup_means_single_wave(self):
        jobs = [job(0, None), job(1, None), job(2, None)]
        plan = plan_batch("monte_carlo", jobs, deduplicate=False)
        assert indexes(plan) == [
            (None, [[0]], ()), (None, [[1]], ()), (None, [[2]], ())]

    def test_none_signatures_never_alias_even_when_deduplicating(self):
        jobs = [job(0, None), job(1, None)]
        plan = plan_batch("exact", jobs, deduplicate=True)
        assert indexes(plan) == [(0, [], ()), (1, [], ())]

    def test_empty_batch(self):
        plan = plan_batch("exact", [], deduplicate=True)
        assert plan.shapes == [] and plan.components == []
        assert list(plan.jobs()) == []
        assert plan.compilation_budget() is None

    def test_shapes_pair_each_representative_with_its_groups(self):
        jobs = [job(0, "A"), job(1, "B"), job(2, "A"), job(3, None),
                job(4, "A"), job(5, "C"), job(6, "C")]
        batched = plan_batch("exact", jobs, deduplicate=True, batch=True)
        assert indexes(batched) == [
            (0, [[2, 4]], ()), (1, [], ()), (3, [], ()), (5, [[6]], ())]
        unbatched = plan_batch("exact", jobs, deduplicate=True)
        assert indexes(unbatched) == [
            (0, [[2], [4]], ()), (1, [], ()), (3, [], ()), (5, [[6]], ())]
        sampled = plan_batch("monte_carlo", jobs[:2], deduplicate=False)
        assert indexes(sampled) == [(None, [[0]], ()), (None, [[1]], ())]

    def test_budget_is_the_first_jobs_even_without_representatives(self):
        budget = CompilationBudget(max_seconds=7.0)
        jobs = [Job(0, (0,), None, [], EngineOptions(budget=budget))]
        plan = plan_batch("monte_carlo", jobs, deduplicate=False)
        assert plan.compilation_budget() is budget


def portable_batch():
    """A cached batch of three jobs over two shapes, planned with
    batching, and the wire form of its shapes."""
    cache = ArtifactCache()
    circuits = [chained_dnf(3), chained_dnf(3), chained_dnf(2)]
    options = EngineOptions(cache=cache)
    jobs = []
    for index, circuit in enumerate(circuits):
        handle = cache.open(circuit)
        jobs.append(Job(index, (f"a{index}",), circuit,
                        sorted(handle.labels),
                        options.with_(artifacts=handle),
                        handle.signature))
    plan = plan_batch("exact", jobs, deduplicate=True, batch=True)
    return jobs, plan, _portable_shapes(plan)


class TestJobPortability:
    def test_portable_strips_cache_and_handle(self):
        jobs, plan, shapes = portable_batch()
        found = []

        class Finder(pickle.Pickler):
            def persistent_id(self, obj):
                if isinstance(obj, (ArtifactCache, CircuitArtifacts)):
                    found.append(obj)
                return None

        Finder(io.BytesIO()).dump(shapes)
        assert found == []
        for job in BatchPlan("exact", shapes).jobs():
            assert job.options.cache is None
            assert job.options.artifacts is None
            assert job.signature is None
        # the session's jobs keep their cache and handle
        assert all(j.options.cache is not None for j in jobs)
        assert all(j.options.artifacts is not None for j in jobs)

    def test_portable_roundtrips_through_pickle(self):
        jobs, plan, shapes = portable_batch()
        clone = pickle.loads(pickle.dumps(shapes))
        assert indexes(BatchPlan("exact", clone)) == indexes(plan)
        for job in BatchPlan("exact", clone).jobs():
            assert job.options.cache is None
            assert job.players == jobs[job.index].players
            assert job.answer == jobs[job.index].answer


@st.composite
def batch_schedules(draw):
    """A schedule of 1-8 shapes (each with 0-5 siblings, batched into
    one unit or one unit each), random ``needs`` over 0-6 components,
    and a width of 1-4 slots; plus the model the tests check it
    against (``required[shape]``: the components its representative
    waits for)."""
    n_components = draw(st.integers(0, 6))
    batched = draw(st.booleans())
    shapes, required = [], []
    for shape in range(draw(st.integers(1, 8))):
        siblings = [f"s{shape}/{i}"
                    for i in range(1, draw(st.integers(0, 5)) + 1)]
        units = ([tuple(siblings)] if batched and siblings
                 else [(sibling,) for sibling in siblings])
        rep = f"s{shape}/0" if draw(st.booleans()) or n_components else None
        needs = ()
        if rep is not None and n_components:
            needs = tuple(draw(st.lists(
                st.integers(0, n_components - 1), unique=True,
                max_size=n_components)))
        required.append(set(needs))
        shapes.append((rep, units, needs))
    width = draw(st.integers(1, 4))
    return BatchSchedule(shapes, n_components, width), shapes, \
        required, width


class TestBatchSchedule:
    @settings(max_examples=150, deadline=None)
    @given(batch_schedules(), st.randoms(use_true_random=False))
    def test_random_completions_and_requeues(self, drawn, rng):
        schedule, shapes, required, width = drawn
        all_needed = set().union(*required)
        finished_compiles: set[int] = set()
        finished_reps: set[str] = set()
        first_compile_takes: list[int] = []
        results: list[str] = []
        running: list = []
        requeues = 0

        def ready_work() -> bool:
            """Whether some representative or sibling unit could run
            now, by the model (not the schedule's own queues)."""
            taken = {id(unit.item) for unit in running}
            for shape, (rep, units, _) in enumerate(shapes):
                if rep is None or rep in finished_reps:
                    if any(id(unit) not in taken and unit[0] not in results
                           for unit in units):
                        return True
                elif (id(rep) not in taken
                      and required[shape] <= finished_compiles):
                    return True
            return False

        for _ in range(1000):
            if schedule.done:
                break
            action = rng.random()
            if running and (len(running) == width or action < 0.5):
                unit = running.pop(rng.randrange(len(running)))
                if requeues < 8 and rng.random() < 0.2:
                    requeues += 1
                    schedule.requeue(unit)
                    continue
                schedule.finish(unit)
                if unit.kind == "compile":
                    assert unit.item not in finished_compiles
                    finished_compiles.add(unit.item)
                elif unit.kind == "rep":
                    finished_reps.add(unit.item)
                    results.append(unit.item)
                else:
                    results.extend(unit.item)
                continue
            unit = schedule.take()
            if unit is None:
                assert not ready_work()
                assert all_needed <= finished_compiles | {
                    u.item for u in running if u.kind == "compile"}
                assert running, "nothing runs, nothing ready: a stall"
                continue
            running.append(unit)
            if unit.kind == "compile":
                assert unit.item in all_needed
                if unit.item not in first_compile_takes:
                    first_compile_takes.append(unit.item)
            elif unit.kind == "rep":
                assert required[unit.shape] <= finished_compiles
                assert unit.gated == bool(required[unit.shape])
            else:
                rep = shapes[unit.shape][0]
                assert rep is None or rep in finished_reps
            compiling = sum(u.kind == "compile" for u in running)
            if ready_work():
                assert compiling <= width - 1
        assert schedule.done and not running
        # every job exactly one result; every needed compile once, in
        # the plan's critical-path (index) order
        jobs = [job for rep, units, _ in shapes
                for job in ([rep] if rep is not None else [])
                + [name for unit in units for name in unit]]
        assert sorted(results) == sorted(jobs)
        assert finished_compiles == all_needed
        assert first_compile_takes == sorted(all_needed)

    @pytest.mark.parametrize("needs", [(2,), (-1,)])
    def test_out_of_range_component_is_rejected(self, needs):
        with pytest.raises(ValueError, match="needs components"):
            BatchSchedule([("rep", [], needs)], 2)
