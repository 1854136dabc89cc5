"""Tests for the pure scheduling layer: shape dedup and representative
planning (:func:`plan_batch`), job portability, and the dependency
state every transport pulls from (:class:`BatchSchedule`), driven here
without threads through random completions and requeues."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ArtifactCache, EngineOptions
from repro.engine.scheduler import BatchSchedule, Job, plan_batch
from repro.engine.store import signature_digest
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


class TestPlanBatch:
    def test_warm_wave_is_first_occurrence_per_shape(self):
        jobs = [job(0, "A"), job(1, "B"), job(2, "A"), job(3, "A"), job(4, "B")]
        plan = plan_batch("exact", jobs, deduplicate=True)
        assert [j.index for j in plan.warm_wave] == [0, 1]
        assert [j.index for j in plan.main_wave] == [2, 3, 4]
        assert plan.n_shapes == 2
        assert plan.deduplicated
        assert [j.index for j in plan.jobs] == [0, 1, 2, 3, 4]

    def test_no_dedup_means_single_wave(self):
        jobs = [job(0, None), job(1, None), job(2, None)]
        plan = plan_batch("monte_carlo", jobs, deduplicate=False)
        assert plan.warm_wave == []
        assert [j.index for j in plan.main_wave] == [0, 1, 2]
        assert plan.n_shapes == 3
        assert not plan.deduplicated

    def test_none_signatures_never_alias_even_when_deduplicating(self):
        jobs = [job(0, None), job(1, None)]
        plan = plan_batch("exact", jobs, deduplicate=True)
        assert len(plan.warm_wave) == 2
        assert plan.main_wave == []
        assert plan.n_shapes == 2

    def test_empty_batch(self):
        plan = plan_batch("exact", [], deduplicate=True)
        assert plan.jobs == plan.warm_wave == plan.main_wave == []
        assert plan.n_shapes == 0

    def test_shapes_pair_each_representative_with_its_groups(self):
        jobs = [job(0, "A"), job(1, "B"), job(2, "A"), job(3, None),
                job(4, "A"), job(5, "C"), job(6, "C")]

        def indexes(plan):
            return [(rep.index if rep is not None else None,
                     [[j.index for j in group] for group in groups])
                    for rep, groups in plan.shapes()]

        batched = plan_batch("exact", jobs, deduplicate=True, batch=True)
        assert indexes(batched) == [
            (0, [[2, 4]]), (1, []), (3, []), (5, [[6]])]
        unbatched = plan_batch("exact", jobs, deduplicate=True)
        assert indexes(unbatched) == [
            (0, [[2], [4]]), (1, []), (3, []), (5, [[6]])]
        sampled = plan_batch("monte_carlo", jobs[:2], deduplicate=False)
        assert indexes(sampled) == [(None, [[0]]), (None, [[1]])]


class TestJobPortability:
    def test_portable_strips_cache_and_digests_signature(self):
        cache = ArtifactCache()
        circuit = chained_dnf(3)
        handle = cache.open(circuit)
        rich = Job(
            index=0,
            answer=("a",),
            circuit=circuit,
            players=sorted(handle.labels),
            options=EngineOptions(cache=cache, artifacts=handle),
            signature=handle.signature,
        )
        portable = rich.portable()
        assert portable.options.cache is None
        assert portable.options.artifacts is None
        assert portable.signature == signature_digest(handle.signature)
        # affinity agrees between the rich and portable forms
        assert rich.affinity() == portable.affinity()
        # original untouched
        assert rich.options.cache is cache

    def test_portable_roundtrips_through_pickle(self):
        import pickle

        cache = ArtifactCache()
        circuit = chained_dnf(2)
        handle = cache.open(circuit)
        rich = Job(0, ("a",), circuit, sorted(handle.labels),
                   EngineOptions(cache=cache, artifacts=handle),
                   handle.signature)
        clone = pickle.loads(pickle.dumps(rich.portable()))
        assert clone.signature == rich.portable().signature
        assert clone.players == rich.players

    def test_affinity_of_unshaped_job_is_unique(self):
        assert job(0, None).affinity() != job(1, None).affinity()


@st.composite
def batch_schedules(draw):
    """A schedule of 1-8 shapes (each with 0-5 siblings, batched into
    one unit or one unit each), random ``needs`` over 0-6 components,
    and a width of 1-4 slots; plus the model the tests check it
    against."""
    n_components = draw(st.integers(0, 6))
    batched = draw(st.booleans())
    shapes, needs, required = [], {}, {}
    for shape in range(draw(st.integers(1, 8))):
        affinity = f"s{shape}"
        siblings = [f"{affinity}/{i}"
                    for i in range(1, draw(st.integers(0, 5)) + 1)]
        units = ([tuple(siblings)] if batched and siblings
                 else [(sibling,) for sibling in siblings])
        rep = f"{affinity}/0" if draw(st.booleans()) or n_components else None
        if rep is not None and n_components:
            needs[affinity] = draw(st.lists(
                st.integers(0, n_components - 1), unique=True,
                max_size=n_components))
        required[rep, affinity] = set(needs.get(affinity, ()))
        shapes.append((affinity, rep, units))
    width = draw(st.integers(1, 4))
    return BatchSchedule(shapes, needs, n_components, width), shapes, \
        required, width


class TestBatchSchedule:
    @settings(max_examples=150, deadline=None)
    @given(batch_schedules(), st.randoms(use_true_random=False))
    def test_random_completions_and_requeues(self, drawn, rng):
        schedule, shapes, required, width = drawn
        all_needed = set().union(*required.values())
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
            for affinity, rep, units in shapes:
                if rep is None or rep in finished_reps:
                    if any(id(unit) not in taken and unit[0] not in results
                           for unit in units):
                        return True
                elif (id(rep) not in taken and required[rep, affinity]
                      <= finished_compiles):
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
                affinity = shapes[unit.shape][0]
                assert required[unit.item, affinity] <= finished_compiles
                assert unit.gated == bool(required[unit.item, affinity])
            else:
                rep = shapes[unit.shape][1]
                assert rep is None or rep in finished_reps
            compiling = sum(u.kind == "compile" for u in running)
            if ready_work():
                assert compiling <= width - 1
        assert schedule.done and not running
        # every job exactly one result; every needed compile once, in
        # the plan's critical-path (index) order
        jobs = [job for _, rep, units in shapes
                for job in ([rep] if rep is not None else [])
                + [name for unit in units for name in unit]]
        assert sorted(results) == sorted(jobs)
        assert finished_compiles == all_needed
        assert first_compile_takes == sorted(all_needed)
