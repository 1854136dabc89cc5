"""Tests for the pure scheduling layer: shape dedup and representative
planning (:func:`plan_batch`), and job portability."""

from repro.engine import ArtifactCache, EngineOptions
from repro.engine.scheduler import Job, plan_batch
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
