"""Tests for same-shape answer groups sharing one Algorithm-1 sweep.

Covers :func:`~repro.core.shapley.shapley_all_facts_batched`: one
forward/backward sweep per distinct tape shape (the level-scheduled
fast path on the ``int64`` kernel, the interpreted pass otherwise),
Equation 3 per answer, Fraction parity with the per-answer path across
all three machine-width tiers and the ineligible fallback, mixed-shape
inputs, per-answer fast-path counters including refusals over the
buffer ceiling, :func:`~repro.core.pipeline.run_exact_batch` and its
tier attribution, shape-group scheduling, and the headline property:
grouped and per-answer execution return byte-identical Fractions
across kernels and all three transports.
"""

import threading
from fractions import Fraction

import pytest

import repro.core.numerics.fixed as fixed
from repro.circuits import circuit_from_nested
from repro.core import shapley_all_facts
from repro.core.numerics import (
    HAS_NUMPY,
    FastpathStats,
    GateTape,
    LevelPlan,
    compile_tape,
    fastpath_diffs,
    plan_for,
)
from repro.core.pipeline import run_exact, run_exact_batch
from repro.core.shapley import shapley_all_facts_batched
from repro.engine import (
    ArtifactCache,
    Coordinator,
    EngineOptions,
    ExplainSession,
    run_worker,
)
from repro.engine.scheduler import Job, plan_batch

from .test_numerics import _compile, _disjoint_monotone_cnf
from .test_store import JOIN_QUERY, explain_each_answer, join_database

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="NumPy required")

#: (n_clauses, width, seed) per machine-width tier (see
#: test_numerics.TestMachineWidthFastpath for the boundary derivation).
FLOAT64_SHAPE = (12, 3, 0)
INT64_SHAPE = (20, 3, 0)
CRT_SHAPE = (23, 3, 0)
#: ~141 bits: beyond every tier, the whole shape declines the fast path.
FALLBACK_SHAPE = (50, 3, 4)
SHAPES = [FLOAT64_SHAPE, INT64_SHAPE, CRT_SHAPE, FALLBACK_SHAPE]
SHAPE_IDS = ["float64", "int64", "crt", "ineligible"]


def _tape(shape):
    n_clauses, width, seed = shape
    return compile_tape(_compile(_disjoint_monotone_cnf(
        n_clauses, width, seed)))


def _group(tape, size):
    """``size`` re-targeted handles of one tape — the engine's shape
    group: they share the analysis box, labels differ per answer."""
    return [
        tape.with_labels({label: (label, i) for label in tape.var_labels})
        for i in range(size)
    ]


def _players(tape):
    return list(tape.var_labels)


def _per_answer(tapes):
    """Each tape's values from the per-answer reference pass."""
    return [
        shapley_all_facts(None, _players(tape), tape=tape, kernel="python")
        for tape in tapes
    ]


def _assert_identical(got, expected):
    assert got == expected
    for values, reference in zip(got, expected):
        for fact, value in values.items():
            assert type(value) is Fraction
            assert value.numerator == reference[fact].numerator
            assert value.denominator == reference[fact].denominator


@pytest.fixture
def sweeps(monkeypatch):
    """Counts interpreted (``GateTape.forward``) and machine-width
    (``LevelPlan.execute``) sweeps."""
    counts = {"forward": 0, "execute": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        GateTape, "forward", counting("forward", GateTape.forward))
    monkeypatch.setattr(
        LevelPlan, "execute", counting("execute", LevelPlan.execute))
    return counts


def _run(tapes, kernel, stats=None):
    return shapley_all_facts_batched(
        tapes, [_players(tape) for tape in tapes], kernel=kernel,
        fastpath_stats=stats)


class TestOneSweepPerShape:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_python_group_runs_one_interpreted_sweep(self, shape, sweeps):
        tapes = _group(_tape(shape), 5)
        got = _run(tapes, "python")
        assert sweeps == {"forward": 1, "execute": 0}
        _assert_identical(got, _per_answer(tapes))

    @needs_numpy
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_int64_group_runs_one_sweep(self, shape, sweeps):
        tapes = _group(_tape(shape), 5)
        stats = FastpathStats()
        got = _run(tapes, "int64", stats)
        if shape is FALLBACK_SHAPE:
            assert sweeps == {"forward": 1, "execute": 0}
            assert stats.ineligible == 5 and stats.hits == 0
        else:
            assert sweeps == {"forward": 0, "execute": 1}
            assert stats.hits == 5 and stats.fallbacks == 0
        _assert_identical(got, _per_answer(tapes))


class TestBatchedFastpathParity:
    @needs_numpy
    @pytest.mark.parametrize(
        "shape", [FLOAT64_SHAPE, INT64_SHAPE, CRT_SHAPE],
        ids=["float64", "int64", "crt"])
    def test_batched_matches_per_answer_across_tiers(self, shape):
        tapes = _group(_tape(shape), 4)
        stats = FastpathStats()
        got = _run(tapes, "int64", stats)
        assert stats.hits == 4 and stats.fallbacks == 0
        assert stats.tier == plan_for(tapes[0]).tier_name
        _assert_identical(got, _per_answer(tapes))

    @needs_numpy
    def test_independently_compiled_isomorphic_tapes_batch(self, sweeps):
        # No shared analysis box: shape identity falls back to the
        # instruction-array comparison and still shares one sweep.
        a = _tape(FLOAT64_SHAPE)
        b = _tape(FLOAT64_SHAPE)
        assert a._analysis is not b._analysis
        got = _run([a, b], "int64")
        assert sweeps == {"forward": 0, "execute": 1}
        _assert_identical(got, _per_answer([a, b]))

    @needs_numpy
    def test_mixed_shape_input_regroups_preserving_order(self, sweeps):
        a = _group(_tape(FLOAT64_SHAPE), 2)
        b = _group(_tape(CRT_SHAPE), 2)
        tapes = [a[0], b[0], a[1], b[1]]
        stats = FastpathStats()
        got = _run(tapes, "int64", stats)
        assert stats.hits == 4
        assert sweeps == {"forward": 0, "execute": 2}
        _assert_identical(got, _per_answer(tapes))

    @needs_numpy
    def test_mixed_tier_batch_with_an_ineligible_shape(self):
        # One group spanning the float64 tier, the CRT tier, and a
        # shape beyond every tier: the eligible answers take the
        # machine-width sweep, the ineligible one the interpreted pass,
        # and the fallback is counted by reason.
        eligible = _group(_tape(FLOAT64_SHAPE), 2) + [_tape(CRT_SHAPE)]
        fallback = _tape(FALLBACK_SHAPE)
        assert plan_for(fallback) is None
        tapes = [eligible[0], fallback, eligible[1], eligible[2]]
        stats = FastpathStats()
        got = _run(tapes, "int64", stats)
        assert stats.hits == 3
        assert stats.ineligible == 1 and stats.fallbacks == 1
        _assert_identical(got, _per_answer(tapes))

    @needs_numpy
    def test_whole_group_ineligible_returns_none(self):
        tapes = _group(_tape(FALLBACK_SHAPE), 3)
        assert fastpath_diffs(tapes[0]) is None
        stats = FastpathStats()
        got = _run(tapes, "int64", stats)
        assert stats.ineligible == 3 and stats.fallbacks == 3
        _assert_identical(got, _per_answer(tapes))

    def test_empty_input(self):
        assert shapley_all_facts_batched([], []) == []

    @needs_numpy
    def test_negated_lineage_batches(self):
        circuit = circuit_from_nested(
            ("or", ("and", "a", ("not", "b")), ("and", ("not", "a"), "b"))
        )
        tapes = _group(compile_tape(_compile(circuit)), 3)
        _assert_identical(_run(tapes, "int64"), _per_answer(tapes))


class TestFastpathBudget:
    """Shapes whose value buffers exceed ``MAX_BUFFER_ELEMENTS`` take
    the interpreted pass; the ceiling is lowered on fresh tapes (plans
    are cached per shape)."""

    @needs_numpy
    def test_budget_rejection_counted_per_lane(self, monkeypatch):
        monkeypatch.setattr(fixed, "MAX_BUFFER_ELEMENTS", 16)
        tapes = _group(_tape(FLOAT64_SHAPE), 3)
        stats = FastpathStats()
        got = _run(tapes, "int64", stats)
        assert stats.budget == 3 and stats.fallbacks == 3
        assert stats.hits == 0 and stats.overflow == 0
        _assert_identical(got, _per_answer(tapes))

    @needs_numpy
    def test_per_answer_budget_knob_matches_batched(self, monkeypatch):
        monkeypatch.setattr(fixed, "MAX_BUFFER_ELEMENTS", 16)
        single = FastpathStats()
        tape = _tape(INT64_SHAPE)
        shapley_all_facts(None, _players(tape), tape=tape, kernel="int64",
                          fastpath_stats=single)
        grouped = FastpathStats()
        _run(_group(_tape(INT64_SHAPE), 3), "int64", grouped)
        assert single.budget == 1 and single.hits == 0
        assert grouped.budget == 3 and grouped.hits == 0

    @needs_numpy
    def test_session_budget_knob_counts_and_stays_exact(self, monkeypatch):
        db = join_database(4, 2)
        baseline = {
            a: r.values
            for a, r in ExplainSession(db, method="exact")
            .explain_many(JOIN_QUERY).items()
        }
        monkeypatch.setattr(fixed, "MAX_BUFFER_ELEMENTS", 1)
        with ExplainSession(
            db, method="exact",
            options=EngineOptions(numeric_backend="auto"),
        ) as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert stats["fastpath_budget_fallbacks"] == len(results)
        assert stats["fastpath_hits"] == 0
        assert {a: r.values for a, r in results.items()} == baseline


class TestShapleyAllFactsBatched:
    @pytest.mark.parametrize("kernel", ["python", "auto", "int64"])
    def test_group_fractions_identical_to_per_answer(self, kernel):
        tapes = _group(_tape(FLOAT64_SHAPE), 3)
        _assert_identical(_run(tapes, kernel), _per_answer(tapes))

    @needs_numpy
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kernel", ["int64", "auto"])
    def test_randomized_mixed_tier_batch_parity(self, seed, kernel):
        # A group mixing answers from every tier (float64 / CRT /
        # beyond-capacity fallback) in a seeded shuffled order returns
        # byte-identical Fractions to the interpreted per-answer pass.
        import random

        rng = random.Random(seed)
        shapes = [FLOAT64_SHAPE, CRT_SHAPE, FALLBACK_SHAPE]
        lanes = []
        for shape in shapes:
            lanes.extend([_tape(shape)] * rng.randint(1, 3))
        rng.shuffle(lanes)
        tapes = [
            base.with_labels({label: (label, i) for label in base.var_labels})
            for i, base in enumerate(lanes)
        ]
        stats = FastpathStats()
        got = _run(tapes, kernel, stats)
        assert stats.hits + stats.fallbacks == len(tapes)
        assert stats.ineligible > 0  # the fallback shape was present
        _assert_identical(got, _per_answer(tapes))

    def test_length_mismatch_rejected(self):
        tape = _tape(FLOAT64_SHAPE)
        with pytest.raises(ValueError, match="equal length"):
            shapley_all_facts_batched([tape], [])

    def test_empty_endo_list_yields_empty_dict(self):
        tapes = _group(_tape(FLOAT64_SHAPE), 2)
        players = _players(tapes[1])
        out = shapley_all_facts_batched(tapes, [[], players])
        assert out[0] == {}
        assert set(out[1]) == set(players)


class TestRunExactBatch:
    def _answers(self, size):
        circuit = _disjoint_monotone_cnf(4, 2, seed=1)
        circuits, endo = [], []
        for i in range(size):
            renamed = circuit.rename(
                {label: (label, i) for label in circuit.reachable_vars()})
            circuits.append(renamed)
            endo.append(sorted(renamed.reachable_vars(), key=repr))
        return circuits, endo

    def test_parity_with_the_per_answer_loop(self):
        circuits, endo = self._answers(5)
        cache = ArtifactCache()
        outcomes = run_exact_batch(circuits, endo, cache=cache,
                                   numeric_backend="auto")
        for circuit, players, outcome in zip(circuits, endo, outcomes):
            reference = run_exact(circuit, players)
            assert outcome.ok and outcome.values == reference.values
        assert cache.stats.batched_groups == 1
        assert cache.stats.batched_answers == 5

    def test_batched_timings_report_the_group_pass(self):
        circuits, endo = self._answers(3)
        outcomes = run_exact_batch(circuits, endo, cache=ArtifactCache(),
                                   numeric_backend="auto")
        for outcome in outcomes:
            if not HAS_NUMPY:
                break
            assert "batch_exec" in outcome.timings
            assert any(key.startswith("tier_") for key in outcome.timings)

    @needs_numpy
    def test_tier_timing_comes_from_the_sweep_that_ran(self):
        # The reference kernel has no machine-width sweep: no tier is
        # reported and no level plan is built; int64 reports its tier.
        circuits, endo = self._answers(3)
        python_cache = ArtifactCache()
        for outcome in run_exact_batch(circuits, endo, cache=python_cache):
            assert outcome.ok
            assert not any(key.startswith("tier_") for key in outcome.timings)
        tape = python_cache.open(circuits[0].condition({})).tape()
        assert "plan" not in tape._analysis

        int64_cache = ArtifactCache()
        outcomes = run_exact_batch(circuits, endo, cache=int64_cache,
                                   numeric_backend="int64")
        tape = int64_cache.open(circuits[0].condition({})).tape()
        tier = plan_for(tape).tier_name
        for outcome in outcomes:
            assert f"tier_{tier}" in outcome.timings

    def test_singleton_delegates_to_run_exact(self):
        circuits, endo = self._answers(1)
        cache = ArtifactCache()
        outcomes = run_exact_batch(circuits, endo, cache=cache)
        assert len(outcomes) == 1 and outcomes[0].ok
        assert cache.stats.batched_groups == 0


class TestShapeGroupScheduling:
    def _jobs(self, signatures):
        options = EngineOptions()
        return [
            Job(index=i, answer=(i,), circuit=None, players=[],
                options=options, signature=signature)
            for i, signature in enumerate(signatures)
        ]

    def test_plan_batch_emits_shape_groups(self):
        jobs = self._jobs(["s1", "s1", "s1", "s2", "s2"])
        plan = plan_batch("exact", jobs, deduplicate=True, batch=True)
        assert plan.batched
        assert [job.index for job in plan.warm_wave] == [0, 3]
        assert [[job.index for job in group] for group in plan.groups] \
            == [[1, 2], [4]]

    def test_unbatched_plans_default_to_singleton_groups(self):
        jobs = self._jobs(["s1", "s1", "s2"])
        plan = plan_batch("exact", jobs, deduplicate=True)
        assert not plan.batched
        assert [[job.index for job in group] for group in plan.groups] \
            == [[job.index] for job in plan.main_wave]

    def test_unknown_signatures_never_group(self):
        jobs = self._jobs([None, None, None])
        plan = plan_batch("exact", jobs, deduplicate=True, batch=True)
        assert plan.batched and plan.groups == []
        assert len(plan.warm_wave) == 3


@pytest.fixture
def fleet(tmp_path):
    """A live coordinator with two in-thread workers sharing a store."""
    coordinator = Coordinator().start()
    store_dir = str(tmp_path / "fleet-store")
    ready = threading.Barrier(3, timeout=10)
    threads = [
        threading.Thread(
            target=run_worker,
            args=(coordinator.address,),
            kwargs={"cache_dir": store_dir, "on_ready": ready.wait},
            daemon=True,
        )
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    ready.wait()
    coordinator.wait_for_workers(2, timeout=10)
    yield coordinator
    coordinator.shutdown()
    for thread in threads:
        thread.join(timeout=10)


class TestBatchedTransportParity:
    def test_identical_fractions_across_kernels_and_transports(self, fleet):
        # The acceptance matrix: grouped execution on three kernels x
        # three transports == the per-answer reference, byte for byte.
        db = join_database(6, 2)
        expected = explain_each_answer(db, JOIN_QUERY)
        for backend in ("python", "int64", "auto"):
            with ExplainSession(
                db, method="exact", max_workers=2,
                options=EngineOptions(numeric_backend=backend),
                coordinator=fleet.address, min_workers=2,
            ) as session:
                for executor in ("thread", "process", "socket"):
                    results = session.explain_many(
                        JOIN_QUERY, executor=executor)
                    got = {a: r.values for a, r in results.items()}
                    assert got == expected, (backend, executor)
                    for values in got.values():
                        assert all(type(v) is Fraction
                                   for v in values.values()), \
                            (backend, executor)

    def test_thread_session_reports_batched_counters(self):
        db = join_database(6, 2)
        with ExplainSession(
            db, method="exact",
            options=EngineOptions(numeric_backend="auto"),
        ) as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert all(r.ok for r in results.values())
        # six isomorphic answers, one shape: the warm representative
        # runs alone, the other five share one group pass.
        assert stats["batched_groups"] == 1
        assert stats["batched_answers"] == 5

    def test_socket_workers_report_batched_counters(self, fleet):
        db = join_database(6, 2)
        with ExplainSession(
            db, method="exact", executor="socket",
            options=EngineOptions(numeric_backend="auto"),
            coordinator=fleet.address, min_workers=2,
        ) as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert all(r.ok for r in results.values())
        assert stats["remote_batched_groups"] >= 1
        assert stats["remote_batched_answers"] >= 5

    def test_non_derivative_mode_skips_batching(self):
        db = join_database(4, 2)
        with ExplainSession(
            db, method="exact",
            options=EngineOptions(mode="conditioning"),
        ) as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert all(r.ok for r in results.values())
        assert stats["batched_groups"] == 0
