"""Tests for same-shape answer groups sharing one Algorithm-1 sweep.

Covers :func:`~repro.core.shapley.shapley_all_facts_batched`: one
forward/backward sweep per distinct tape shape (the level-scheduled
machine-width tier by default, the interpreted pass without NumPy or
when a shape's plan refuses), Equation 3 per answer, Fraction parity
with the interpreted per-answer reference across all three
machine-width tiers and the fallback, mixed-shape inputs, per-answer
fast-path counters including refusals over the buffer ceiling,
:func:`~repro.core.pipeline.run_exact_batch` and its per-answer tier
labels, shape-group scheduling, and the headline property: grouped and
per-answer execution return byte-identical Fractions on the
machine-width tier and the reference pass, across all three
transports.
"""

import threading
from contextlib import contextmanager
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
from .test_store import (
    JOIN_QUERY, explain_each_answer, join_database, oracle_each_answer,
)

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="NumPy required")

#: (n_clauses, width, seed) per machine-width tier (see
#: test_numerics.TestMachineWidthFastpath for the boundary derivation),
#: each large enough for the tier to pay off (``fixed.LEVEL_COST``).
FLOAT64_SHAPE = (18, 3, 0)
INT64_SHAPE = (20, 3, 0)
CRT_SHAPE = (48, 3, 0)
#: ~141 bits: six residue planes.
WIDE_CRT_SHAPE = (50, 3, 4)
#: The wide shape with its plan refused (see :func:`_refused`).
INELIGIBLE_SHAPE = ("refused", WIDE_CRT_SHAPE)
SHAPES = [FLOAT64_SHAPE, INT64_SHAPE, CRT_SHAPE, INELIGIBLE_SHAPE]
SHAPE_IDS = ["float64", "int64", "crt", "ineligible"]


def _tape(shape):
    if shape is INELIGIBLE_SHAPE:
        return _refused(_tape(shape[1]))
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


@contextmanager
def _numpy_as(available):
    """Sweeps inside see NumPy as ``available`` (patched in-process)."""
    saved = fixed.HAS_NUMPY
    fixed.HAS_NUMPY = available
    try:
        yield
    finally:
        fixed.HAS_NUMPY = saved


def _without_numpy():
    """Every sweep inside runs the interpreted reference pass."""
    return _numpy_as(False)


def _per_answer(tapes):
    """Each tape's values from the interpreted per-answer reference."""
    with _without_numpy():
        return [
            shapley_all_facts(None, _players(tape), tape=tape)
            for tape in tapes
        ]


def _refused(tape):
    """A fresh handle of ``tape``'s shape whose plan is refused, as an
    ineligible shape's would be (the shape still computes exactly on
    the interpreted pass)."""
    handle = GateTape.from_payload(tape.to_payload())
    handle._analysis["plan"] = (None, "ineligible")
    return handle


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


def _run(tapes, stats=None):
    return shapley_all_facts_batched(
        tapes, [_players(tape) for tape in tapes], fastpath_stats=stats)


class TestOneSweepPerShape:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_python_group_runs_one_interpreted_sweep(self, shape, sweeps):
        tapes = _group(_tape(shape), 5)
        stats = FastpathStats()
        with _without_numpy():
            got = _run(tapes, stats)
        assert sweeps == {"forward": 1, "execute": 0}
        assert stats.ineligible == 5 and stats.hits == 0
        _assert_identical(got, _per_answer(tapes))

    @needs_numpy
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_int64_group_runs_one_sweep(self, shape, sweeps):
        tapes = _group(_tape(shape), 5)
        stats = FastpathStats()
        got = _run(tapes, stats)
        if shape is INELIGIBLE_SHAPE:
            assert sweeps == {"forward": 1, "execute": 0}
            assert stats.ineligible == 5 and stats.hits == 0
            assert stats.tiers == {}
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
        got = _run(tapes, stats)
        assert stats.hits == 4 and stats.fallbacks == 0
        tier = plan_for(tapes[0]).tier_name
        assert stats.tiers == {i: tier for i in range(4)}
        _assert_identical(got, _per_answer(tapes))

    @needs_numpy
    def test_independently_compiled_isomorphic_tapes_batch(self, sweeps):
        # No shared analysis box: shape identity falls back to the
        # instruction-array comparison and still shares one sweep.
        a = _tape(FLOAT64_SHAPE)
        b = _tape(FLOAT64_SHAPE)
        assert a._analysis is not b._analysis
        got = _run([a, b])
        assert sweeps == {"forward": 0, "execute": 1}
        _assert_identical(got, _per_answer([a, b]))

    @needs_numpy
    def test_mixed_shape_input_regroups_preserving_order(self, sweeps):
        a = _group(_tape(FLOAT64_SHAPE), 2)
        b = _group(_tape(CRT_SHAPE), 2)
        tapes = [a[0], b[0], a[1], b[1]]
        stats = FastpathStats()
        got = _run(tapes, stats)
        assert stats.hits == 4
        assert stats.tiers == {0: "float64", 1: "crt", 2: "float64",
                               3: "crt"}
        assert sweeps == {"forward": 0, "execute": 2}
        _assert_identical(got, _per_answer(tapes))

    @needs_numpy
    def test_mixed_tier_batch_with_an_ineligible_shape(self):
        # One group spanning the float64 tier, the CRT tier, and a
        # refused shape: the eligible answers take the machine-width
        # sweep, the refused one the interpreted pass, and the
        # fallback is counted by reason.
        eligible = _group(_tape(FLOAT64_SHAPE), 2) + [_tape(CRT_SHAPE)]
        fallback = _tape(INELIGIBLE_SHAPE)
        assert plan_for(fallback) is None
        tapes = [eligible[0], fallback, eligible[1], eligible[2]]
        stats = FastpathStats()
        got = _run(tapes, stats)
        assert stats.hits == 3
        assert stats.ineligible == 1 and stats.fallbacks == 1
        assert stats.tiers == {0: "float64", 2: "float64", 3: "crt"}
        _assert_identical(got, _per_answer(tapes))

    @needs_numpy
    def test_whole_group_ineligible_returns_none(self):
        tapes = _group(_tape(INELIGIBLE_SHAPE), 3)
        assert fastpath_diffs(tapes[0]) is None
        stats = FastpathStats()
        got = _run(tapes, stats)
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
        _assert_identical(_run(tapes), _per_answer(tapes))


class TestFastpathBudget:
    """Shapes whose value buffers exceed ``MAX_BUFFER_ELEMENTS`` take
    the interpreted pass; the ceiling is lowered on fresh tapes (plans
    are cached per shape)."""

    @needs_numpy
    def test_budget_rejection_counted_per_lane(self, monkeypatch):
        monkeypatch.setattr(fixed, "MAX_BUFFER_ELEMENTS", 16)
        tapes = _group(_tape(FLOAT64_SHAPE), 3)
        stats = FastpathStats()
        got = _run(tapes, stats)
        assert stats.budget == 3 and stats.fallbacks == 3
        assert stats.hits == 0 and stats.overflow == 0
        _assert_identical(got, _per_answer(tapes))

    @needs_numpy
    def test_per_answer_budget_knob_matches_batched(self, monkeypatch):
        monkeypatch.setattr(fixed, "MAX_BUFFER_ELEMENTS", 16)
        single = FastpathStats()
        tape = _tape(INT64_SHAPE)
        shapley_all_facts(None, _players(tape), tape=tape,
                          fastpath_stats=single)
        grouped = FastpathStats()
        _run(_group(_tape(INT64_SHAPE), 3), grouped)
        assert single.budget == 1 and single.hits == 0
        assert grouped.budget == 3 and grouped.hits == 0

    @needs_numpy
    def test_session_budget_knob_counts_and_stays_exact(self, monkeypatch):
        db = join_database(4, 2)
        baseline = explain_each_answer(db, JOIN_QUERY)
        monkeypatch.setattr(fixed, "MAX_BUFFER_ELEMENTS", 1)
        with ExplainSession(db, method="exact") as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert stats["fastpath_budget_fallbacks"] == len(results)
        assert stats["fastpath_hits"] == 0
        assert {a: r.values for a, r in results.items()} == baseline


class TestShapleyAllFactsBatched:
    def test_group_fractions_identical_to_per_answer(self):
        tapes = _group(_tape(FLOAT64_SHAPE), 3)
        _assert_identical(_run(tapes), _per_answer(tapes))

    @needs_numpy
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_mixed_tier_batch_parity(self, seed):
        # A group mixing answers from every tier (float64 / CRT / six
        # CRT planes) and a refused shape in a seeded shuffled order
        # returns byte-identical Fractions to the interpreted
        # per-answer pass.
        import random

        rng = random.Random(seed)
        bases = [_tape(FLOAT64_SHAPE), _tape(CRT_SHAPE),
                 _tape(WIDE_CRT_SHAPE), _refused(_tape(INT64_SHAPE))]
        lanes = []
        for base in bases:
            lanes.extend([base] * rng.randint(1, 3))
        rng.shuffle(lanes)
        tapes = [
            base.with_labels({label: (label, i) for label in base.var_labels})
            for i, base in enumerate(lanes)
        ]
        stats = FastpathStats()
        got = _run(tapes, stats)
        assert stats.hits + stats.fallbacks == len(tapes)
        assert stats.ineligible > 0  # the refused shape was present
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
        circuit = _disjoint_monotone_cnf(*FLOAT64_SHAPE)
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
        outcomes = run_exact_batch(circuits, endo, cache=cache)
        for circuit, players, outcome in zip(circuits, endo, outcomes):
            reference = run_exact(circuit, players)
            assert outcome.ok and outcome.values == reference.values
        assert cache.stats.batched_groups == 1
        assert cache.stats.batched_answers == 5

    def test_batched_timings_report_the_group_pass(self):
        circuits, endo = self._answers(3)
        outcomes = run_exact_batch(circuits, endo, cache=ArtifactCache())
        for outcome in outcomes:
            if not HAS_NUMPY:
                break
            assert "batch_exec" in outcome.timings
            assert any(key.startswith("tier_") for key in outcome.timings)

    @needs_numpy
    def test_tier_timing_comes_from_the_sweep_that_ran(self):
        # Without NumPy there is no machine-width sweep: no tier is
        # reported and no level plan is built; by default the tier of
        # the sweep is.
        circuits, endo = self._answers(3)
        python_cache = ArtifactCache()
        with _without_numpy():
            outcomes = run_exact_batch(circuits, endo, cache=python_cache)
        for outcome in outcomes:
            assert outcome.ok
            assert not any(key.startswith("tier_") for key in outcome.timings)
        tape = python_cache.open(circuits[0].condition({})).tape()
        assert "plan" not in tape._analysis

        cache = ArtifactCache()
        outcomes = run_exact_batch(circuits, endo, cache=cache)
        tape = cache.open(circuits[0].condition({})).tape()
        tier = plan_for(tape).tier_name
        for outcome in outcomes:
            assert f"tier_{tier}" in outcome.timings

    @staticmethod
    def _lineage(shape, tag):
        circuit = _disjoint_monotone_cnf(*shape)
        renamed = circuit.rename(
            {label: (label, tag) for label in circuit.reachable_vars()})
        return renamed, sorted(renamed.reachable_vars(), key=repr)

    @needs_numpy
    @pytest.mark.parametrize("cached", [True, False])
    def test_singleton_answer_reports_its_tier(self, cached):
        circuit, players = self._lineage(CRT_SHAPE, 0)
        cache = ArtifactCache() if cached else None
        outcome = run_exact(circuit, players, cache=cache)
        assert outcome.ok
        tiers = [key for key in outcome.timings if key.startswith("tier_")]
        assert tiers == ["tier_crt"]
        assert outcome.timings["tier_crt"] == outcome.timings["shapley"]

    @needs_numpy
    def test_mixed_group_labels_each_answer_by_its_own_shape(self):
        # A CRT shape and a refused shape in one group: the CRT answers
        # are labelled crt, the refused answer (interpreted pass) gets
        # no label, whatever the order of the sweeps.
        crt = [self._lineage(CRT_SHAPE, i) for i in range(2)]
        refused = self._lineage(FLOAT64_SHAPE, 2)
        cache = ArtifactCache()
        tape = cache.open(refused[0].condition({})).tape()
        tape._analysis["plan"] = (None, "ineligible")
        answers = [crt[0], refused, crt[1]]
        outcomes = run_exact_batch(
            [a[0] for a in answers], [a[1] for a in answers], cache=cache)
        labels = [
            [key for key in outcome.timings if key.startswith("tier_")]
            for outcome in outcomes
        ]
        assert labels == [["tier_crt"], [], ["tier_crt"]]
        assert cache.stats.fastpath_ineligible_fallbacks == 1
        for (circuit, players), outcome in zip(answers, outcomes):
            with _without_numpy():
                reference = run_exact(circuit, players)
            assert outcome.values == reference.values

    def test_a_group_of_one_is_not_a_batch(self):
        circuits, endo = self._answers(1)
        cache = ArtifactCache()
        outcomes = run_exact_batch(circuits, endo, cache=cache)
        assert len(outcomes) == 1 and outcomes[0].ok
        assert "batch_exec" not in outcomes[0].timings
        assert cache.stats.batched_groups == 0
        assert cache.stats.batched_answers == 0
        assert outcomes[0].values == run_exact(circuits[0], endo[0]).values


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
        assert [(rep.index, [[job.index for job in unit] for unit in units])
                for rep, units, _ in plan.shapes] == [(0, [[1, 2]]), (3, [[4]])]

    def test_unbatched_plans_default_to_singleton_groups(self):
        jobs = self._jobs(["s1", "s1", "s2"])
        plan = plan_batch("exact", jobs, deduplicate=True)
        assert [(rep.index, [[job.index for job in unit] for unit in units])
                for rep, units, _ in plan.shapes] == [(0, [[1]]), (2, [])]

    def test_unknown_signatures_never_group(self):
        jobs = self._jobs([None, None, None])
        plan = plan_batch("exact", jobs, deduplicate=True, batch=True)
        assert [rep.index for rep, _, _ in plan.shapes] == [0, 1, 2]
        assert all(units == [] for _, units, _ in plan.shapes)


@contextmanager
def _fleet(store_dir: str):
    """A live coordinator with two in-thread workers sharing a store."""
    coordinator = Coordinator().start()
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
    try:
        yield coordinator
    finally:
        coordinator.shutdown()
        for thread in threads:
            thread.join(timeout=10)


@pytest.fixture
def fleet(tmp_path):
    with _fleet(str(tmp_path / "fleet-store")) as coordinator:
        yield coordinator


class TestBatchedTransportParity:
    def test_identical_fractions_across_kernels_and_transports(
        self, fleet
    ):
        # The acceptance matrix: grouped execution on the machine-width
        # tier and on the interpreted reference pass (NumPy patched away
        # for this process, its forked pool children and the in-thread
        # fleet workers) x three transports == the per-answer
        # reference, byte for byte.  Each transport gets a fresh
        # session: a session relabels the values an earlier batch
        # published, so a shared one would sweep on the first only.
        db = join_database(6, 2)
        expected = explain_each_answer(db, JOIN_QUERY)
        for backend in ("machine-width", "reference"):
            numpy = fixed.HAS_NUMPY and backend == "machine-width"
            for executor in ("thread", "process", "socket"):
                with _numpy_as(numpy), ExplainSession(
                    db, method="exact", max_workers=2, executor=executor,
                    coordinator=fleet.address, min_workers=2,
                ) as session:
                    results = session.explain_many(JOIN_QUERY)
                    assert session.stats["shapley_reuse_hits"] == 0
                got = {a: r.values for a, r in results.items()}
                assert got == expected, (backend, executor)
                for values in got.values():
                    assert all(type(v) is Fraction
                               for v in values.values()), \
                        (backend, executor)

    def test_thread_session_reports_batched_counters(self):
        db = join_database(6, 2)
        with ExplainSession(db, method="exact") as session:
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
            coordinator=fleet.address, min_workers=2,
        ) as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert all(r.ok for r in results.values())
        assert stats["remote_batched_groups"] >= 1
        assert stats["remote_batched_answers"] >= 5

    def test_batched_groups_match_the_per_fact_oracle(self):
        db = join_database(4, 2)
        with ExplainSession(db, method="exact") as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert {a: r.values for a, r in results.items()} == \
            oracle_each_answer(db, JOIN_QUERY)
        assert stats["batched_groups"] == 1
