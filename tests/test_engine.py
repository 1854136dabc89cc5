"""Tests for the engine subsystem: registry, artifact cache, batched
sessions, and parity with the per-answer exact path."""

from fractions import Fraction

import pytest

from repro.circuits import Circuit
from repro.compiler import CompilationBudget
from repro.core import ShapleyExplainer, run_exact
from repro.core.attribution import METHODS, attribute
from repro.core.pipeline import to_plan
from repro.db import Database, RelationSchema, Schema, cq
from repro.db.evaluate import lineage
from repro.engine import (
    ArtifactCache,
    Engine,
    EngineOptions,
    EngineResult,
    ExplainSession,
    available_engines,
    get_engine,
    register_engine,
)
from repro.engine.registry import _ALIASES, _INSTANCES, _REGISTRY
from repro.workloads.flights import flights_database, flights_query
from repro.workloads.synthetic import bipartite_join_dnf, chained_dnf


def join_database(n_answers: int = 6, fanout: int = 2) -> Database:
    """A database whose query below has ``n_answers`` answers with
    pairwise-isomorphic lineages: a=x_i joins R(x_i, y_i) with
    ``fanout`` S(y_i, *) rows."""
    schema = Schema.of(
        RelationSchema.of("R", "a", "b"), RelationSchema.of("S", "b", "c")
    )
    db = Database(schema)
    for i in range(n_answers):
        db.add("R", f"x{i}", f"y{i}")
        for j in range(fanout):
            db.add("S", f"y{i}", f"z{i}_{j}")
    return db


JOIN_QUERY = cq(["a"], "R(a, b)", "S(b, c)")


class TestRegistry:
    def test_all_five_engines_registered(self):
        assert available_engines() == (
            "exact", "hybrid", "proxy", "monte_carlo", "kernel_shap"
        )

    def test_methods_constant_mirrors_registry(self):
        assert METHODS == available_engines()

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="unknown engine 'zen'"):
            get_engine("zen")
        with pytest.raises(ValueError, match="exact"):
            get_engine("zen")

    def test_aliases_resolve_to_canonical(self):
        assert get_engine("cnf_proxy") is get_engine("proxy")
        assert get_engine("mc") is get_engine("monte_carlo")

    def test_instances_are_shared(self):
        assert get_engine("exact") is get_engine("exact")

    def test_attribute_rejects_unknown_method(self):
        db = flights_database()
        with pytest.raises(ValueError):
            attribute(db, flights_query(), answer=(), method="zen")

    def test_register_and_replace_custom_engine(self):
        @register_engine(aliases=("custom-alias",))
        class _StubEngine(Engine):
            name = "stub"
            exact = False

            def explain_circuit(self, circuit, players, options=None):
                return EngineResult(self.name, {p: 0.0 for p in players}, False)

        try:
            assert "stub" in available_engines()
            assert get_engine("custom-alias") is get_engine("stub")
            circuit = chained_dnf(3)
            result = get_engine("stub").explain_circuit(
                circuit, sorted(circuit.reachable_vars())
            )
            assert result.ok and set(result.values) == circuit.reachable_vars()
        finally:
            _REGISTRY.pop("stub", None)
            _INSTANCES.pop("stub", None)
            _ALIASES.pop("custom-alias", None)

    def test_nameless_engine_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            @register_engine
            class _Bad(Engine):
                exact = False

                def explain_circuit(self, circuit, players, options=None):
                    return EngineResult("", {}, False)


class TestEngineAdapters:
    def test_every_engine_answers_on_flights(self):
        db = flights_database()
        for name in available_engines():
            result = attribute(
                db, flights_query(), answer=(), method=name, seed=0
            )
            assert result.values, name
            assert result.seconds >= 0.0

    def test_exact_engine_matches_run_exact(self):
        circuit = bipartite_join_dnf(3, 3)
        players = sorted(circuit.reachable_vars())
        direct = run_exact(circuit, players)
        via_engine = get_engine("exact").explain_circuit(circuit, players)
        assert via_engine.ok and via_engine.exact
        assert via_engine.values == direct.values
        assert via_engine.detail.status == "ok"

    def test_exact_engine_reports_budget_status(self):
        circuit = bipartite_join_dnf(6, 6)
        players = sorted(circuit.reachable_vars())
        options = EngineOptions(budget=CompilationBudget(max_nodes=1))
        result = get_engine("exact").explain_circuit(circuit, players, options)
        assert not result.ok
        assert result.status == "budget"
        assert result.values is None and result.error
        # a failed run holds no values, so it must not claim exactness
        assert not result.exact

    def test_hybrid_timeout_zero_falls_back_immediately(self):
        db = flights_database()
        result = attribute(
            db, flights_query(), answer=(), method="hybrid", timeout=0
        )
        assert not result.exact
        assert result.detail.kind == "proxy"

    def test_failure_message_names_the_engine(self):
        @register_engine
        class _Failing(Engine):
            name = "failing"
            exact = False

            def explain_circuit(self, circuit, players, options=None):
                return EngineResult(
                    self.name, None, False, "budget", error="nope"
                )

        try:
            db = flights_database()
            with pytest.raises(RuntimeError, match="failing computation failed"):
                attribute(db, flights_query(), answer=(), method="failing")
        finally:
            _REGISTRY.pop("failing", None)
            _INSTANCES.pop("failing", None)

    def test_sampling_engines_are_seed_deterministic(self):
        circuit = bipartite_join_dnf(3, 3)
        players = sorted(circuit.reachable_vars())
        for name in ("monte_carlo", "kernel_shap"):
            engine = get_engine(name)
            a = engine.explain_circuit(circuit, players, EngineOptions(seed=7))
            b = engine.explain_circuit(circuit, players, EngineOptions(seed=7))
            assert a.values == b.values, name


class TestStructuralSignature:
    def test_isomorphic_circuits_share_signature(self):
        c1 = bipartite_join_dnf(3, 2)
        mapping = {f"a{i}": f"L{i}" for i in range(3)}
        mapping |= {f"b{j}": f"R{j}" for j in range(2)}
        c2 = c1.rename(mapping)
        sig1, labels1 = c1.structural_signature()
        sig2, labels2 = c2.structural_signature()
        assert sig1 == sig2
        assert labels1 != labels2
        assert [mapping[l] for l in labels1] == list(labels2)

    def test_different_shapes_differ(self):
        sig_a, _ = bipartite_join_dnf(3, 2).structural_signature()
        sig_b, _ = bipartite_join_dnf(2, 3).structural_signature()
        sig_c, _ = chained_dnf(4).structural_signature()
        assert len({sig_a, sig_b, sig_c}) == 3


class TestArtifactCache:
    def test_hit_and_miss_accounting(self):
        c1 = bipartite_join_dnf(3, 2)
        c2 = c1.rename(
            {f"a{i}": f"A{i}" for i in range(3)}
            | {f"b{j}": f"B{j}" for j in range(2)}
        )
        cache = ArtifactCache()
        cache.open(c1).tape()
        cache.open(c2).tape()
        stats = cache.stats
        assert stats.compile_calls == 1
        assert stats.ddnnf_misses == 1
        assert stats.tape_misses == 1
        assert stats.tape_hits == 1
        assert len(cache) == 1

    def test_cached_values_identical_to_uncached(self):
        cache = ArtifactCache()
        base = bipartite_join_dnf(3, 3)
        renamings = [
            {f"a{i}": (tag, "a", i) for i in range(3)}
            | {f"b{j}": (tag, "b", j) for j in range(3)}
            for tag in ("t1", "t2")
        ]
        for mapping in renamings:
            circuit = base.rename(mapping)
            players = sorted(circuit.reachable_vars())
            cached = run_exact(circuit, players, cache=cache)
            uncached = run_exact(circuit, players)
            assert cached.ok and uncached.ok
            assert cached.values == uncached.values
            assert all(
                isinstance(v, Fraction) for v in cached.values.values()
            )
        assert cache.stats.compile_calls == 1

    def test_cnf_shared_across_exact_and_proxy(self):
        cache = ArtifactCache()
        circuit = bipartite_join_dnf(2, 2)
        players = sorted(circuit.reachable_vars())
        run_exact(circuit, players, cache=cache)
        options = EngineOptions(cache=cache)
        proxy = get_engine("proxy").explain_circuit(circuit, players, options)
        assert proxy.ok
        assert cache.stats.cnf_hits >= 1

    def test_budget_failures_are_not_cached(self):
        cache = ArtifactCache()
        circuit = bipartite_join_dnf(4, 4)
        players = sorted(circuit.reachable_vars())
        tight = run_exact(
            circuit, players,
            budget=CompilationBudget(max_nodes=1), cache=cache,
        )
        assert tight.status == "budget"
        assert cache.stats.compile_failures == 1
        retry = run_exact(circuit, players, cache=cache)
        assert retry.ok
        assert cache.stats.compile_calls == 2

    def test_max_entries_zero_disables_storage(self):
        cache = ArtifactCache(max_entries=0)
        circuit = bipartite_join_dnf(2, 2)
        players = sorted(circuit.reachable_vars())
        run_exact(circuit, players, cache=cache)
        run_exact(circuit, players, cache=cache)
        assert cache.stats.compile_calls == 2
        assert len(cache) == 0

    def test_lru_eviction_bounds_entries(self):
        cache = ArtifactCache(max_entries=2)
        for links in (2, 3, 4, 5):
            cache.open(chained_dnf(links)).tape()
        assert len(cache) == 2
        assert cache.stats.evictions == 2

    def test_hybrid_rescued_by_warm_cache(self):
        # A shape already compiled in the cache stays exact even under
        # an absurdly small timeout (compile is skipped on the hit).
        cache = ArtifactCache()
        circuit = bipartite_join_dnf(3, 3)
        players = sorted(circuit.reachable_vars())
        run_exact(circuit, players, cache=cache)
        result = get_engine("hybrid").explain_circuit(
            circuit, players, EngineOptions(timeout=30.0, cache=cache)
        )
        assert result.exact
        # The warm derivative path is served from the tape tier; the
        # expensive knowledge compilation ran exactly once.
        assert cache.stats.tape_hits >= 1
        assert cache.stats.compile_calls == 1


class TestExplainMany:
    def test_batched_results_identical_to_per_answer_path(self):
        db = join_database(n_answers=6)
        per_answer = ShapleyExplainer(db).explain(JOIN_QUERY)
        session = ExplainSession(db, method="exact")
        batched = session.explain_many(JOIN_QUERY)
        assert set(batched) == set(per_answer)
        for answer, engine_result in batched.items():
            reference = per_answer[answer].outcome
            assert engine_result.status == reference.status
            assert engine_result.values == reference.values
            assert all(
                type(a) is type(b) and a == b
                for a, b in zip(
                    sorted(engine_result.values.items()),
                    sorted(reference.values.items()),
                )
            )

    def test_repeated_lineages_compile_once(self):
        db = join_database(n_answers=8)
        session = ExplainSession(db, method="exact")
        results = session.explain_many(JOIN_QUERY)
        stats = session.stats
        assert len(results) == 8
        assert stats["answers_explained"] == 8
        assert stats["unique_shapes"] == 1
        assert stats["compile_calls"] == 1
        assert stats["compile_calls"] < stats["answers_explained"]
        # Warm answers are served from the tape tier (the d-DNNF is
        # only touched once, to lower the shape's tape).
        assert stats["tape_compilations"] == 1
        assert stats["tape_hits"] == 7

    def test_warm_batch_reads_cnf_sizes_without_relabelling(self, monkeypatch):
        import repro.engine.cache as cache_module

        db = join_database(n_answers=6)
        result = lineage(to_plan(JOIN_QUERY, db), db, endogenous_only=True)
        with ExplainSession(db, method="exact") as session:
            cold = session.explain_many(JOIN_QUERY)
            before = session.stats
            relabels = []
            relabel = cache_module._relabel_cnf

            def counting(*args):
                relabels.append(args)
                return relabel(*args)

            monkeypatch.setattr(cache_module, "_relabel_cnf", counting)
            # A repeated batch relabels published Shapley values and
            # reads no CNF at all; each answer through the engine still
            # takes the warm artifact path.
            warm = {
                answer: session.explain_one(
                    result.lineage_of(answer), list(cold[answer].values))
                for answer in cold
            }
            after = session.stats
        assert relabels == []
        assert {a: r.detail.stats for a, r in warm.items()} == {
            a: r.detail.stats for a, r in cold.items()
        }
        # Every warm answer still counts one CNF request, as a hit.
        assert after["cnf_hits"] - before["cnf_hits"] == len(warm)
        assert after["cnf_misses"] == before["cnf_misses"]

    def test_explainer_explain_many_parity(self):
        db = join_database(n_answers=5)
        explainer = ShapleyExplainer(db)
        per_answer = explainer.explain(JOIN_QUERY)
        batched = ShapleyExplainer(db).explain_many(JOIN_QUERY)
        assert {
            a: e.outcome.values for a, e in batched.items()
        } == {a: e.outcome.values for a, e in per_answer.items()}

    def test_per_tuple_budget_outcomes_preserved(self):
        db = join_database(n_answers=4)
        session = ExplainSession(
            db, method="exact",
            options=EngineOptions(
                budget=CompilationBudget(max_nodes=1), timeout=None
            ),
        )
        results = session.explain_many(JOIN_QUERY)
        assert len(results) == 4
        assert all(r.status == "budget" for r in results.values())

    def test_answer_subset_and_unknown_answer(self):
        db = join_database(n_answers=4)
        session = ExplainSession(db, method="exact")
        subset = session.explain_many(JOIN_QUERY, answers=[("x0",), ("x2",)])
        assert set(subset) == {("x0",), ("x2",)}
        with pytest.raises(ValueError, match="not an answer"):
            session.explain_many(JOIN_QUERY, answers=[("nope",)])

    def test_sampling_session_is_deterministic(self):
        db = join_database(n_answers=4)
        runs = []
        for _ in range(2):
            session = ExplainSession(
                db, method="monte_carlo",
                options=EngineOptions(samples_per_fact=5, seed=3),
            )
            results = session.explain_many(JOIN_QUERY)
            runs.append({a: r.values for a, r in results.items()})
        assert runs[0] == runs[1]

    def test_single_worker_matches_default_pool(self):
        db = join_database(n_answers=5)
        wide = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        narrow = ExplainSession(
            db, method="exact", max_workers=1
        ).explain_many(JOIN_QUERY)
        assert {a: r.values for a, r in wide.items()} == {
            a: r.values for a, r in narrow.items()
        }
