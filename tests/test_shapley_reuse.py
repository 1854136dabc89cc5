"""Tests for Shapley-value reuse across batches of one session.

After a batch returns, ``ExplainSession.explain_many`` publishes each
exact derivative-mode shape's canonical Shapley values on its cache
entry; a later batch answers every job whose shape is published by a
relabel on the client, before planning or dispatch.  Covered here:
byte-identical Fractions and honest counters on a repeated batch over
the thread, process and socket transports (the socket repeat sends no
task at all), shapes shared across queries, batches mixing hits and
misses, the efficiency check at publication, disabled storage,
eviction and ``clear()``, direct calls that always sweep, Algorithm 1
staying a pure function, and the store digest being computed once per
handle.

The session also remembers each query's lineage and its answers'
canonical forms between calls, until a relation the query scans
changes: every ``Database`` mutator invalidates it, a random
interleaving of mutations and calls matches a fresh session, and the
memo's bounds, switches and lifetime are covered too.
"""

import gc
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline_module
import repro.engine.cache as cache_module
import repro.engine.service.coordinator as coordinator_module
import repro.engine.session as session_module
import repro.engine.store as store_module
from repro.circuits import eliminate_auxiliary, tseytin_transform
from repro.compiler import compile_cnf
from repro.core import run_exact, shapley_all_facts
from repro.core.numerics import FastpathStats, compile_tape
from repro.core.shapley import shapley_all_facts_batched
from repro.db import (
    Col, Comparison, Const, Database, Fact, Project, RelationSchema, Scan,
    Schema, Select, cq, plan_sql,
)
from repro.db.evaluate import LineageResult
from repro.engine import ArtifactCache, ExplainSession, PersistentArtifactStore
from repro.workloads.flights import (
    direct_query,
    flights_database,
    flights_query,
    one_stop_query,
)
from repro.workloads.imdb import imdb_schema
from repro.workloads.imdb_queries import IMDB_ALL_QUERIES
from repro.workloads.synthetic import chained_dnf
from repro.workloads.tpch import tpch_schema
from repro.workloads.tpch_queries import TPCH_QUERIES

from .test_batched import _fleet
from .test_store import JOIN_QUERY, join_database

SWEEP_KEYS = ("fastpath_hits", "fastpath_fallbacks")

#: Answers by ``b``: each ``y_i`` has one R row, so every answer's
#: lineage has the shape of the JOIN_QUERY answer ``x_i``.
JOIN_BY_B = cq(["b"], "R(a, b)", "S(b, c)")


def mixed_join_database() -> Database:
    """Three lineage shapes (fan-outs 1-3), each answered twice: every
    shape has a representative and a sibling."""
    schema = Schema.of(
        RelationSchema.of("R", "a", "b"), RelationSchema.of("S", "b", "c")
    )
    db = Database(schema)
    for i in range(6):
        db.add("R", f"x{i}", f"y{i}")
        for j in range(1 + i % 3):
            db.add("S", f"y{i}", f"z{i}_{j}")
    return db


def items_of(results) -> dict:
    """Every answer's values as an ordered item list: equal lists mean
    the same Fractions in the same player order."""
    return {
        answer: list(result.values.items())
        for answer, result in results.items()
    }


def sweeps(stats) -> int:
    return sum(stats[key] for key in SWEEP_KEYS)


def reference(circuit, players) -> dict:
    """Algorithm 1 on the circuit's own compiled d-DNNF, no cache."""
    cnf = tseytin_transform(circuit)
    ddnnf = eliminate_auxiliary(
        compile_cnf(cnf).circuit, set(cnf.labels.values()))
    return shapley_all_facts(ddnnf, players)


def uncached(db, query) -> dict:
    """The query's results on a session that stores nothing."""
    with ExplainSession(
        db, method="exact", cache=ArtifactCache(max_entries=0)
    ) as session:
        return session.explain_many(query)


class TestSessionReuse:
    def test_second_batch_relabels_every_answer(self):
        db = mixed_join_database()
        with ExplainSession(db, method="exact", max_workers=2) as session:
            cold = session.explain_many(JOIN_QUERY)
            first = session.stats
            warm = session.explain_many(JOIN_QUERY)
            second = session.stats
        assert items_of(warm) == items_of(cold)
        for result in warm.values():
            assert all(type(v) is Fraction for v in result.values.values())
        # one batch: every answer swept, siblings included
        assert sweeps(first) == len(cold)
        assert first["shapley_reuse_hits"] == 0
        # the next batch: nothing dispatched, every answer relabelled
        for key in (*SWEEP_KEYS, "batched_answers", "cnf_hits", "tape_hits"):
            assert second[key] == first[key], key
        assert second["shapley_reuse_hits"] == len(warm)
        assert second["unique_shapes"] == first["unique_shapes"]
        assert second["answers_explained"] == 2 * len(cold)
        for answer, result in warm.items():
            assert result.ok and result.exact and result.status == "ok"
            outcome = result.detail
            assert outcome.stats == cold[answer].detail.stats
            assert set(outcome.timings) == {"shapley"}
            assert outcome.timings["shapley"] >= 0.0

    def test_process_pool_keeps_fractions_across_batches(self):
        db = mixed_join_database()
        with ExplainSession(
            db, method="exact", executor="process", max_workers=2
        ) as session:
            cold = session.explain_many(JOIN_QUERY)
            warm = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert items_of(warm) == items_of(cold)
        assert stats["shapley_reuse_hits"] == len(warm)

    def test_socket_workers_reuse_only_across_batches(
        self, tmp_path, monkeypatch
    ):
        db = mixed_join_database()
        sent = []
        send = coordinator_module.send_msg

        def recording(sock, message, *args, **kwargs):
            sent.append(message.get("op"))
            return send(sock, message, *args, **kwargs)

        monkeypatch.setattr(coordinator_module, "send_msg", recording)
        with _fleet(str(tmp_path / "store")) as coordinator, ExplainSession(
            db, method="exact", executor="socket",
            coordinator=coordinator.address, min_workers=2,
        ) as session:
            cold = session.explain_many(JOIN_QUERY)
            first = session.stats
            cold_ops = list(sent)
            warm = session.explain_many(JOIN_QUERY)
            second = session.stats
            warm_ops = sent[len(cold_ops):]
        assert items_of(warm) == items_of(cold)
        # the batch: every answer swept on some worker, none reused
        remote = [f"remote_{key}" for key in SWEEP_KEYS]
        assert sum(first[key] for key in remote) == len(cold)
        assert first["shapley_reuse_hits"] == 0
        # representatives and sibling units all go out as task_groups
        assert "task_group" in cold_ops and "task" not in cold_ops
        # the repeat: relabelled on the client, so no task reaches the
        # fleet and no worker counter moves
        assert second["shapley_reuse_hits"] == len(warm)
        assert "task_group" not in warm_ops
        for key in first:
            if key.startswith("remote_fastpath_"):
                assert second[key] == first[key], key

    def test_queries_sharing_a_shape_hit_across_queries(self):
        db = mixed_join_database()
        with ExplainSession(db, method="exact") as session:
            session.explain_many(JOIN_QUERY)
            before = session.stats
            by_b = session.explain_many(JOIN_BY_B)
            after = session.stats
        assert len(by_b) == 6
        assert after["shapley_reuse_hits"] == len(by_b)
        assert sweeps(after) == sweeps(before)
        assert items_of(by_b) == items_of(uncached(db, JOIN_BY_B))

    def test_mixed_hits_and_misses_keep_answer_order(self):
        db = mixed_join_database()
        expected = uncached(db, JOIN_QUERY)
        with ExplainSession(db, method="exact") as session:
            # publishes the fan-out-1 shape only (answers x0 and x3)
            session.explain_many(JOIN_QUERY, answers=[("x0",)])
            before = session.stats
            results = session.explain_many(JOIN_QUERY)
            after = session.stats
        assert list(results) == list(expected)
        assert items_of(results) == items_of(expected)
        assert after["shapley_reuse_hits"] == 2
        assert sweeps(after) - sweeps(before) == len(results) - 2

    def test_values_breaking_efficiency_are_not_published(self, monkeypatch):
        db = flights_database()
        query = flights_query()
        real = pipeline_module.shapley_all_facts_batched

        def inflated(*args, **kwargs):
            values_list = real(*args, **kwargs)
            for values in values_list:
                values[next(iter(values))] += 1
            return values_list

        with ExplainSession(db, method="exact") as session:
            monkeypatch.setattr(
                pipeline_module, "shapley_all_facts_batched", inflated)
            session.explain_many(query)
            monkeypatch.undo()
            refused = session.stats
            swept = session.explain_many(query)
            again = session.stats
            reused = session.explain_many(query)
            last = session.stats
        assert refused["invariant_violations"] == 1
        # the refused shape sweeps again, then publishes and reuses
        assert again["shapley_reuse_hits"] == 0
        assert sweeps(again) == sweeps(refused) + len(swept)
        assert last["shapley_reuse_hits"] == len(reused)
        assert last["invariant_violations"] == 1
        assert items_of(reused) == items_of(swept)
        assert items_of(swept) == items_of(uncached(db, query))

    def test_a_refused_shape_counts_once_for_all_its_answers(
        self, monkeypatch
    ):
        # Four answers of one shape, every one of them inflated on the
        # representative's group of one and on the sibling group: the
        # shape publishes once per batch, so its refusal counts one
        # violation, not four.
        db = join_database(4, 2)
        real_batched = pipeline_module.shapley_all_facts_batched

        def bump(values):
            values[next(iter(values))] += 1
            return values

        monkeypatch.setattr(
            pipeline_module, "shapley_all_facts_batched",
            lambda *args, **kwargs: [
                bump(values) for values in real_batched(*args, **kwargs)])
        with ExplainSession(db, method="exact") as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert len(results) == 4 and stats["unique_shapes"] == 1
        assert stats["invariant_violations"] == 1


class TestDirectCalls:
    def test_isomorphic_lineage_is_relabelled(self):
        circuit = chained_dnf(5)
        facts = sorted(circuit.reachable_vars())
        cache = ArtifactCache()
        outcome = run_exact(circuit, facts, cache=cache)
        cache.open(circuit).publish_shapley_values(
            outcome.values, outcome.stats)
        mapping = {fact: ("copy", fact) for fact in facts}
        twin = cache.open(circuit.rename(mapping))
        canonical, stats = twin.shapley_values()
        relabelled = dict(zip(twin.labels, canonical))
        players = [mapping[fact] for fact in facts]
        assert relabelled == reference(circuit.rename(mapping), players)
        assert stats == outcome.stats
        # the first publication wins, even over values that would pass
        # the efficiency check
        swapped = canonical[1:] + canonical[:1]
        assert swapped != canonical
        twin.publish_shapley_values(dict(zip(twin.labels, swapped)), stats)
        assert twin.shapley_values()[0] == canonical
        assert cache.stats.invariant_violations == 0

    def test_run_exact_always_sweeps(self):
        circuit = chained_dnf(4)
        facts = sorted(circuit.reachable_vars())
        cache = ArtifactCache()
        outcome = run_exact(circuit, facts, cache=cache)
        cache.open(circuit).publish_shapley_values(
            outcome.values, outcome.stats)
        for _ in range(2):
            assert run_exact(circuit, facts, cache=cache).values == \
                outcome.values
        assert sweeps(cache.stats.as_dict()) == 3
        assert cache.stats.shapley_reuse_hits == 0


class TestCacheLifetime:
    def _hits(self, cache, batches: int, clear: bool = False) -> int:
        """Reuse hits over ``batches`` batches of JOIN_QUERY (6 answers,
        3 shapes), clearing the cache before each when ``clear``."""
        db = mixed_join_database()
        with ExplainSession(db, method="exact", cache=cache) as session:
            for _ in range(batches):
                if clear:
                    cache.clear()
                session.explain_many(JOIN_QUERY)
            return session.stats["shapley_reuse_hits"]

    def test_disabled_storage_never_reuses(self):
        cache = ArtifactCache(max_entries=0)
        assert self._hits(cache, 3) == 0
        assert sweeps(cache.stats.as_dict()) == 3 * 6

    def test_eviction_drops_the_values(self):
        # three shapes through two slots: every open evicts the shape
        # the next answer needs
        evicting = ArtifactCache(max_entries=2)
        assert self._hits(evicting, 2) == 0
        assert evicting.stats.evictions > 0
        assert self._hits(ArtifactCache(max_entries=3), 2) == 6

    def test_clear_drops_the_values(self):
        cache = ArtifactCache()
        assert self._hits(cache, 2, clear=True) == 0
        assert sweeps(cache.stats.as_dict()) == 2 * 6


class TestAlgorithmOneStaysPure:
    def test_repeated_calls_on_one_tape_sweep_every_time(self):
        circuit = chained_dnf(6)
        cnf = tseytin_transform(circuit)
        ddnnf = eliminate_auxiliary(
            compile_cnf(cnf).circuit, set(cnf.labels.values()))
        tape = compile_tape(ddnnf.condition({}))
        players = sorted(ddnnf.reachable_vars())
        stats = FastpathStats()
        first = shapley_all_facts(
            ddnnf, players, tape=tape, fastpath_stats=stats)
        second = shapley_all_facts(
            ddnnf, players, tape=tape, fastpath_stats=stats)
        assert first == second
        assert stats.hits + stats.fallbacks == 2
        batched = FastpathStats()
        for _ in range(2):
            shapley_all_facts_batched(
                [tape], [players], fastpath_stats=batched)
        assert batched.hits + batched.fallbacks == 2


class TestStoreDigest:
    def test_cold_tape_hashes_the_signature_once(self, tmp_path, monkeypatch):
        real = store_module.signature_digest
        hashed = []

        def counting(signature):
            hashed.append(signature)
            return real(signature)

        monkeypatch.setattr(store_module, "signature_digest", counting)
        monkeypatch.setattr(cache_module, "signature_digest", counting)
        cache = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        handle = cache.open(chained_dnf(5))
        handle.tape()
        assert cache.stats.compile_calls == 1
        assert hashed.count(handle.signature) == 1
        # file names are unchanged, so existing stores keep hitting
        digest = real(handle.signature)
        for kind in ("cnf", "dnnf", "tape"):
            assert (tmp_path / f"{digest}.{kind}").exists(), kind


def join_with_spare_relation() -> Database:
    """:func:`mixed_join_database` plus a relation ``T`` that
    JOIN_QUERY does not scan."""
    schema = Schema.of(
        RelationSchema.of("R", "a", "b"), RelationSchema.of("S", "b", "c"),
        RelationSchema.of("T", "d"),
    )
    db = Database(schema)
    for fact in mixed_join_database().facts():
        db.add(fact.relation, *fact.values)
    db.add("T", "t0")
    return db


#: One mutation per ``Database`` mutator, each changing JOIN_QUERY's
#: answers or Fractions on :func:`join_with_spare_relation`.
MUTATIONS = {
    "add": lambda db: db.add("S", "y0", "z_new"),
    "add_many": lambda db: db.add_many("R", [("x_new", "y1")]),
    "remove": lambda db: db.remove(Fact("S", ("y1", "z1_0"))),
    "set_endogenous": lambda db: db.set_endogenous(
        Fact("S", ("y2", "z2_0")), False),
    "mark_relation": lambda db: db.mark_relation("R", False),
}


def lineage_calls(monkeypatch) -> list:
    """Record every query evaluation the session makes."""
    calls = []
    real = session_module.lineage

    def counting(plan, db, **kwargs):
        calls.append(plan)
        return real(plan, db, **kwargs)

    monkeypatch.setattr(session_module, "lineage", counting)
    return calls


class TestLineageInvalidation:
    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS)
    def test_each_mutator_invalidates_the_memo(self, mutate):
        db = join_with_spare_relation()
        with ExplainSession(db, method="exact") as session:
            before = session.explain_many(JOIN_QUERY)
            session.explain_many(JOIN_QUERY)
            hits = session.stats["lineage_reuse_hits"]
            assert hits == 1
            mutate(db)
            after = session.explain_many(JOIN_QUERY)
            assert session.stats["lineage_reuse_hits"] == hits
        assert items_of(after) != items_of(before)
        assert list(after) == list(uncached(db, JOIN_QUERY))
        assert items_of(after) == items_of(uncached(db, JOIN_QUERY))

    def test_a_relation_the_query_does_not_scan_keeps_the_hit(self):
        db = join_with_spare_relation()
        with ExplainSession(db, method="exact") as session:
            before = session.explain_many(JOIN_QUERY)
            db.add("T", "t1")
            db.mark_relation("T", False)
            after = session.explain_many(JOIN_QUERY)
            assert session.stats["lineage_reuse_hits"] == 1
        assert items_of(after) == items_of(before)

    def test_every_mutator_bumps_only_its_relation(self):
        db = join_with_spare_relation()
        for name, mutate in MUTATIONS.items():
            versions = {rel: db.version(rel) for rel in ("R", "S", "T")}
            mutate(db)
            changed = {rel for rel in versions
                       if db.version(rel) != versions[rel]}
            assert len(changed) == 1 and "T" not in changed, name


def _mutate(db: Database, op: str, pick: int) -> None:
    """One random mutation of a database of binary relations."""
    facts = list(db.facts())
    relations = sorted(db.schema.names())
    relation = relations[pick % len(relations)]
    if op in ("add", "add_many"):
        own = db.relation(relation) or facts
        first, second = own[pick % len(own)], own[(pick // 3) % len(own)]
        rows = [(first.values[0], second.values[-1])]
        if op == "add_many":
            rows.append((second.values[0], first.values[-1]))
        db.add_many(relation, rows, endogenous=pick % 2 == 0)
    elif op == "remove" and facts:
        db.remove(facts[pick % len(facts)])
    elif op == "set_endogenous" and facts:
        fact = facts[pick % len(facts)]
        db.set_endogenous(fact, not db.is_endogenous(fact))
    elif op == "mark_relation":
        db.mark_relation(relation, pick % 3 == 0)


class TestLineageMemoProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        flights=st.booleans(),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["add", "add_many", "remove",
                                 "set_endogenous", "mark_relation", "none"]),
                st.integers(0, 60),
            ),
            min_size=1, max_size=4,
        ),
    )
    def test_interleaved_mutations_match_a_fresh_session(self, flights, steps):
        db = flights_database() if flights else mixed_join_database()
        query = flights_query() if flights else JOIN_QUERY
        with ExplainSession(db, method="exact") as session:
            session.explain_many(query)
            for op, pick in steps:
                _mutate(db, op, pick)
                got = session.explain_many(query)
                expected = uncached(db, query)
                assert list(got) == list(expected)
                assert items_of(got) == items_of(expected)


class TestLineageMemo:
    def test_repeats_evaluate_the_query_once(self, monkeypatch):
        calls = lineage_calls(monkeypatch)
        db = mixed_join_database()
        with ExplainSession(db, method="exact") as session:
            first = session.explain_many(JOIN_QUERY)
            second = session.explain_many(JOIN_QUERY)
            assert session.stats["lineage_reuse_hits"] == 1
        assert len(calls) == 1
        assert items_of(second) == items_of(first)

    def test_subset_then_reordered_full_list(self, monkeypatch):
        extracted, opened = [], []
        real_extract = LineageResult.lineage_of
        real_open = ArtifactCache.open

        def extract(result, row):
            extracted.append(row)
            return real_extract(result, row)

        def open_(cache, circuit):
            opened.append(circuit)
            return real_open(cache, circuit)

        monkeypatch.setattr(LineageResult, "lineage_of", extract)
        monkeypatch.setattr(ArtifactCache, "open", open_)
        db = mixed_join_database()
        expected = uncached(db, JOIN_QUERY)
        extracted.clear()
        opened.clear()
        full = list(reversed(list(expected)))
        with ExplainSession(db, method="exact") as session:
            subset = session.explain_many(JOIN_QUERY, answers=full[:2])
            results = session.explain_many(JOIN_QUERY, answers=full)
        assert list(subset) == full[:2]
        assert list(results) == full
        assert items_of(results) == {a: items_of(expected)[a] for a in full}
        # each answer extracted and canonicalized exactly once
        assert sorted(extracted) == sorted(full)
        assert len(opened) == len(full)

    def test_unknown_answer_raises_on_a_hit(self):
        db = mixed_join_database()
        with ExplainSession(db, method="exact") as session:
            session.explain_many(JOIN_QUERY)
            with pytest.raises(ValueError, match="not an answer"):
                session.explain_many(JOIN_QUERY, answers=[("nope",)])
            assert session.stats["lineage_reuse_hits"] == 1

    def test_warm_ahead_then_explain_many_evaluates_once(self, monkeypatch):
        calls = lineage_calls(monkeypatch)
        db = mixed_join_database()
        with ExplainSession(db, method="exact") as session:
            session.warm_ahead(JOIN_QUERY)
            results = session.explain_many(JOIN_QUERY)
            assert session.stats["lineage_reuse_hits"] == 1
        assert len(calls) == 1
        assert items_of(results) == items_of(uncached(db, JOIN_QUERY))

    @pytest.mark.parametrize("drop", ["clear", "evict"])
    def test_dropped_shapes_sweep_again(self, drop):
        # a fresh handle per call: the memo keeps canonical forms, so a
        # cleared or evicted shape publishes nothing the next call reads
        cache = ArtifactCache(max_entries=2 if drop == "evict" else None)
        db = mixed_join_database()
        with ExplainSession(db, method="exact", cache=cache) as session:
            first = session.explain_many(JOIN_QUERY)
            before = session.stats
            if drop == "clear":
                cache.clear()
            second = session.explain_many(JOIN_QUERY)
            after = session.stats
        assert after["lineage_reuse_hits"] == 1
        assert after["shapley_reuse_hits"] == before["shapley_reuse_hits"]
        assert sweeps(after) - sweeps(before) == len(second)
        assert items_of(second) == items_of(first)

    def test_disabled_cache_keeps_no_memo(self, monkeypatch):
        calls = lineage_calls(monkeypatch)
        db = mixed_join_database()
        with ExplainSession(
            db, method="exact", cache=ArtifactCache(max_entries=0)
        ) as session:
            for _ in range(3):
                session.explain_many(JOIN_QUERY)
            assert session.stats["lineage_reuse_hits"] == 0
        assert len(calls) == 3

    def test_close_releases_the_entries(self, monkeypatch):
        results = []
        real = session_module.lineage

        def keeping(plan, db, **kwargs):
            results.append(real(plan, db, **kwargs))
            return results[-1]

        monkeypatch.setattr(session_module, "lineage", keeping)
        session = ExplainSession(mixed_join_database(), method="exact")
        session.explain_many(JOIN_QUERY)
        held = weakref.ref(results.pop())
        gc.collect()
        assert held() is not None
        session.close()
        gc.collect()
        assert held() is None

    def test_lru_bound_on_plans(self, monkeypatch):
        assert session_module.LINEAGE_MEMO_PLANS >= 32
        queries = [JOIN_QUERY, JOIN_BY_B, cq(["c"], "R(a, b)", "S(b, c)")]
        for bound, hits in ((2, 0), (3, 3)):
            monkeypatch.setattr(session_module, "LINEAGE_MEMO_PLANS", bound)
            with ExplainSession(mixed_join_database()) as session:
                for _ in range(2):
                    for query in queries:
                        session.explain_many(query)
                assert session.stats["lineage_reuse_hits"] == hits, bound

    def test_entries_belong_to_the_session_database(self, monkeypatch):
        calls = lineage_calls(monkeypatch)
        db = mixed_join_database()
        # the same inserts, one fact at a time, with R exogenous: equal
        # versions on different data, so only identity tells the two
        # databases apart
        other = Database(db.schema)
        for fact in db.facts():
            other.add(fact.relation, *fact.values,
                      endogenous=fact.relation != "R")
        assert all(other.version(rel) == db.version(rel) for rel in "RS")
        with ExplainSession(db, method="exact") as session:
            session.explain_many(JOIN_QUERY)
            session.database = other
            results = session.explain_many(JOIN_QUERY)
            assert session.stats["lineage_reuse_hits"] == 0
        assert len(calls) == 2
        assert items_of(results) == items_of(uncached(other, JOIN_QUERY))

    def test_sampling_engines_reuse_lineage_too(self, monkeypatch):
        calls = lineage_calls(monkeypatch)
        db = mixed_join_database()
        with ExplainSession(db, method="monte_carlo") as session:
            first = session.explain_many(JOIN_QUERY)
            second = session.explain_many(JOIN_QUERY)
        assert len(calls) == 1
        assert list(second) == list(first)
        assert all(list(r.values) == list(first[a].values)
                   for a, r in second.items())

    def test_workload_plans_hash(self):
        schemas = [(tpch_schema(), TPCH_QUERIES),
                   (imdb_schema(), IMDB_ALL_QUERIES)]
        plans = [
            (plan_sql(spec.sql, schema), plan_sql(spec.sql, schema))
            for schema, specs in schemas for spec in specs
        ]
        flights = flights_database()
        for query in (flights_query(), direct_query(), one_stop_query()):
            plans.append((pipeline_module.to_plan(query, flights),
                          pipeline_module.to_plan(query, flights)))
        assert len(plans) == len(TPCH_QUERIES) + len(IMDB_ALL_QUERIES) + 3
        for first, second in plans:
            assert first == second and hash(first) == hash(second)

    def test_unhashable_plans_are_evaluated_every_call(self, monkeypatch):
        calls = lineage_calls(monkeypatch)
        plan = Project(
            Select(Scan("R"), Comparison("!=", Col("R.a"), Const(["x0"]))),
            ("R.a",),
        )
        db = mixed_join_database()
        with ExplainSession(db, method="exact") as session:
            first = session.explain_many(plan)
            second = session.explain_many(plan)
            assert session.stats["lineage_reuse_hits"] == 0
        assert len(calls) == 2 and len(first) == 6
        assert items_of(second) == items_of(first)

    def test_concurrent_calls_share_one_memo(self, monkeypatch):
        # more threads than cores on one session, switching often: every
        # call is either a memo hit or an evaluation, and every answer
        # keeps one record however many threads requested it first
        calls = lineage_calls(monkeypatch)
        n_threads, rounds = 8, 15
        db = mixed_join_database()
        session = ExplainSession(db, method="exact")
        signatures = []
        errors = []

        def work():
            try:
                for _ in range(rounds):
                    jobs = session._build_jobs(JOIN_QUERY, None)
                    signatures.append([job.signature for job in jobs])
            except Exception as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        total = n_threads * rounds
        assert len(signatures) == total
        assert all(found == signatures[0] for found in signatures)
        hits = session.stats["lineage_reuse_hits"]
        assert hits + len(calls) == total and hits > 0
        (entry,) = session._memo.values()
        assert len(entry.records) == 6
        session.close()


class TestParsedPlans:
    SQL = "SELECT src FROM Flights WHERE dest = 'ORY'"

    @staticmethod
    def parses(monkeypatch) -> list:
        calls = []
        real = session_module.to_plan

        def counting(query, db):
            calls.append(query)
            return real(query, db)

        monkeypatch.setattr(session_module, "to_plan", counting)
        return calls

    def test_sql_text_is_parsed_once(self, monkeypatch):
        calls = self.parses(monkeypatch)
        db = flights_database()
        with ExplainSession(db, method="exact") as session:
            first = session.explain_many(self.SQL)
            second = session.explain_many(self.SQL)
            assert session.stats["lineage_reuse_hits"] == 1
        assert calls == [self.SQL]
        assert items_of(second) == items_of(first)

    def test_schema_change_parses_again(self, monkeypatch):
        calls = self.parses(monkeypatch)
        db = flights_database()
        with ExplainSession(db, method="exact") as session:
            session.explain_many(self.SQL)
            db.schema.add(RelationSchema.of("Spare", "x"))
            session.explain_many(self.SQL)
        assert calls == [self.SQL, self.SQL]

    def test_plans_are_not_texts(self, monkeypatch):
        calls = self.parses(monkeypatch)
        with ExplainSession(flights_database(), method="exact") as session:
            for _ in range(2):
                session.explain_many(flights_query())
        assert len(calls) == 2
