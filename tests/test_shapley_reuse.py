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
"""

from fractions import Fraction

import repro.core.pipeline as pipeline_module
import repro.engine.cache as cache_module
import repro.engine.service.coordinator as coordinator_module
import repro.engine.store as store_module
from repro.circuits import eliminate_auxiliary, tseytin_transform
from repro.compiler import compile_cnf
from repro.core import run_exact, shapley_all_facts
from repro.core.numerics import FastpathStats, compile_tape
from repro.core.shapley import shapley_all_facts_batched
from repro.db import Database, RelationSchema, Schema, cq
from repro.engine import ArtifactCache, ExplainSession, PersistentArtifactStore
from repro.workloads.flights import flights_database, flights_query
from repro.workloads.synthetic import chained_dnf

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
