"""Tests for Shapley-value reuse across batches.

A cache entry keeps its shape's canonical Shapley values per player
count, so a later batch relabels a known shape instead of rerunning
Algorithm 1 and Equation 3.  Covered here: byte-identical Fractions and
honest counters on a warm session pass (thread and socket transports),
batch scoping (a shape's siblings never reuse their own batch's
representative), the player-count key, the foreign-player check and
deadlines on a reused shape, disabled storage, eviction and
``clear()``, Algorithm 1 staying a pure function, and the store digest
being computed once per handle.
"""

from fractions import Fraction

import pytest

import repro.engine.cache as cache_module
import repro.engine.store as store_module
from repro.circuits import eliminate_auxiliary, tseytin_transform
from repro.circuits.circuit import CircuitError
from repro.compiler import CompilationBudget, compile_cnf
from repro.core import run_exact, shapley_all_facts
from repro.core.numerics import FastpathStats, compile_tape
from repro.core.pipeline import run_exact_batch
from repro.core.shapley import shapley_all_facts_batched
from repro.db import Database, RelationSchema, Schema
from repro.engine import ArtifactCache, ExplainSession, PersistentArtifactStore
from repro.workloads.synthetic import bipartite_join_dnf, chained_dnf

from .test_batched import _fleet
from .test_store import JOIN_QUERY

SWEEP_KEYS = ("fastpath_hits", "fastpath_fallbacks")


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


def values_of(results) -> dict:
    return {answer: result.values for answer, result in results.items()}


def sweeps(stats) -> int:
    return sum(stats[key] for key in SWEEP_KEYS)


def reference(circuit, players) -> dict:
    """Algorithm 1 on the circuit's own compiled d-DNNF, no cache."""
    cnf = tseytin_transform(circuit)
    ddnnf = eliminate_auxiliary(
        compile_cnf(cnf).circuit, set(cnf.labels.values()))
    return shapley_all_facts(ddnnf, players)


class TestSessionReuse:
    def test_second_batch_relabels_every_answer(self):
        db = mixed_join_database()
        with ExplainSession(db, method="exact", max_workers=2) as session:
            cold = session.explain_many(JOIN_QUERY)
            first = session.stats
            warm = session.explain_many(JOIN_QUERY)
            second = session.stats
        assert values_of(warm) == values_of(cold)
        for values in values_of(warm).values():
            assert all(type(v) is Fraction for v in values.values())
        # one batch: every answer swept, siblings included
        assert sweeps(first) == len(cold)
        assert first["shapley_reuse_hits"] == 0
        # the next batch: no sweep at all, every answer relabelled
        for key in SWEEP_KEYS:
            assert second[key] == first[key], key
        assert second["batched_answers"] == first["batched_answers"]
        assert second["shapley_reuse_hits"] == len(warm)
        for result in warm.values():
            timings = result.detail.timings
            assert not any(key.startswith("tier_") for key in timings)
            assert "batch_exec" not in timings
            assert timings["shapley"] >= 0.0

    def test_socket_workers_reuse_only_across_batches(self, tmp_path):
        db = mixed_join_database()
        with _fleet(str(tmp_path / "store")) as coordinator, ExplainSession(
            db, method="exact", executor="socket",
            coordinator=coordinator.address, min_workers=2,
        ) as session:
            cold = session.explain_many(JOIN_QUERY)
            first = session.stats
            warm = session.explain_many(JOIN_QUERY)
            second = session.stats
        assert values_of(warm) == values_of(cold)
        remote = [f"remote_{key}" for key in SWEEP_KEYS]
        swept = [sum(stats[key] for key in remote) for stats in (first, second)]
        reused = second["remote_shapley_reuse_hits"]
        # one batch: every answer swept on some worker, none reused
        assert swept[0] == len(cold)
        assert first["remote_shapley_reuse_hits"] == 0
        # each worker keeps its own cache: an answer reuses when it
        # lands on a worker that already published its shape
        assert reused > 0
        assert swept[1] - swept[0] + reused == len(warm)

    def test_process_pool_keeps_fractions_across_batches(self):
        db = mixed_join_database()
        with ExplainSession(
            db, method="exact", executor="process", max_workers=2
        ) as session:
            cold = session.explain_many(JOIN_QUERY)
            warm = session.explain_many(JOIN_QUERY)
        assert values_of(warm) == values_of(cold)


class TestDirectCalls:
    def test_values_are_keyed_by_player_count(self):
        circuit = chained_dnf(4)
        facts = sorted(circuit.reachable_vars())
        padded = facts + ["outside-1", "outside-2"]
        cache = ArtifactCache()
        for players in (padded, facts, padded, facts):
            outcome = run_exact(circuit, players, cache=cache)
            assert outcome.values == reference(circuit, players)
        # a new player count is a miss that sweeps; a known one reuses
        assert sweeps(cache.stats.as_dict()) == 2
        assert cache.stats.shapley_reuse_hits == 2

    def test_isomorphic_lineage_is_relabelled(self):
        circuit = chained_dnf(5)
        facts = sorted(circuit.reachable_vars())
        cache = ArtifactCache()
        run_exact(circuit, facts, cache=cache)
        mapping = {fact: ("copy", fact) for fact in facts}
        twin = circuit.rename(mapping)
        players = [mapping[fact] for fact in facts]
        outcome = run_exact(twin, players, cache=cache)
        assert outcome.values == reference(twin, players)
        assert cache.stats.shapley_reuse_hits == 1
        assert outcome.stats.n_facts == len(facts)
        assert outcome.stats.ddnnf_size > 0

    def test_players_missing_a_circuit_fact_raise_on_reuse(self):
        circuit = chained_dnf(4)
        facts = sorted(circuit.reachable_vars())
        cache = ArtifactCache()
        run_exact(circuit, facts, cache=cache)
        # same player count, so the published values are found
        wrong = facts[1:] + ["outsider"]
        with pytest.raises(CircuitError):
            run_exact(circuit, wrong, cache=cache)
        with pytest.raises(CircuitError):
            run_exact_batch(
                [circuit, circuit], [facts, wrong], cache=cache)
        assert cache.stats.shapley_reuse_hits == 0

    def test_past_deadline_times_out_on_reuse(self):
        circuit = chained_dnf(4)
        facts = sorted(circuit.reachable_vars())
        cache = ArtifactCache()
        run_exact(circuit, facts, cache=cache)
        outcome = run_exact(
            circuit, facts, cache=cache,
            budget=CompilationBudget(max_seconds=0.0),
        )
        assert outcome.status == "timeout"
        assert cache.stats.shapley_reuse_hits == 0

    def test_batch_lanes_of_one_call_share_a_sweep(self):
        circuit = chained_dnf(4)
        facts = sorted(circuit.reachable_vars())
        mapping = {fact: ("copy", fact) for fact in facts}
        circuits = [circuit, circuit.rename(mapping)]
        players = [facts, [mapping[fact] for fact in facts]]
        cache = ArtifactCache()
        first = run_exact_batch(circuits, players, cache=cache)
        assert sweeps(cache.stats.as_dict()) == 2
        assert cache.stats.shapley_reuse_hits == 0
        second = run_exact_batch(circuits, players, cache=cache)
        assert [o.values for o in second] == [o.values for o in first]
        assert sweeps(cache.stats.as_dict()) == 2
        assert cache.stats.shapley_reuse_hits == 2
        assert cache.stats.batched_answers == 2


class TestCacheLifetime:
    def _run(self, cache, *circuits):
        for circuit in circuits:
            run_exact(circuit, sorted(circuit.reachable_vars()), cache=cache)

    def test_disabled_storage_never_reuses(self):
        cache = ArtifactCache(max_entries=0)
        circuit = chained_dnf(4)
        self._run(cache, circuit, circuit, circuit)
        assert cache.stats.shapley_reuse_hits == 0
        assert sweeps(cache.stats.as_dict()) == 3

    def test_eviction_drops_the_values(self):
        a, b = chained_dnf(4), bipartite_join_dnf(2, 3)
        evicting = ArtifactCache(max_entries=1)
        self._run(evicting, a, b, a)
        assert evicting.stats.evictions >= 1
        assert evicting.stats.shapley_reuse_hits == 0
        roomy = ArtifactCache(max_entries=2)
        self._run(roomy, a, b, a)
        assert roomy.stats.shapley_reuse_hits == 1

    def test_clear_drops_the_values(self):
        cache = ArtifactCache()
        circuit = chained_dnf(4)
        self._run(cache, circuit)
        cache.clear()
        self._run(cache, circuit)
        assert cache.stats.shapley_reuse_hits == 0


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
