"""Tests for the persistent artifact store and process-parallel
execution: serialization round trips, two-tier cache layering,
cross-process parity, corruption handling, and the engine-layer
regression fixes that ride along (single canonicalization pass,
stable per-answer seeds, disabled-storage eviction accounting)."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.circuits import Circuit, circuit_from_nested
from repro.circuits.circuit import CircuitError
from repro.circuits.cnf import Cnf, CnfError
from repro.compiler import compile_circuit
from repro.core import run_exact, shapley_of_fact
from repro.core.attribution import attribute
from repro.core.pipeline import to_plan
from repro.db import Database, RelationSchema, Schema, cq
from repro.db.evaluate import lineage
from repro.engine import (
    ArtifactCache,
    EngineOptions,
    ExplainSession,
    PersistentArtifactStore,
    derive_answer_seed,
    get_engine,
)
from repro.engine.store import FORMAT_VERSION, signature_digest
from repro.workloads.synthetic import bipartite_join_dnf, chained_dnf

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def join_database(n_answers: int = 6, fanout: int = 2) -> Database:
    """Pairwise-isomorphic lineages: a=x_i joins R(x_i, y_i) with
    ``fanout`` S(y_i, *) rows (mirrors tests/test_engine.py)."""
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


def explain_each_answer(db: Database, query) -> dict:
    """The per-answer reference: every answer's lineage explained alone
    through ``ExplainSession.explain_one``; values keyed by answer.  The
    cache stores nothing, so every answer compiles and sweeps its own
    lineage instead of reusing an isomorphic answer's artifacts or
    Shapley values."""
    result = lineage(to_plan(query, db), db, endogenous_only=True)
    with ExplainSession(
        db, method="exact", cache=ArtifactCache(max_entries=0)
    ) as session:
        values = {}
        for answer in result.tuples():
            circuit = result.lineage_of(answer)
            values[answer] = session.explain_one(
                circuit, sorted(circuit.reachable_vars())
            ).values
    return values


def per_fact_oracle(ddnnf: Circuit, players) -> dict:
    """The paper's literal Algorithm 1, one conditioning per fact
    (:func:`~repro.core.shapley.shapley_of_fact`)."""
    return {fact: shapley_of_fact(ddnnf, players, fact) for fact in players}


def oracle_each_answer(db: Database, query) -> dict:
    """The per-fact oracle: every answer's lineage compiled to a d-DNNF
    and explained by :func:`per_fact_oracle`; values keyed by answer."""
    result = lineage(to_plan(query, db), db, endogenous_only=True)
    values = {}
    for answer in result.tuples():
        circuit = result.lineage_of(answer)
        players = sorted(circuit.reachable_vars())
        ddnnf = compile_circuit(circuit).circuit
        values[answer] = per_fact_oracle(ddnnf, players)
    return values


class TestPayloadSerialization:
    def test_circuit_payload_round_trip_preserves_structure(self):
        circuit = chained_dnf(4).condition({}).flatten()
        sig, labels = circuit.structural_signature()
        canonical = circuit.rename(
            {label: i for i, label in enumerate(labels)}
        )
        back = Circuit.from_payload(canonical.to_payload())
        assert back.to_nested() == canonical.to_nested()
        assert back.structural_signature() == canonical.structural_signature()

    def test_circuit_payload_survives_json(self):
        import json

        circuit = circuit_from_nested(("or", ("and", 0, 1), ("and", 2, 3)))
        payload = json.loads(json.dumps(circuit.to_payload()))
        back = Circuit.from_payload(payload)
        assert back.to_nested() == circuit.to_nested()

    def test_circuit_payload_rejects_garbage(self):
        with pytest.raises(CircuitError):
            Circuit.from_payload({"kinds": [0]})
        with pytest.raises(CircuitError):
            Circuit.from_payload(
                {"kinds": [99], "children": [[]], "labels": [0], "output": 0}
            )
        with pytest.raises(CircuitError):
            # forward reference: child id >= its own gate id
            Circuit.from_payload(
                {"kinds": [3], "children": [[1]], "labels": [None], "output": 0}
            )

    def test_cnf_payload_round_trip(self):
        cnf = Cnf(4, [(1, -2), (3, 4), (-1,)], labels={1: 0, 3: 1})
        back = Cnf.from_payload(cnf.to_payload())
        assert back.num_vars == cnf.num_vars
        assert back.clauses == cnf.clauses
        assert back.labels == cnf.labels

    def test_cnf_payload_rejects_garbage(self):
        with pytest.raises(CnfError):
            Cnf.from_payload({"num_vars": 2})
        with pytest.raises(CnfError):
            Cnf.from_payload(
                {"num_vars": 1, "clauses": [[5]], "labels": []}
            )


class TestSignatureDigest:
    def test_digest_is_stable_across_label_sets(self):
        c1 = bipartite_join_dnf(3, 2)
        c2 = c1.rename({v: ("t", v) for v in c1.reachable_vars()})
        d1 = signature_digest(c1.structural_signature()[0])
        d2 = signature_digest(c2.structural_signature()[0])
        assert d1 == d2

    def test_digest_normalizes_gatekind_enums(self):
        # The same shape built natively (IntEnum kinds) and reloaded
        # from a payload (plain-int kinds) must hash identically, or
        # warm processes would never hit the store.
        circuit = chained_dnf(3).condition({}).flatten()
        sig, labels = circuit.structural_signature()
        canonical = circuit.rename({l: i for i, l in enumerate(labels)})
        reloaded = Circuit.from_payload(canonical.to_payload())
        assert signature_digest(sig) == signature_digest(
            reloaded.structural_signature()[0]
        )

    def test_different_shapes_get_different_files(self, tmp_path):
        store = PersistentArtifactStore(tmp_path)
        sig_a = bipartite_join_dnf(3, 2).structural_signature()[0]
        sig_b = chained_dnf(4).structural_signature()[0]
        assert store.path_for(sig_a, "dnnf") != store.path_for(sig_b, "dnnf")


class TestPersistentStore:
    def test_directory_expands_user(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        store = PersistentArtifactStore("~/artifacts")
        assert store.directory == tmp_path / "artifacts"
        assert store.directory.is_dir()

    def test_cold_run_writes_warm_reload_skips_compilation(self, tmp_path):
        circuit = bipartite_join_dnf(3, 3)
        players = sorted(circuit.reachable_vars())
        cold_cache = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        cold = run_exact(circuit, players, cache=cold_cache)
        assert cold.ok and cold_cache.stats.compile_calls == 1
        # cnf + dnnf + tape, plus any memoized component circuits
        summary = cold_cache.store.kind_summary()
        assert [summary[k]["files"] for k in ("cnf", "dnnf", "tape")] == [1, 1, 1]
        assert cold_cache.store.stats.writes >= 3

        # A fresh cache + store over the same directory models a new
        # process: everything is served from disk, nothing compiles.
        warm_cache = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        warm = run_exact(circuit, players, cache=warm_cache)
        assert warm.ok
        assert warm_cache.stats.compile_calls == 0
        assert warm_cache.store.stats.hits >= 1
        assert warm.values == cold.values
        assert all(
            type(v) is Fraction and v == cold.values[f]
            for f, v in warm.values.items()
        )

    def test_isomorphic_shape_hits_store_under_rename(self, tmp_path):
        base = bipartite_join_dnf(3, 2)
        cache1 = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        cache1.open(base).tape()

        renamed = base.rename({v: ("r", v) for v in base.reachable_vars()})
        cache2 = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        tape = cache2.open(renamed).tape()
        assert cache2.stats.compile_calls == 0
        assert cache2.store.stats.hits >= 1
        assert tape.labels() == renamed.reachable_vars()

    def test_truncated_artifact_counts_corruption_and_recompiles(self, tmp_path):
        circuit = bipartite_join_dnf(2, 2)
        players = sorted(circuit.reachable_vars())
        store = PersistentArtifactStore(tmp_path)
        run_exact(circuit, players, cache=ArtifactCache(store=store))

        for path in Path(tmp_path).iterdir():
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // 2])  # torn write

        fresh_store = PersistentArtifactStore(tmp_path)
        cache = ArtifactCache(store=fresh_store)
        outcome = run_exact(circuit, players, cache=cache)
        assert outcome.ok
        assert cache.stats.compile_calls == 1  # fell back to compiling
        assert fresh_store.stats.corruptions >= 1
        # the corrupt files were dropped and rewritten
        summary = fresh_store.kind_summary()
        assert [summary[k]["files"] for k in ("cnf", "dnnf", "tape")] == [1, 1, 1]
        assert fresh_store.stats.writes >= 3

        again = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        assert run_exact(circuit, players, cache=again).ok
        assert again.stats.compile_calls == 0

    def test_unknown_format_version_is_a_miss_not_corruption(self, tmp_path):
        circuit = bipartite_join_dnf(2, 2)
        store = PersistentArtifactStore(tmp_path)
        ArtifactCache(store=store).open(circuit).tape()

        for path in Path(tmp_path).iterdir():
            head, _, tail = path.read_bytes().partition(b"\n")
            parts = head.split()
            parts[1] = str(FORMAT_VERSION + 1).encode()
            path.write_bytes(b" ".join(parts) + b"\n" + tail)

        fresh = PersistentArtifactStore(tmp_path)
        cache = ArtifactCache(store=fresh)
        cache.open(circuit).tape()
        assert cache.stats.compile_calls == 1
        assert fresh.stats.corruptions == 0
        assert fresh.stats.misses >= 1

    def test_cross_process_parity(self, tmp_path):
        """Compile in a real child process; reload here with
        ``compile_calls == 0`` and byte-identical Fractions."""
        script = f"""
import sys
sys.path.insert(0, {SRC_DIR!r})
from repro.core import run_exact, shapley_of_fact
from repro.engine import ArtifactCache, PersistentArtifactStore
from repro.workloads.synthetic import bipartite_join_dnf

circuit = bipartite_join_dnf(3, 2)
players = sorted(circuit.reachable_vars())
cache = ArtifactCache(store=PersistentArtifactStore({str(tmp_path)!r}))
outcome = run_exact(circuit, players, cache=cache)
assert outcome.ok and cache.stats.compile_calls == 1
print(repr(sorted((str(f), str(v)) for f, v in outcome.values.items())))
"""
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": "random"},
        )
        circuit = bipartite_join_dnf(3, 2)
        players = sorted(circuit.reachable_vars())
        cache = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        outcome = run_exact(circuit, players, cache=cache)
        assert outcome.ok
        assert cache.stats.compile_calls == 0
        assert cache.store.stats.hits >= 1
        ours = repr(sorted((str(f), str(v)) for f, v in outcome.values.items()))
        assert ours == child.stdout.strip()

    def test_store_survives_memory_eviction(self, tmp_path):
        store = PersistentArtifactStore(tmp_path)
        cache = ArtifactCache(max_entries=1, store=store)
        a, b = chained_dnf(3), chained_dnf(4)
        cache.open(a).tape()
        cache.open(b).tape()  # evicts a's memory entry
        cache.open(a).tape()  # ... but the store still has it
        assert cache.stats.compile_calls == 2
        assert store.stats.hits >= 1

    def test_write_failure_is_counted_not_raised(self, tmp_path):
        store = PersistentArtifactStore(tmp_path / "gone")
        import shutil

        shutil.rmtree(store.directory)
        cache = ArtifactCache(store=store)
        assert cache.open(chained_dnf(3)).tape() is not None
        assert store.stats.write_failures >= 1


class TestProcessExecutor:
    def test_process_results_match_thread_results(self, tmp_path):
        db = join_database(n_answers=6)
        thread = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        store = PersistentArtifactStore(tmp_path)
        session = ExplainSession(
            db, method="exact", cache=ArtifactCache(store=store),
            max_workers=2, executor="process",
        )
        proc = session.explain_many(JOIN_QUERY)
        assert {a: r.values for a, r in proc.items()} == {
            a: r.values for a, r in thread.items()
        }
        # the pool workers published the shape to the shared store
        kinds = {entry.kind for entry in store.entries()}
        assert {"cnf", "dnnf", "tape"} <= kinds

    def test_process_executor_without_store_still_correct(self):
        db = join_database(n_answers=4)
        thread = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        proc = ExplainSession(
            db, method="exact", max_workers=2, executor="process"
        ).explain_many(JOIN_QUERY)
        assert {a: r.values for a, r in proc.items()} == {
            a: r.values for a, r in thread.items()
        }

    def test_per_call_executor_override(self, tmp_path):
        db = join_database(n_answers=4)
        session = ExplainSession(
            db, method="exact",
            cache=ArtifactCache(store=PersistentArtifactStore(tmp_path)),
        )
        thread = session.explain_many(JOIN_QUERY)
        proc = session.explain_many(JOIN_QUERY, executor="process")
        assert {a: r.values for a, r in proc.items()} == {
            a: r.values for a, r in thread.items()
        }

    def test_unknown_executor_rejected(self):
        db = join_database(n_answers=2)
        with pytest.raises(ValueError, match="unknown executor"):
            ExplainSession(db, executor="gpu")
        with pytest.raises(ValueError, match="unknown executor"):
            ExplainSession(db).explain_many(JOIN_QUERY, executor="gpu")

    def test_sampling_engine_in_process_mode(self):
        db = join_database(n_answers=4)
        kwargs = dict(
            method="monte_carlo",
            options=EngineOptions(samples_per_fact=5, seed=3),
        )
        thread = ExplainSession(db, **kwargs).explain_many(JOIN_QUERY)
        proc = ExplainSession(
            db, max_workers=2, executor="process", **kwargs
        ).explain_many(JOIN_QUERY)
        assert {a: r.values for a, r in proc.items()} == {
            a: r.values for a, r in thread.items()
        }


class TestSingleCanonicalizationPass:
    def test_explain_many_signs_each_answer_once(self, monkeypatch):
        calls = {"n": 0}
        original = Circuit.structural_signature

        def counting(self, root=None):
            calls["n"] += 1
            return original(self, root)

        monkeypatch.setattr(Circuit, "structural_signature", counting)
        db = join_database(n_answers=5)
        session = ExplainSession(db, method="exact")
        results = session.explain_many(JOIN_QUERY)
        assert len(results) == 5
        # one canonicalization per answer — the session's handle rides
        # into the engine, which must not re-sign the circuit
        assert calls["n"] == 5

    def test_prebuilt_artifacts_match_cacheless_run(self):
        circuit = bipartite_join_dnf(3, 2)
        players = sorted(circuit.reachable_vars())
        cache = ArtifactCache()
        handle = cache.open(circuit)
        with_handle = run_exact(
            circuit, players, cache=cache, artifacts=handle
        )
        plain = run_exact(circuit, players)
        assert with_handle.ok and plain.ok
        assert with_handle.values == plain.values
        assert with_handle.stats.n_facts == plain.stats.n_facts
        assert with_handle.stats.circuit_size == plain.stats.circuit_size

    def test_proxy_and_hybrid_accept_prebuilt_artifacts(self):
        circuit = bipartite_join_dnf(2, 2)
        players = sorted(circuit.reachable_vars())
        cache = ArtifactCache()
        options = EngineOptions(cache=cache, artifacts=cache.open(circuit))
        proxy = get_engine("proxy").explain_circuit(circuit, players, options)
        hybrid = get_engine("hybrid").explain_circuit(circuit, players, options)
        bare = EngineOptions()
        assert proxy.values == get_engine("proxy").explain_circuit(
            circuit, players, bare
        ).values
        assert hybrid.values == get_engine("hybrid").explain_circuit(
            circuit, players, bare
        ).values


class TestStableSeeds:
    def test_batched_sampling_invariant_to_answer_order(self):
        db = join_database(n_answers=5)
        options = EngineOptions(samples_per_fact=5, seed=11)
        session = ExplainSession(db, method="monte_carlo", options=options)
        answers = list(session.explain_many(JOIN_QUERY))
        forward = session.explain_many(JOIN_QUERY, answers=answers)
        backward = session.explain_many(JOIN_QUERY, answers=answers[::-1])
        assert {a: r.values for a, r in forward.items()} == {
            a: r.values for a, r in backward.items()
        }

    def test_batched_subset_matches_full_batch(self):
        db = join_database(n_answers=6)
        options = EngineOptions(samples_per_fact=5, seed=11)
        session = ExplainSession(db, method="monte_carlo", options=options)
        full = session.explain_many(JOIN_QUERY)
        subset_answers = list(full)[1:4]
        subset = session.explain_many(JOIN_QUERY, answers=subset_answers)
        for answer in subset_answers:
            assert subset[answer].values == full[answer].values

    def test_batched_matches_single_answer_attribute(self):
        db = join_database(n_answers=4)
        options = EngineOptions(samples_per_fact=5, seed=11)
        session = ExplainSession(db, method="monte_carlo", options=options)
        batched = session.explain_many(JOIN_QUERY)
        for answer, result in batched.items():
            single = attribute(
                db, JOIN_QUERY, answer=answer, method="monte_carlo",
                samples_per_fact=5, seed=11,
            )
            assert single.values == result.values, answer

    def test_derive_answer_seed_is_stable_and_spread(self):
        a = derive_answer_seed(11, ("x0",))
        assert a == derive_answer_seed(11, ("x0",))
        assert a != derive_answer_seed(11, ("x1",))
        assert a != derive_answer_seed(12, ("x0",))


class TestDisabledStorageEvictions:
    def test_disabled_cache_counts_no_evictions(self):
        cache = ArtifactCache(max_entries=0)
        circuit = bipartite_join_dnf(2, 2)
        players = sorted(circuit.reachable_vars())
        for _ in range(3):
            run_exact(circuit, players, cache=cache)
        assert cache.stats.compile_calls == 3  # storage really disabled
        assert len(cache) == 0
        # the satellite fix: no insert-then-evict churn per open()
        assert cache.stats.evictions == 0

    def test_disabled_memory_tier_still_uses_store(self, tmp_path):
        store = PersistentArtifactStore(tmp_path)
        cache = ArtifactCache(max_entries=0, store=store)
        circuit = bipartite_join_dnf(2, 2)
        players = sorted(circuit.reachable_vars())
        run_exact(circuit, players, cache=cache)
        run_exact(circuit, players, cache=cache)
        assert cache.stats.compile_calls == 1  # second run hit the disk
        assert cache.stats.evictions == 0
        assert len(cache) == 0
