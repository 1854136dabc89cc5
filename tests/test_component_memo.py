"""Tests for the cross-shape sub-circuit memoization layer (the PR 6
cold-path tier): rename-invariant canonical component signatures, their
stability under hash randomization, cross-shape
memo hits with identical Shapley values, and robustness of the ``.comp``
store tier (corruption fallback, scheme bumps, concurrent writers +
per-kind GC)."""

import json
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro.circuits import eliminate_auxiliary, tseytin_transform
from repro.circuits.circuit import Circuit
from repro.circuits.cnf import Cnf
from repro.compiler.knowledge import (
    COMPONENT_SCHEME,
    _canonical,
    canonical_component,
    compile_cnf,
    plan_components,
)
from repro.core import run_exact, shapley_all_facts
from repro.core.pipeline import to_plan
from repro.db.evaluate import lineage
from repro.engine import ArtifactCache, PersistentArtifactStore
from repro.engine.store import signature_digest
from repro.workloads import TpchConfig, generate_tpch, tpch_query
from repro.workloads.synthetic import shared_block_circuits

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def shared_pair(**overrides):
    """Two circuits sharing all but one isomorphic block (distinct
    whole shapes)."""
    kwargs = dict(
        n_blocks=3, block_vars=10, block_terms=5, term_width=3, seed=0
    )
    kwargs.update(overrides)
    return shared_block_circuits(2, **kwargs)


def compile_shape(circuit, **kwargs):
    """``(ddnnf, players, stats)`` of one lineage circuit through the
    full Figure 3 path (Tseytin, CNF compile, auxiliary elimination)."""
    cnf = tseytin_transform(circuit)
    result = compile_cnf(cnf, **kwargs)
    ddnnf = eliminate_auxiliary(result.circuit, set(cnf.labels.values()))
    return ddnnf, sorted(ddnnf.reachable_vars(), key=repr), result.stats


def top_level_component_keys(circuit):
    """Canonical digests of the memo-eligible top-level components of a
    circuit's Tseytin CNF — the keys the cross-run memo would use."""
    return {
        signature_digest(canon)
        for canon in plan_components(tseytin_transform(circuit))
    }


class TestCanonicalComponent:
    def test_rename_invariance(self):
        clauses = ((1, 2, 3), (-1, 4), (2, -4, 5), (-5, 6), (3, 6, 7), (1, -7, 8))
        perm = {1: 8, 2: 3, 3: 5, 4: 1, 5: 7, 6: 2, 7: 6, 8: 4}
        renamed = tuple(
            tuple(perm[abs(lit)] * (1 if lit > 0 else -1) for lit in clause)
            for clause in clauses
        )
        canon_a, order_a = canonical_component(clauses)
        canon_b, order_b = canonical_component(renamed)
        assert canon_a == canon_b
        # ``order[i]`` names the original variable renamed to ``i + 1``
        assert sorted(order_a) == sorted(
            {abs(lit) for clause in clauses for lit in clause}
        )
        assert sorted(order_b) == sorted(
            {abs(lit) for clause in renamed for lit in clause}
        )
        # the two orders express one literal isomorphism: mapping the
        # original clauses through order_a[i] -> order_b[i] reproduces
        # the renamed clause set
        mapping = dict(zip(order_a, order_b))
        mapped = tuple(
            tuple(mapping[abs(lit)] * (1 if lit > 0 else -1) for lit in clause)
            for clause in clauses
        )
        assert _canonical(mapped) == _canonical(renamed)

    def test_different_structures_get_different_forms(self):
        path = ((1, 2), (2, 3), (3, 4))
        triangle = ((1, 2), (2, 3), (1, 3))
        assert canonical_component(path)[0] != canonical_component(triangle)[0]

    def test_consecutive_shared_circuits_share_block_keys(self):
        a, b = shared_pair()
        keys_a = top_level_component_keys(a)
        keys_b = top_level_component_keys(b)
        # variable labels are disjoint across circuits, so any overlap
        # is purely structural: all but one of the 3 blocks is shared
        assert len(keys_a) == len(keys_b) == 3
        assert len(keys_a & keys_b) == 2


_SEED_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.circuits import tseytin_transform
from repro.compiler.knowledge import compile_cnf, plan_components
from repro.engine.store import signature_digest
from repro.workloads.synthetic import shared_block_circuits

circuit = shared_block_circuits(
    1, n_blocks=3, block_vars=9, block_terms=4, term_width=3, seed=7
)[0]
cnf = tseytin_transform(circuit)
compiled = compile_cnf(cnf)
keys = sorted(
    signature_digest(canon) for canon in plan_components(cnf, min_vars=1)
)
print(json.dumps({{
    "circuit": signature_digest(compiled.circuit.structural_signature()[0]),
    "component_keys": keys,
}}))
"""


class TestSelectionStability:
    """Variable-selection tie-breaking must not depend on Python's
    randomized hashing."""

    def test_signatures_stable_across_hash_seeds(self):
        outputs = []
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", _SEED_SCRIPT.format(src=SRC_DIR)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        # every hash seed produced the same circuit and the same
        # canonical component keys
        assert outputs[0] == outputs[1] == outputs[2]


class TestCrossShapeMemo:
    def test_second_shape_stitches_from_the_first(self, tmp_path):
        store = PersistentArtifactStore(tmp_path)
        cache = ArtifactCache(store=store)
        a, b = shared_pair()
        cache.open(a).tape()
        assert cache.stats.component_compilations == 3
        assert cache.stats.component_hits == 0
        cache.open(b).tape()
        # the two shared blocks hit; only the fresh block compiles
        assert cache.stats.component_hits == 2
        assert cache.stats.component_compilations == 4
        assert store.kind_summary()["comp"]["files"] == 4

    def test_memoized_values_identical_to_inline_baseline(self, tmp_path):
        a, b = shared_pair(n_blocks=2, block_vars=8, block_terms=4)
        cache = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        memo = cache.component_memo()
        cnf_b = tseytin_transform(b)
        keep = set(cnf_b.labels.values())

        baseline = compile_cnf(cnf_b, memoize_components=False)
        cold = compile_cnf(cnf_b)  # run-local memo
        compile_cnf(tseytin_transform(a), memo=memo)  # warm the store
        warm = compile_cnf(cnf_b, memo=memo)
        assert warm.stats.component_hits > 0

        # warm and cold memoized compiles are byte-identical
        assert (
            cold.circuit.structural_signature()
            == warm.circuit.structural_signature()
        )
        # and every path yields the same exact Shapley values
        values = []
        for result in (baseline, cold, warm):
            ddnnf = eliminate_auxiliary(result.circuit, keep)
            players = sorted(ddnnf.reachable_vars(), key=repr)
            values.append(shapley_all_facts(ddnnf, players))
        assert values[0] == values[1] == values[2]
        assert all(
            isinstance(v, Fraction) for v in values[0].values()
        )

    def test_disjoint_shapes_never_hit(self):
        cache = ArtifactCache()
        for seed in (100, 101, 102):
            circuit = shared_block_circuits(
                1, n_blocks=3, block_vars=10, block_terms=5, term_width=3,
                seed=seed,
            )[0]
            compile_cnf(tseytin_transform(circuit), memo=cache.component_memo())
        assert cache.stats.component_compilations > 0
        assert cache.stats.component_hits == 0

    def test_warm_memo_recompile_of_a_tpch_answer(self):
        # The fig7 tier: a TPC-H lineage recompiled against a memo that
        # already holds its components compiles none of them again and
        # keeps the answer's exact values.
        db = generate_tpch(TpchConfig(scale_factor=0.0005))
        result = lineage(to_plan(tpch_query("Q7").sql, db), db,
                         endogenous_only=True)
        (answer,) = result.tuples()
        circuit = result.lineage_of(answer)
        players = sorted(circuit.reachable_vars())
        expected = run_exact(circuit, players).values

        cnf = tseytin_transform(circuit)
        memo = ArtifactCache().component_memo()
        cold = compile_cnf(cnf, memo=memo)
        assert cold.stats.component_compilations > 0
        warm = compile_cnf(cnf, memo=memo)
        assert warm.stats.component_hits > 0
        assert warm.stats.component_compilations == 0
        ddnnf = eliminate_auxiliary(warm.circuit, set(cnf.labels.values()))
        assert shapley_all_facts(ddnnf, players) == expected

    def test_small_components_bypass_the_memo(self, tmp_path):
        cache = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        cnf = Cnf(4, [(1, 2), (3, 4)], labels={i: f"x{i}" for i in (1, 2, 3, 4)})
        compile_cnf(cnf, memo=cache.component_memo())
        stats = cache.stats
        assert (
            stats.component_hits
            + stats.component_misses
            + stats.component_compilations
        ) == 0
        assert cache.stats_dict()["store_writes"] == 0

    def test_component_min_vars_knob_lowers_the_bar(self, tmp_path):
        cache = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        cnf = Cnf(4, [(1, 2), (3, 4)], labels={i: f"x{i}" for i in (1, 2, 3, 4)})
        compile_cnf(cnf, memo=cache.component_memo(), component_min_vars=2)
        assert cache.stats.component_compilations == 1  # one per template
        assert cache.stats.component_hits == 1  # isomorphic twin stitched


def small_component(extra_vars: int = 0) -> Circuit:
    """A tiny canonical component circuit (labels are canonical ints)."""
    circuit = Circuit()
    gates = [circuit.var(i + 1) for i in range(2 + extra_vars)]
    circuit.output = circuit.and_(gates)
    return circuit


class TestComponentStoreRobustness:
    """Satellite (d): the ``.comp`` tier must degrade to recompilation,
    never to wrong answers."""

    def comp_paths(self, directory):
        return sorted(Path(directory).glob("*.comp"))

    def test_truncated_comp_falls_back_to_recompile(self, tmp_path):
        store = PersistentArtifactStore(tmp_path)
        cache = ArtifactCache(store=store)
        circuit = shared_pair()[0]
        baseline = cache.open(circuit).tape()
        comp_files = self.comp_paths(tmp_path)
        assert len(comp_files) == 3
        # wipe the whole-shape artifacts, truncate every component
        for path in Path(tmp_path).iterdir():
            if path.suffix in (".cnf", ".dnnf", ".tape"):
                path.unlink()
        for path in comp_files:
            path.write_bytes(path.read_bytes()[:25])

        fresh = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        again = fresh.open(circuit).tape()
        assert again.same_shape(baseline)
        assert again.var_labels == baseline.var_labels
        merged = fresh.stats_dict()
        assert merged["store_corruptions"] == 3
        assert merged["component_hits"] == 0
        assert merged["component_compilations"] == 3
        # corrupt files were dropped, fresh ones written back
        for path in self.comp_paths(tmp_path):
            assert path.stat().st_size > 25

    def test_garbage_payload_is_a_corruption_not_a_crash(self, tmp_path):
        store = PersistentArtifactStore(tmp_path)
        key = ((1, 2), (-1,))
        store.store_component(key, small_component())
        path = store.path_for(key, "comp")
        blob = path.read_bytes()
        header, _, _ = blob.partition(b"\n")
        path.write_bytes(header + b"\n" + b'{"not": "a circuit"}')
        assert store.load_component(key) is None
        assert store.stats.corruptions == 1
        assert not path.exists()

    def test_scheme_bump_is_a_clean_miss(self, tmp_path, monkeypatch):
        store = PersistentArtifactStore(tmp_path)
        key = ((1, 2), (-1,))
        store.store_component(key, small_component())
        assert store.load_component(key) is not None
        monkeypatch.setattr(
            "repro.engine.store.COMPONENT_SCHEME", COMPONENT_SCHEME + 1
        )
        misses = store.stats.misses
        assert store.load_component(key) is None
        assert store.stats.misses == misses + 1
        assert store.stats.corruptions == 0
        # the artifact survives: it is valid for the scheme that wrote it
        assert store.path_for(key, "comp").exists()

    def test_kind_budget_and_ttl_gc_the_comp_tier(self, tmp_path):
        store = PersistentArtifactStore(tmp_path)
        for i in range(4):
            store.store_component(((100 + i, i),), small_component())
        store.store_cnf(((1, 2),), Cnf(2, [(1, 2)], labels={1: "a"}))
        for i in range(4):
            path = store.path_for(((100 + i, i),), "comp")
            os.utime(path, (1000 + i, 1000 + i))
        size = store.path_for(((100, 0),), "comp").stat().st_size
        report = store.gc(kind_budgets={"comp": 2 * size})
        assert report.evicted == 2
        summary = store.kind_summary()
        assert summary["comp"]["files"] == 2
        assert summary["cnf"]["files"] == 1  # other kinds untouched
        # the survivors are the most recently used components
        assert store.load_component(((103, 3),)) is not None
        assert store.load_component(((100, 0),)) is None
        # an age pass clears everything, comp and cnf alike
        store.gc(max_age_seconds=0.0)
        assert len(store) == 0


_COMP_WRITER_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.circuits.circuit import Circuit
from repro.engine import PersistentArtifactStore

directory, budget, ident, count = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
)
store = PersistentArtifactStore(
    directory, kind_budgets={{"comp": budget}}
)


def component(i):
    circuit = Circuit()
    gates = [circuit.var(v + 1) for v in range(2 + i % 3)]
    circuit.output = circuit.and_(gates)
    return circuit


torn = 0
for i in range(count):
    key = ((ident, i),)
    circuit = component(i)
    store.store_component(key, circuit)
    loaded = store.load_component(key)  # may be evicted, never torn
    if loaded is not None and loaded.to_payload() != circuit.to_payload():
        torn += 1
print(json.dumps({{
    "writes": store.stats.writes,
    "write_failures": store.stats.write_failures,
    "corruptions": store.stats.corruptions,
    "evictions": store.stats.evictions,
    "torn": torn,
}}))
"""


class TestComponentStoreStress:
    def test_concurrent_comp_writers_survive_kind_budget_gc(self, tmp_path):
        """Three processes hammer the ``comp`` tier of one store whose
        per-kind budget forces eviction on write, while this process
        reads a hot component and runs explicit GC passes: no torn or
        corrupt reads anywhere, the hot component survives, and the
        tier ends under budget."""
        directory = tmp_path / "shared"
        hot = PersistentArtifactStore(directory)
        hot_key = ((9999, 0),)
        hot_circuit = small_component(extra_vars=1)
        hot.store_component(hot_key, hot_circuit)
        probe_size = hot.path_for(hot_key, "comp").stat().st_size
        budget = 60 * probe_size

        script = _COMP_WRITER_SCRIPT.format(src=SRC_DIR)
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", script,
                 str(directory), str(budget), str(ident), "25"],
                stdout=subprocess.PIPE, text=True,
            )
            for ident in range(3)
        ]
        bad_hot = 0
        while any(writer.poll() is None for writer in writers):
            loaded = hot.load_component(hot_key)  # refreshes its mtime
            if (
                loaded is None
                or loaded.to_payload() != hot_circuit.to_payload()
            ):
                bad_hot += 1
            hot.gc(kind_budgets={"comp": budget})
            time.sleep(0.002)
        reports = []
        for writer in writers:
            out, _ = writer.communicate(timeout=60)
            assert writer.returncode == 0, out
            reports.append(json.loads(out.strip().splitlines()[-1]))

        assert all(r["corruptions"] == 0 for r in reports), reports
        assert all(r["torn"] == 0 for r in reports), reports
        assert all(r["write_failures"] == 0 for r in reports), reports
        assert hot.stats.corruptions == 0
        assert sum(r["evictions"] for r in reports) + hot.stats.evictions > 0
        assert bad_hot == 0
        final = hot.load_component(hot_key)
        assert final is not None
        assert final.to_payload() == hot_circuit.to_payload()
        report = hot.gc(kind_budgets={"comp": budget})
        assert report.remaining_bytes <= budget
