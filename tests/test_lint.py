"""Tests for the codebase invariant lint (repro.analysis.lint):
per-rule positives, negatives, scoping, inline suppression, the REP004
lock-order analyzer on synthetic deadlocks, and a clean run over the
real source tree (including the PR 6 coordinator locks)."""

from pathlib import Path
from textwrap import dedent

from repro.analysis.lint import (
    LockOrderGraph,
    analyze_lock_order,
    lint_paths,
    lint_source,
    main as lint_main,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def findings(path: str, source: str):
    return lint_source(path, dedent(source))


def rules(path: str, source: str) -> list[str]:
    return [f.rule for f in findings(path, source)]


class TestRep001SeededRandomness:
    def test_unseeded_random_instance_flagged(self):
        assert rules(
            "src/repro/core/foo.py",
            """
            import random
            rng = random.Random()
            """,
        ) == ["REP001"]

    def test_seeded_random_instance_clean(self):
        assert rules(
            "src/repro/core/foo.py",
            """
            import random
            rng = random.Random(17)
            """,
        ) == []

    def test_global_rng_function_flagged(self):
        assert rules(
            "src/repro/core/foo.py",
            """
            import random
            value = random.choice(items)
            """,
        ) == ["REP001"]

    def test_method_on_instance_clean(self):
        assert rules(
            "src/repro/core/foo.py",
            """
            import random
            rng = random.Random(3)
            value = rng.choice(items)
            """,
        ) == []

    def test_from_import_and_alias_tracked(self):
        assert rules(
            "src/repro/core/foo.py",
            """
            from random import Random, shuffle
            import random as rnd
            r = Random()
            shuffle(xs)
            rnd.seed()
            """,
        ) == ["REP001", "REP001", "REP001"]

    def test_numpy_global_rng_flagged_seeded_generator_clean(self):
        assert rules(
            "src/repro/core/foo.py",
            """
            import numpy as np
            np.random.shuffle(xs)
            good = np.random.default_rng(7)
            bad = np.random.default_rng()
            """,
        ) == ["REP001", "REP001"]

    def test_workload_generators_exempt(self):
        assert rules(
            "src/repro/workloads/gen.py",
            """
            import random
            random.shuffle(xs)
            """,
        ) == []

    def test_inline_suppression(self):
        assert rules(
            "src/repro/core/foo.py",
            """
            import random
            rng = random.Random()  # repro: allow=REP001 fuzzing helper
            """,
        ) == []


class TestRep002UnsortedIteration:
    def test_set_iteration_flagged_in_scope(self):
        assert rules(
            "src/repro/circuits/foo.py",
            """
            items = {1, 2, 3}
            for item in items:
                print(item)
            """,
        ) == ["REP002"]

    def test_sorted_iteration_clean(self):
        assert rules(
            "src/repro/circuits/foo.py",
            """
            items = {1, 2, 3}
            for item in sorted(items):
                print(item)
            """,
        ) == []

    def test_dict_value_views_flagged(self):
        assert rules(
            "src/repro/compiler/knowledge.py",
            """
            table = dict()
            out = [v for v in table.values()]
            """,
        ) == ["REP002"]

    def test_set_returning_call_flagged(self):
        assert rules(
            "src/repro/circuits/foo.py",
            """
            def walk(circuit):
                for v in circuit.reachable_vars():
                    yield v
            """,
        ) == ["REP002"]

    def test_len_and_membership_are_not_iteration(self):
        assert rules(
            "src/repro/circuits/foo.py",
            """
            items = {1, 2, 3}
            n = len(items)
            hit = 2 in items
            total = sum(items)
            """,
        ) == []

    def test_out_of_scope_module_ignored(self):
        assert rules(
            "src/repro/core/foo.py",
            """
            items = {1, 2}
            for item in items:
                print(item)
            """,
        ) == []

    def test_inline_suppression(self):
        assert rules(
            "src/repro/engine/cache.py",
            """
            items = {1, 2}
            for item in items:  # repro: allow=REP002 order-insensitive sum
                print(item)
            """,
        ) == []


class TestRep003FloatsInExactModules:
    def test_float_literal_flagged(self):
        assert rules(
            "src/repro/core/shapley.py",
            "half = 0.5\n",
        ) == ["REP003"]

    def test_float_call_flagged(self):
        assert rules(
            "src/repro/core/numerics/base.py",
            "x = float(n)\n",
        ) == ["REP003"]

    def test_integers_and_fractions_clean(self):
        assert rules(
            "src/repro/core/shapley.py",
            """
            from fractions import Fraction
            value = Fraction(1, 2) + 3
            """,
        ) == []

    def test_out_of_scope_module_ignored(self):
        assert rules("src/repro/core/pipeline.py", "x = 0.5\n") == []

    def test_level_scheduled_sweeps_in_scope(self):
        assert rules(
            "src/repro/core/numerics/fixed.py",
            "scale = 2.0\n",
        ) == ["REP003"]


LOCK_CYCLE = """
import threading

class Service:
    def __init__(self):
        self.alpha = threading.Lock()
        self.beta = threading.Lock()

    def forward(self):
        with self.alpha:
            with self.beta:
                pass

    def backward(self):
        with self.beta:
            with self.alpha:
                pass
"""

LOCK_CALL_EDGE = """
import threading

class Service:
    def __init__(self):
        self.alpha = threading.Lock()
        self.beta = threading.Lock()

    def inner(self):
        with self.beta:
            pass

    def outer(self):
        with self.alpha:
            self.inner()
"""

LOCK_SELF = """
import threading

class Service:
    def __init__(self):
        self.guard = threading.Lock()

    def work(self):
        with self.guard:
            with self.guard:
                pass
"""


class TestRep004LockOrder:
    def test_opposite_nesting_reports_cycle(self):
        graph = analyze_lock_order([("src/repro/engine/service/x.py", LOCK_CYCLE)])
        assert graph.nodes == {"Service.alpha", "Service.beta"}
        assert ("Service.alpha", "Service.beta") in graph.edges
        assert ("Service.beta", "Service.alpha") in graph.edges
        assert any(
            f.rule == "REP004" and "cycle" in f.message for f in graph.findings
        )

    def test_edge_through_method_call_closure(self):
        graph = analyze_lock_order(
            [("src/repro/engine/service/x.py", LOCK_CALL_EDGE)]
        )
        assert ("Service.alpha", "Service.beta") in graph.edges
        assert graph.findings == []  # one direction only: no cycle

    def test_plain_lock_self_reacquisition_flagged(self):
        graph = analyze_lock_order([("src/repro/engine/service/x.py", LOCK_SELF)])
        assert [f.rule for f in graph.findings] == ["REP004"]

    def test_rlock_self_reacquisition_allowed(self):
        graph = analyze_lock_order(
            [
                (
                    "src/repro/engine/service/x.py",
                    LOCK_SELF.replace("threading.Lock", "threading.RLock"),
                )
            ]
        )
        assert graph.findings == []

    def test_real_concurrency_modules_include_coordinator_locks(self):
        findings, graph = lint_paths([SRC_DIR])
        # The PR 6 coordinator's batch lock and warmer task lock must be
        # part of the analyzed graph, and the real graph must be clean.
        assert "Coordinator._batch_lock" in graph.nodes
        assert "Coordinator._warm_lock" in graph.nodes
        assert "PersistentArtifactStore._lock" in graph.nodes
        assert [f for f in findings if f.rule == "REP004"] == []

    def test_resilience_layer_locks_are_analyzed_and_acyclic(self):
        # The fleet-resilience locks (health counters, backoff RNG,
        # fault-plan counters, per-link request serialization) must all
        # be visible to REP004, the documented ordering edges must be
        # present, and the whole real graph must stay acyclic.
        findings, graph = lint_paths([SRC_DIR])
        for node in ("Coordinator._health_lock", "Backoff._lock",
                     "FaultPlan._lock", "_WorkerLink.lock"):
            assert node in graph.nodes
        # counters fold into worker_stats while the batch lock is held
        assert ("Coordinator._batch_lock",
                "Coordinator._health_lock") in graph.edges
        # dispatch holds the batch lock while serializing on a link
        assert ("Coordinator._batch_lock",
                "_WorkerLink.lock") in graph.edges
        # _health_lock is a leaf by design: nothing is taken under it
        assert not any(src == "Coordinator._health_lock"
                       for src, _ in graph.edges)
        # no REP004 cycle findings, and independently: a topological
        # order of the full edge set exists
        assert [f for f in findings if f.rule == "REP004"] == []
        remaining = set(graph.edges)
        nodes = set(graph.nodes)
        while nodes:
            sinks = {n for n in nodes
                     if not any(src == n for src, _ in remaining)}
            assert sinks, f"lock graph has a cycle among {sorted(nodes)}"
            nodes -= sinks
            remaining = {(s, d) for s, d in remaining
                         if s not in sinks and d not in sinks}


class TestDriver:
    def test_full_source_tree_is_clean(self):
        findings, graph = lint_paths([SRC_DIR])
        assert findings == []
        assert isinstance(graph, LockOrderGraph)

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "repro" / "core"
        clean.mkdir(parents=True)
        (clean / "ok.py").write_text("x = 1\n")
        assert lint_main([str(clean / "ok.py")]) == 0
        dirty = clean / "bad.py"
        dirty.write_text("import random\nr = random.Random()\n")
        assert lint_main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out

    def test_main_json_and_graph(self, capsys):
        assert lint_main([str(SRC_DIR), "--json", "--graph"]) == 0
        out = capsys.readouterr().out
        assert '"findings": []' in out or '"findings":[]' in out
        assert "Coordinator._batch_lock" in out
