"""Tests for the knowledge compiler (CNF -> decision-DNNF)."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Cnf,
    check_decomposable,
    check_deterministic_exhaustive,
    circuit_from_nested,
    complete_counts,
    count_models_by_size,
    model_count,
    tseytin_transform,
)
from repro.compiler import (
    BudgetExceeded,
    CompilationBudget,
    compile_circuit,
    compile_cnf,
)
from repro.compiler.knowledge import (
    ComponentMemo,
    _recursion_headroom,
    canonical_component,
    compile_component,
    plan_components,
)
from repro.core.pipeline import to_plan
from repro.db.evaluate import lineage
from repro.workloads.imdb import ImdbConfig, generate_imdb
from repro.workloads.imdb_queries import imdb_query
from repro.workloads.synthetic import intractable_cnf, shared_block_circuits

from .test_circuit import nested_exprs


def _raise_budget() -> None:
    raise BudgetExceeded("time budget exceeded (0s)")


def labelled_cnf(num_vars, clauses) -> Cnf:
    return Cnf(num_vars, clauses, labels={v: f"x{v}" for v in range(1, num_vars + 1)})


def brute_counts_by_size(cnf: Cnf) -> list[int]:
    counts = [0] * (cnf.num_vars + 1)
    for mask in range(1 << cnf.num_vars):
        truth = {v for v in range(1, cnf.num_vars + 1) if mask >> (v - 1) & 1}
        if cnf.evaluate(truth):
            counts[len(truth)] += 1
    return counts


def counts_by_size(circuit, num_vars: int) -> list[int]:
    """``#SAT_k`` of a compiled circuit over all ``num_vars`` variables."""
    counts, mentioned = count_models_by_size(circuit)
    return complete_counts(counts, num_vars - mentioned)


literals = st.integers(1, 6).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def cnf_clauses(draw):
    """Random clauses over variables 1..6 (units and tautologies
    included), plus copies of some of them, plus optionally two clauses
    over variables 1..4 that become equal once the units ``-5`` and
    ``-6`` propagate."""
    clauses = draw(st.lists(
        st.lists(literals, min_size=1, max_size=4).map(
            lambda lits: tuple(dict.fromkeys(lits))
        ),
        max_size=10,
    ))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=3))
    if draw(st.booleans()):
        core = draw(st.lists(
            st.integers(1, 4).flatmap(lambda v: st.sampled_from([v, -v])),
            min_size=1, max_size=3, unique_by=abs,
        ))
        clauses += [(*core, 5), (*core, 6), (-5,), (-6,)]
    return draw(st.permutations(clauses))


clauses_strategy = cnf_clauses()


class TestCorrectness:
    def test_empty_cnf_is_true(self):
        result = compile_cnf(labelled_cnf(3, []))
        assert result.circuit.kind(result.circuit.output_gate()).name == "TRUE"

    def test_unsat(self):
        result = compile_cnf(labelled_cnf(1, [(1,), (-1,)]))
        assert model_count(result.circuit) == 0

    def test_single_clause(self):
        result = compile_cnf(labelled_cnf(2, [(1, 2)]))
        assert model_count(result.circuit) == 3

    def test_xor_structure(self):
        # (x | y) & (!x | !y)  -- exactly-one
        result = compile_cnf(labelled_cnf(2, [(1, 2), (-1, -2)]))
        assert model_count(result.circuit) == 2

    @given(clauses_strategy)
    @settings(max_examples=120, deadline=None)
    def test_model_count_matches_brute_force(self, clauses):
        cnf = labelled_cnf(6, clauses)
        circuit = compile_cnf(cnf).circuit
        assert counts_by_size(circuit, 6) == brute_counts_by_size(cnf)

    @given(clauses_strategy)
    @settings(max_examples=60, deadline=None)
    def test_output_is_d_and_d(self, clauses):
        cnf = labelled_cnf(6, clauses)
        circuit = compile_cnf(cnf).circuit
        assert check_decomposable(circuit)
        assert check_deterministic_exhaustive(circuit, limit=6)


def deep_clause_cnf(width: int = 600) -> Cnf:
    """One clause over ``width`` variables: the widest-clause rule
    branches on its variables one after the other, ``width`` deep."""
    return labelled_cnf(width, [tuple(range(1, width + 1))])


class _GatedMemo(ComponentMemo):
    """A dict memo whose first lookup sets ``entered`` and then waits
    for ``proceed``, so a test can hold a compile in mid-run."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.proceed = threading.Event()
        self.entries = {}

    def lookup(self, key):
        if not self.entered.is_set():
            self.entered.set()
            assert self.proceed.wait(30)
        return self.entries.get(key)

    def publish(self, key, circuit):
        self.entries[key] = circuit


class _RecordingMemo(ComponentMemo):
    """A dict memo that records every key looked up."""

    def __init__(self) -> None:
        self.lookups = []
        self.entries = {}

    def lookup(self, key):
        self.lookups.append(key)
        return self.entries.get(key)

    def publish(self, key, circuit):
        self.entries[key] = circuit


class TestRecursionLimit:
    def test_component_pass_compiles_a_deep_component(self):
        cnf = deep_clause_cnf()
        (canon,) = plan_components(cnf)
        memo = _RecordingMemo()
        assert compile_component(canon, memo)
        assert model_count(memo.entries[canon]) == 2**600 - 1
        assert model_count(compile_cnf(cnf).circuit) == 2**600 - 1

    def test_a_finished_compile_keeps_the_limit_for_a_running_one(self):
        shallow, deep = _GatedMemo(), _GatedMemo()
        results = {}

        def compile_into(name, cnf, memo):
            try:
                results[name] = model_count(compile_cnf(cnf, memo=memo).circuit)
            except RecursionError as exc:
                results[name] = exc

        first = threading.Thread(
            target=compile_into,
            args=("shallow", deep_clause_cnf(10), shallow),
        )
        second = threading.Thread(
            target=compile_into, args=("deep", deep_clause_cnf(), deep)
        )
        first.start()
        assert shallow.entered.wait(30)  # the shallow compile is inside
        second.start()
        assert deep.entered.wait(30)  # so is the deep one
        shallow.proceed.set()
        first.join(30)  # the shallow compile leaves first
        deep.proceed.set()
        second.join(60)
        assert results == {"shallow": 2**10 - 1, "deep": 2**600 - 1}

    def test_concurrent_entries_never_see_a_lower_limit(self):
        original = sys.getrecursionlimit()
        interval = sys.getswitchinterval()
        too_low = []

        def enter_and_leave(num_vars):
            for _ in range(300):
                with _recursion_headroom(num_vars):
                    if sys.getrecursionlimit() < 8 * num_vars + 1000:
                        too_low.append(num_vars)

        threads = [
            threading.Thread(target=enter_and_leave, args=(2000 * (i + 1),))
            for i in range(8)
        ]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert too_low == []
        assert sys.getrecursionlimit() == original


def imdb_shape_cnfs(query: str) -> list[Cnf]:
    db = generate_imdb(ImdbConfig(movies=40, people=60))
    extracted = lineage(to_plan(imdb_query(query).sql, db), db, endogenous_only=True)
    return [
        tseytin_transform(extracted.lineage_of(answer))
        for answer in sorted(extracted.tuples(), key=repr)
    ]


class TestSearch:
    #: ``(decisions, cache_hits, components_split)`` recorded with the
    #: tuple-based search the bitset search replaced: it must make
    #: exactly the same decisions.  Keys name a family member and
    #: whether top-level components went through the memo.
    PINNED_BLOCKS = {
        (0, True): (99, 28, 13), (0, False): (85, 27, 20),
        (1, True): (92, 23, 14), (1, False): (82, 20, 16),
        (2, True): (78, 24, 14), (2, False): (75, 21, 18),
    }
    #: query -> (answers, decisions, cache_hits, components_split),
    #: summed over the answers on IMDB with 40 movies and 60 people.
    PINNED_IMDB = {"16a": (15, 538, 611, 225), "17e": (29, 1561, 1604, 658)}

    @staticmethod
    def search(stats):
        return (stats.decisions, stats.cache_hits, stats.components_split)

    def test_shared_blocks_search_is_pinned(self):
        circuits = shared_block_circuits(
            3, n_blocks=3, block_vars=10, block_terms=5, term_width=3, seed=0
        )
        found = {}
        for i, circuit in enumerate(circuits):
            cnf = tseytin_transform(circuit)
            for memoize in (True, False):
                stats = compile_cnf(cnf, memoize_components=memoize).stats
                found[i, memoize] = self.search(stats)
        assert found == self.PINNED_BLOCKS

    @pytest.mark.parametrize("query", sorted(PINNED_IMDB))
    def test_imdb_search_is_pinned(self, query):
        cnfs = imdb_shape_cnfs(query)
        totals = [len(cnfs), 0, 0, 0]
        for cnf in cnfs:
            for i, value in enumerate(self.search(compile_cnf(cnf).stats)):
                totals[i + 1] += value
        assert tuple(totals) == self.PINNED_IMDB[query]

    def test_plan_names_the_keys_a_compile_looks_up(self):
        cnfs = [tseytin_transform(c) for c in shared_block_circuits(
            2, n_blocks=3, block_vars=10, block_terms=5, term_width=3, seed=1
        )]
        cnfs += imdb_shape_cnfs("17e")
        planned = 0
        for cnf in cnfs:
            memo = _RecordingMemo()
            compile_cnf(cnf, memo=memo)
            assert plan_components(cnf) == list(dict.fromkeys(memo.lookups))
            planned += len(memo.lookups)
        assert planned > 0

    @given(clauses_strategy)
    @settings(max_examples=60, deadline=None)
    def test_small_components_stitch_exactly_the_planned_keys(self, clauses):
        # Every component of two or more variables goes through the
        # canonical memo, so small CNFs exercise the stitching path.
        cnf = labelled_cnf(6, clauses)
        memo = _RecordingMemo()
        circuit = compile_cnf(cnf, memo=memo, component_min_vars=2).circuit
        assert plan_components(cnf, min_vars=2) == list(
            dict.fromkeys(memo.lookups)
        )
        assert counts_by_size(circuit, 6) == brute_counts_by_size(cnf)
        assert check_decomposable(circuit)


class TestStats:
    def test_stats_populated(self):
        cnf = labelled_cnf(4, [(1, 2), (3, 4), (-1, 3)])
        result = compile_cnf(cnf)
        assert result.stats.nodes == len(result.circuit)
        assert result.stats.seconds >= 0
        assert result.stats.decisions >= 1

    def test_component_split_detected(self):
        # Two independent clauses -> component decomposition.
        cnf = labelled_cnf(4, [(1, 2), (3, 4)])
        result = compile_cnf(cnf)
        assert result.stats.components_split >= 1

    def test_cache_hits_on_shared_subproblems(self):
        clauses = [(1, 2), (-1, 2), (2, 3), (3, 4), (-3, 4)]
        result = compile_cnf(labelled_cnf(4, clauses))
        assert result.stats.cache_entries >= 1


def hub_cnf(occurrences: int) -> Cnf:
    """One connected, unit-free component in which variable 1 occurs in
    ``occurrences`` clauses.  Canonicalizing it hashes that variable's
    color once per occurrence, and the color grows with the
    occurrences, so at 20,000 the top-level split alone takes 7-10 s
    without a deadline check (2-core x86 host, CPython 3.12)."""
    clauses = []
    for i in range(occurrences):
        a, b = 2 + 2 * i, 3 + 2 * i
        nxt = 4 + 2 * i if i + 1 < occurrences else 2
        clauses += [(1, a, -b), (-a, b, nxt)]
    return labelled_cnf(2 * occurrences + 1, clauses)


class TestBudgets:
    def test_time_budget_bounds_the_top_level_split(self):
        cnf = hub_cnf(20_000)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="time budget"):
            compile_cnf(cnf, budget=CompilationBudget(max_seconds=1.0))
        assert time.perf_counter() - start < 3.0

    def test_canonicalization_polls_every_clause(self):
        clauses = tuple(hub_cnf(50).clauses)
        polls = []
        canonical_component(clauses, lambda: polls.append(1))
        assert len(polls) >= len(clauses)
        # and the poll's exception ends the refinement
        with pytest.raises(BudgetExceeded):
            canonical_component(clauses, _raise_budget)


    def test_node_budget_raises(self):
        cnf = intractable_cnf(n_vars=60, seed=5)
        with pytest.raises(BudgetExceeded):
            compile_cnf(cnf, budget=CompilationBudget(max_nodes=50))

    def test_time_budget_raises(self):
        cnf = intractable_cnf(n_vars=70, seed=5)
        with pytest.raises(BudgetExceeded):
            compile_cnf(cnf, budget=CompilationBudget(max_seconds=0.05))

    def test_generous_budget_succeeds(self):
        cnf = labelled_cnf(4, [(1, 2), (3, 4)])
        result = compile_cnf(cnf, budget=CompilationBudget(max_nodes=10_000))
        assert model_count(result.circuit) > 0


class TestCompileCircuit:
    @given(nested_exprs(), st.sets(st.sampled_from(["a", "b", "c", "d"])))
    @settings(max_examples=80, deadline=None)
    def test_semantics_preserved(self, expr, assignment):
        circuit = circuit_from_nested(expr)
        compiled = compile_circuit(circuit).circuit
        assert compiled.evaluate(assignment) == circuit.evaluate(assignment)

    @given(nested_exprs())
    @settings(max_examples=40, deadline=None)
    def test_output_vars_subset(self, expr):
        circuit = circuit_from_nested(expr)
        compiled = compile_circuit(circuit).circuit
        assert compiled.reachable_vars() <= circuit.variables()
