"""Cross-module validation: every independent route to a Shapley value
must agree.

For random lineage-shaped inputs we compare:

1. the naive definition (Equation 1) evaluated on the circuit game;
2. the paper's literal Algorithm 1, one conditioning per fact
   (the ``shapley_of_fact`` oracle);
3. Algorithm 1 as the library runs it: one shared derivative sweep
   over the compiled d-DNNF;
4. the whole exact pipeline from the raw lineage (Tseytin, knowledge
   compilation, tape lowering, sweep);
5. the Proposition 3.1 reduction through a PQE oracle (on DB-backed
   instances).

These are the strongest correctness guarantees in the suite: the routes
share almost no code.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import eliminate_auxiliary, tseytin_transform
from repro.compiler import compile_cnf
from repro.core import (
    game_from_circuit,
    run_exact,
    shapley_all_facts,
    shapley_all_via_pqe,
    shapley_naive,
    shapley_naive_query,
)
from repro.db import Database, RelationSchema, Schema, cq, lineage
from repro.workloads.synthetic import random_monotone_dnf

from .test_store import per_fact_oracle


def compile_dpll(circuit):
    cnf = tseytin_transform(circuit)
    return eliminate_auxiliary(compile_cnf(cnf).circuit, set(cnf.labels.values()))


@given(
    st.integers(3, 8),
    st.integers(1, 9),
    st.integers(1, 3),
    st.integers(0, 100_000),
)
@settings(max_examples=30, deadline=None)
def test_four_circuit_routes_agree(n_vars, n_terms, width, seed):
    circuit = random_monotone_dnf(n_vars, n_terms, width, seed)
    players = [f"x{i}" for i in range(n_vars)]

    naive = shapley_naive(game_from_circuit(circuit), players)
    dpll = compile_dpll(circuit)
    conditioning = per_fact_oracle(dpll, players)
    derivative = shapley_all_facts(dpll, players)
    pipeline = run_exact(circuit, players).values

    assert conditioning == naive
    assert derivative == naive
    assert pipeline == naive


@st.composite
def tiny_instances(draw):
    """Random R/S databases with a random endogenous split."""
    r_values = draw(st.sets(st.integers(1, 3), min_size=1, max_size=3))
    s_values = draw(
        st.sets(
            st.tuples(st.integers(1, 3), st.integers(10, 11)),
            min_size=1,
            max_size=4,
        )
    )
    endo_flags = draw(st.lists(st.booleans(), min_size=8, max_size=8))
    return sorted(r_values), sorted(s_values), endo_flags


@given(tiny_instances())
@settings(max_examples=15, deadline=None)
def test_pqe_reduction_agrees_with_naive_on_databases(instance):
    r_values, s_values, endo_flags = instance
    schema = Schema.of(
        RelationSchema.of("R", "a"), RelationSchema.of("S", "a", "b")
    )
    db = Database(schema)
    flag = iter(endo_flags + [True] * 8)
    for v in r_values:
        db.add("R", v, endogenous=next(flag))
    for pair in s_values:
        db.add("S", *pair, endogenous=next(flag))
    if not db.endogenous_facts():
        return
    q = cq(None, "R(x)", "S(x, y)")
    plan = q.to_algebra(schema)
    naive = shapley_naive_query(plan, db)
    via_pqe = shapley_all_via_pqe(q, db)
    assert via_pqe == naive


def test_flights_all_five_routes():
    """The running example through every route at once."""
    from repro.workloads.flights import (
        EXPECTED_SHAPLEY,
        fact,
        flights_database,
        flights_query,
    )

    db = flights_database()
    q = flights_query()
    plan = q.to_algebra(db.schema)
    circuit = lineage(plan, db, endogenous_only=True).lineage_of(())
    endo = db.endogenous_facts()
    expected = {fact(k): v for k, v in EXPECTED_SHAPLEY.items()}

    assert shapley_naive_query(plan, db) == expected
    dpll = compile_dpll(circuit)
    assert per_fact_oracle(dpll, endo) == expected
    assert shapley_all_facts(dpll, endo) == expected
    assert run_exact(circuit, endo).values == expected
    assert shapley_all_via_pqe(q, db) == expected
