"""Tests for Algorithm 1 (exact Shapley from d-DNNF): the shared
derivative sweep and the paper's per-fact conditioning loop (kept as
an oracle), anchored on the paper's Example 2.1 and cross-checked
against the naive definition on random lineage."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, circuit_from_nested
from repro.core import (
    ShapleyTimeout,
    efficiency_gap,
    exact_shapley_of_circuit,
    game_from_circuit,
    shapley_all_facts,
    shapley_coefficients,
    shapley_naive,
    shapley_of_fact,
)
from repro.core.shapley import shapley_from_counts
from repro.db import lineage
from repro.workloads.flights import (
    EXPECTED_SHAPLEY,
    EXPECTED_SHAPLEY_Q2,
    fact,
    flights_database,
    flights_query,
    one_stop_query,
)
from repro.workloads.synthetic import random_monotone_dnf

from .test_store import per_fact_oracle


def compiled_flights(query=None):
    db = flights_database()
    q = query or flights_query()
    plan = q.to_algebra(db.schema)
    result = lineage(plan, db, endogenous_only=True)
    return db, result.lineage_of(())


class TestCoefficients:
    def test_empty(self):
        assert shapley_coefficients(0) == []

    def test_n_two(self):
        assert shapley_coefficients(2) == [Fraction(1, 2), Fraction(1, 2)]

    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_weighted_sum_is_one(self, n):
        """sum_k C(n-1, k) * k!(n-k-1)!/n! == 1/n * n == 1 over all
        positions — the weights integrate to one over coalition sizes."""
        from math import comb

        weights = shapley_coefficients(n)
        assert sum(comb(n - 1, k) * w for k, w in enumerate(weights)) == 1


class TestRunningExample:
    def test_example_21_values(self):
        """The flagship check: all eight values of Example 2.1."""
        db, circuit = compiled_flights()
        values = exact_shapley_of_circuit(circuit, db.endogenous_facts())
        for name, expected in EXPECTED_SHAPLEY.items():
            assert values[fact(name)] == expected, name

    def test_example_53_q2_values(self):
        db, circuit = compiled_flights(one_stop_query())
        values = exact_shapley_of_circuit(circuit, db.endogenous_facts())
        for name, expected in EXPECTED_SHAPLEY_Q2.items():
            assert values[fact(name)] == expected, name

    def test_single_fact_mode(self):
        db, circuit = compiled_flights()
        ddnnf = _compile(circuit)
        value = shapley_of_fact(ddnnf, db.endogenous_facts(), fact("a1"))
        assert value == Fraction(43, 105)

    def test_unknown_fact_rejected(self):
        db, circuit = compiled_flights()
        with pytest.raises(ValueError):
            shapley_of_fact(_compile(circuit), db.endogenous_facts(), "not-a-fact")

    def test_null_player_gets_zero(self):
        db, circuit = compiled_flights()
        ddnnf = _compile(circuit)
        assert (
            shapley_of_fact(ddnnf, db.endogenous_facts(), fact("a8")) == 0
        )

    def test_null_player_out_invariance(self):
        """Shapley values are invariant to dropping null players, so
        computing over the lineage facts only must give the same values
        (this is what ShapleyExplainer.restrict_to_lineage relies on)."""
        db, circuit = compiled_flights()
        full = exact_shapley_of_circuit(circuit, db.endogenous_facts())
        restricted = exact_shapley_of_circuit(
            circuit, sorted(circuit.reachable_vars())
        )
        for key, value in restricted.items():
            assert full[key] == value


class TestModesAgree:
    @given(
        st.integers(4, 9),
        st.integers(2, 10),
        st.integers(1, 3),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_conditioning_vs_derivative(self, n_vars, n_terms, width, seed):
        circuit = random_monotone_dnf(n_vars, n_terms, width, seed)
        players = [f"x{i}" for i in range(n_vars)]
        ddnnf = _compile(circuit)
        a = per_fact_oracle(ddnnf, players)
        b = shapley_all_facts(ddnnf, players)
        assert a == b

    @given(
        st.integers(3, 6),
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_definition(self, n_vars, n_terms, width, seed):
        circuit = random_monotone_dnf(n_vars, n_terms, width, seed)
        players = [f"x{i}" for i in range(n_vars)]
        ddnnf = _compile(circuit)
        exact = shapley_all_facts(ddnnf, players)
        naive = shapley_naive(game_from_circuit(circuit), players)
        assert exact == naive


class TestAxioms:
    @given(st.integers(4, 8), st.integers(1, 8), st.integers(1, 3),
           st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_efficiency(self, n_vars, n_terms, width, seed):
        circuit = random_monotone_dnf(n_vars, n_terms, width, seed)
        players = [f"x{i}" for i in range(n_vars)]
        ddnnf = _compile(circuit)
        values = shapley_all_facts(ddnnf, players)
        assert efficiency_gap(values, circuit, players) == 0

    def test_symmetry_in_running_example(self):
        db, circuit = compiled_flights()
        values = exact_shapley_of_circuit(circuit, db.endogenous_facts())
        assert values[fact("a2")] == values[fact("a3")]
        assert values[fact("a4")] == values[fact("a5")]
        assert values[fact("a6")] == values[fact("a7")]

    def test_monotone_lineage_values_nonnegative(self):
        db, circuit = compiled_flights()
        values = exact_shapley_of_circuit(circuit, db.endogenous_facts())
        assert all(v >= 0 for v in values.values())


class TestEdgeCases:
    def test_constant_true_circuit(self):
        circuit = circuit_from_nested(True)
        values = shapley_all_facts(circuit, ["p", "q"])
        assert values == {"p": 0, "q": 0}

    def test_constant_false_circuit(self):
        circuit = circuit_from_nested(False)
        values = shapley_all_facts(circuit, ["p"])
        assert values == {"p": 0}

    def test_no_players(self):
        circuit = circuit_from_nested(True)
        assert shapley_all_facts(circuit, []) == {}

    def test_single_variable(self):
        circuit = circuit_from_nested("x")
        assert shapley_all_facts(circuit, ["x"]) == {"x": Fraction(1)}

    def test_single_variable_among_many(self):
        circuit = circuit_from_nested("x")
        values = shapley_all_facts(circuit, ["x", "y", "z"])
        assert values["x"] == 1
        assert values["y"] == values["z"] == 0

    def test_negated_variable(self):
        # h(E) = 1 iff x not in E: Shapley(x) = -1 (x destroys the answer).
        circuit = circuit_from_nested(("not", "x"))
        values = shapley_all_facts(circuit, ["x"])
        assert values["x"] == Fraction(-1)

    def test_circuit_with_foreign_vars_rejected(self):
        circuit = circuit_from_nested(("or", "x", "intruder"))
        with pytest.raises(Exception):
            shapley_all_facts(circuit, ["x"])

    def test_deadline_exceeded(self):
        db, circuit = compiled_flights()
        with pytest.raises(ShapleyTimeout):
            shapley_all_facts(
                circuit, db.endogenous_facts(), deadline=0.0
            )

    def test_shapley_from_counts_padding(self):
        # Short count vectors are padded with zeros.
        value = shapley_from_counts([1], [0], 3)
        assert value == Fraction(2, 6)


def _compile(circuit: Circuit) -> Circuit:
    from repro.circuits import eliminate_auxiliary, tseytin_transform
    from repro.compiler import compile_cnf

    cnf = tseytin_transform(circuit)
    result = compile_cnf(cnf)
    return eliminate_auxiliary(result.circuit, set(cnf.labels.values()))
