"""Tests for the extension measures: causal effect (Banzhaf) and
counterfactual responsibility."""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.numerics.fixed as fixed
from repro.circuits import circuit_from_nested, eliminate_auxiliary, tseytin_transform
from repro.compiler import compile_cnf
from repro.core import shapley_all_facts
from repro.core.causal_effect import (
    causal_effects,
    responsibilities,
    responsibility,
)
from repro.db import lineage
from repro.workloads.flights import (
    fact,
    flights_database,
    flights_query,
)
from repro.workloads.synthetic import random_monotone_dnf


def compile_ddnnf(circuit):
    cnf = tseytin_transform(circuit)
    return eliminate_auxiliary(compile_cnf(cnf).circuit, set(cnf.labels.values()))


def flights_ddnnf():
    db = flights_database()
    plan = flights_query().to_algebra(db.schema)
    circuit = lineage(plan, db, endogenous_only=True).lineage_of(())
    return db, compile_ddnnf(circuit)


def brute_banzhaf(circuit, players):
    """Causal effect of every player from the definition (exponential):
    the average marginal contribution over all coalitions of the
    others."""
    effects = {}
    for target in players:
        others = [p for p in players if p != target]
        diff = 0
        for mask in range(1 << len(others)):
            coalition = {others[i] for i in range(len(others))
                         if mask >> i & 1}
            diff += int(circuit.evaluate(coalition | {target}))
            diff -= int(circuit.evaluate(coalition))
        effects[target] = Fraction(diff, 1 << len(others))
    return effects


class TestCausalEffect:
    def test_dictator(self):
        ddnnf = compile_ddnnf(circuit_from_nested("x"))
        effects = causal_effects(ddnnf, ["x", "y"])
        assert effects["x"] == 1 and effects["y"] == 0

    def test_and_game(self):
        ddnnf = compile_ddnnf(circuit_from_nested(("and", "x", "y")))
        effects = causal_effects(ddnnf, ["x", "y"])
        assert effects["x"] == effects["y"] == Fraction(1, 2)

    def test_flights_ranking_matches_shapley(self):
        db, ddnnf = flights_ddnnf()
        endo = db.endogenous_facts()
        effects = causal_effects(ddnnf, endo)
        shapley = shapley_all_facts(ddnnf, endo)
        # same symmetry classes, same top fact and zero fact
        assert max(effects, key=effects.get) == fact("a1")
        assert effects[fact("a8")] == 0
        assert effects[fact("a2")] == effects[fact("a3")]
        # ...but different values: causal effect is not Shapley.
        assert effects[fact("a1")] != shapley[fact("a1")]

    @given(st.integers(3, 6), st.integers(1, 5), st.integers(1, 2),
           st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_matches_banzhaf_definition(self, n_vars, n_terms, width, seed):
        circuit = random_monotone_dnf(n_vars, n_terms, width, seed)
        players = [f"x{i}" for i in range(n_vars)]
        ddnnf = compile_ddnnf(circuit)
        effects = causal_effects(ddnnf, players)
        assert effects == brute_banzhaf(circuit, players)

    @given(st.integers(2, 5), st.integers(1, 4), st.integers(1, 2),
           st.integers(0, 500),
           st.sampled_from(["random", "tautology", "contradiction"]),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_edge_cases_match_brute_force(
        self, n_vars, n_terms, width, seed, lineage_kind, numpy
    ):
        # A constant lineage, a player the lineage never mentions, and
        # the sweep with the machine-width tier switched off all reduce
        # to the definition.
        circuit = {
            "random": random_monotone_dnf(n_vars, n_terms, width, seed),
            "tautology": circuit_from_nested(("or", "x0", ("not", "x0"))),
            "contradiction": circuit_from_nested(
                ("and", "x0", ("not", "x0"))),
        }[lineage_kind]
        players = [f"x{i}" for i in range(n_vars)] + ["absent"]
        ddnnf = compile_ddnnf(circuit)
        with mock.patch.object(
                fixed, "HAS_NUMPY", fixed.HAS_NUMPY and numpy):
            effects = causal_effects(ddnnf, players)
        assert effects == brute_banzhaf(circuit, players)
        assert effects["absent"] == 0


class TestResponsibility:
    def test_counterfactual_fact(self):
        circuit = circuit_from_nested("x")
        assert responsibility(circuit, ["x"], "x") == 1

    def test_needs_contingency(self):
        # x | y: removing y makes x counterfactual -> 1/2 each.
        circuit = circuit_from_nested(("or", "x", "y"))
        values = responsibilities(circuit, ["x", "y"])
        assert values == {"x": Fraction(1, 2), "y": Fraction(1, 2)}

    def test_irrelevant_fact(self):
        circuit = circuit_from_nested("x")
        assert responsibility(circuit, ["x", "z"], "z") == 0

    def test_flights(self):
        db = flights_database()
        plan = flights_query().to_algebra(db.schema)
        circuit = lineage(plan, db, endogenous_only=True).lineage_of(())
        endo = db.endogenous_facts()
        # a1 needs the two route families removed: contingency of
        # removing {a4, a5 (or a2, a3), a6 or a7}-style sets.
        value = responsibility(circuit, endo, fact("a1"))
        assert value == Fraction(1, 4)
        assert responsibility(circuit, endo, fact("a8")) == 0

    def test_max_contingency_bound(self):
        db = flights_database()
        plan = flights_query().to_algebra(db.schema)
        circuit = lineage(plan, db, endogenous_only=True).lineage_of(())
        endo = db.endogenous_facts()
        assert responsibility(circuit, endo, fact("a1"), max_contingency=1) == 0

    def test_non_answer_returns_zero(self):
        circuit = circuit_from_nested(("and", "x", "y"))
        # with only x as player and y absent, query never holds
        assert responsibility(circuit, ["x"], "x") == 0
