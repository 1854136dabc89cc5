"""Tests for the end-to-end exact pipeline (Figure 3) and explainer."""

from fractions import Fraction

import pytest

from repro.compiler import BudgetExceeded, CompilationBudget
from repro.core import (
    ExactOutcome,
    ShapleyExplainer,
    ShapleyTimeout,
    exact_shapley_of_circuit,
    run_exact,
    to_plan,
)
from repro.db import Operator, Project, Scan, cq, lineage
from repro.engine import ArtifactCache
from repro.workloads.flights import (
    EXPECTED_SHAPLEY,
    fact,
    flights_database,
    flights_query,
)
from repro.workloads.synthetic import intractable_circuit

from .test_store import per_fact_oracle


class TestToPlan:
    def test_sql_string(self):
        db = flights_database()
        plan = to_plan("SELECT src FROM Flights", db)
        assert isinstance(plan, Operator)

    def test_cq(self):
        db = flights_database()
        plan = to_plan(cq(None, "Flights(x, y)"), db)
        assert isinstance(plan, Operator)

    def test_passthrough(self):
        db = flights_database()
        plan = Project(Scan("Flights"), ("Flights.src",))
        assert to_plan(plan, db) is plan


class TestRunExact:
    def circuit(self):
        db = flights_database()
        plan = flights_query().to_algebra(db.schema)
        return db, lineage(plan, db, endogenous_only=True).lineage_of(())

    def test_ok_outcome(self):
        db, circuit = self.circuit()
        outcome = run_exact(circuit, db.endogenous_facts())
        assert outcome.ok and outcome.status == "ok"
        assert outcome.values[fact("a1")] == EXPECTED_SHAPLEY["a1"]

    def test_stats_recorded(self):
        db, circuit = self.circuit()
        outcome = run_exact(circuit, db.endogenous_facts())
        stats = outcome.stats
        assert stats.n_facts == 7  # a8 is not in the lineage
        assert stats.cnf_clauses > 0
        assert stats.cnf_vars >= stats.n_facts
        assert stats.ddnnf_size > 0
        assert outcome.compile_seconds >= 0
        assert outcome.shapley_seconds >= 0

    def test_budget_failure_outcome(self):
        circuit = intractable_circuit()
        players = sorted(circuit.reachable_vars())
        outcome = run_exact(
            circuit, players, budget=CompilationBudget(max_nodes=200)
        )
        assert outcome.status == "budget"
        assert not outcome.ok
        assert outcome.values is None
        assert outcome.error

    def test_exact_shapley_of_circuit_raises_on_budget(self):
        circuit = intractable_circuit()
        players = sorted(circuit.reachable_vars())
        with pytest.raises(BudgetExceeded):
            exact_shapley_of_circuit(
                circuit, players, budget=CompilationBudget(max_nodes=200)
            )

    def test_pipeline_matches_the_per_fact_oracle(self):
        db, circuit = self.circuit()
        players = db.endogenous_facts()
        outcome = run_exact(circuit, players)
        ddnnf = ArtifactCache().ddnnf_for(circuit)
        assert outcome.values == per_fact_oracle(ddnnf, players)
        assert outcome.values[fact("a6")] == EXPECTED_SHAPLEY["a6"]


class TestExplainer:
    def test_explain_boolean_query(self):
        db = flights_database()
        explainer = ShapleyExplainer(db)
        explanations = explainer.explain(flights_query())
        assert list(explanations) == [()]
        values = explanations[()].values()
        assert values[fact("a1")] == EXPECTED_SHAPLEY["a1"]

    def test_explain_sql_multi_answer(self):
        db = flights_database()
        explainer = ShapleyExplainer(db)
        explanations = explainer.explain(
            "SELECT a.country FROM Flights f, Airports a WHERE f.dest = a.name"
        )
        assert ("FR",) in explanations
        values = explanations[("FR",)].values()
        assert all(v >= 0 for v in values.values())

    def test_top(self):
        db = flights_database()
        explainer = ShapleyExplainer(db)
        explanation = explainer.explain(flights_query())[()]
        top = explanation.top(3)
        assert top[0][0] == fact("a1")
        assert len(top) == 3

    def test_restrict_to_lineage_equivalence(self):
        db = flights_database()
        narrow = ShapleyExplainer(db, restrict_to_lineage=True)
        wide = ShapleyExplainer(db, restrict_to_lineage=False)
        v_narrow = narrow.explain(flights_query())[()].values()
        v_wide = wide.explain(flights_query())[()].values()
        for key, value in v_narrow.items():
            assert v_wide[key] == value
        # the wide variant additionally reports the null fact
        assert v_wide[fact("a8")] == 0

    def test_failed_outcome_raises_on_access(self):
        outcome = ExactOutcome("budget", None, None)
        from repro.core.pipeline import TupleExplanation

        explanation = TupleExplanation((), outcome)
        with pytest.raises(RuntimeError):
            explanation.values()
