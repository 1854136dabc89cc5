"""Tests for relational algebra evaluation across semirings."""

from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, GateKind

from repro.db import (
    AlgebraError,
    And,
    Between,
    BooleanSemiring,
    CircuitSemiring,
    Col,
    Comparison,
    Const,
    CountingSemiring,
    Database,
    Fact,
    InList,
    Join,
    Like,
    Not,
    Or,
    PolynomialSemiring,
    Project,
    RelationSchema,
    Rename,
    Scan,
    Schema,
    Select,
    Union,
    WhySemiring,
    boolean_answer,
    count_filters,
    count_joins,
    evaluate,
    lineage,
)
from repro.db.evaluate import AnnotatedRelation, LineageResult


def sample_db():
    schema = Schema.of(
        RelationSchema.of("R", ("a", int), ("b", str)),
        RelationSchema.of("S", ("b", str), ("c", int)),
    )
    db = Database(schema)
    db.add("R", 1, "x")
    db.add("R", 2, "x")
    db.add("R", 3, "y")
    db.add("S", "x", 10)
    db.add("S", "y", 20)
    db.add("S", "y", 30)
    return db


class TestOperators:
    def test_scan_columns(self):
        rel = evaluate(Scan("R"), sample_db(), CountingSemiring())
        assert rel.columns == ("R.a", "R.b")
        assert len(rel) == 3

    def test_scan_alias(self):
        rel = evaluate(Scan("R", "r1"), sample_db(), CountingSemiring())
        assert rel.columns == ("r1.a", "r1.b")

    def test_select(self):
        plan = Select(Scan("R"), Comparison("=", Col("R.b"), Const("x")))
        rel = evaluate(plan, sample_db(), CountingSemiring())
        assert sorted(t[0] for t in rel.tuples()) == [1, 2]

    def test_project_merges_duplicates(self):
        plan = Project(Scan("R"), ("R.b",))
        rel = evaluate(plan, sample_db(), CountingSemiring())
        assert rel.rows[("x",)] == 2
        assert rel.rows[("y",)] == 1

    def test_join(self):
        plan = Join(Scan("R"), Scan("S"), (("R.b", "S.b"),))
        rel = evaluate(plan, sample_db(), CountingSemiring())
        # R has 2 x-rows and 1 y-row; S has 1 x-row and 2 y-rows
        assert len(rel) == 2 * 1 + 1 * 2

    def test_join_cross_product(self):
        plan = Join(Scan("R"), Scan("S"))
        rel = evaluate(plan, sample_db(), CountingSemiring())
        assert len(rel) == 9

    def test_join_build_side_symmetry(self):
        db = sample_db()
        pairs = (("R.b", "S.b"),)
        left_heavy = evaluate(Join(Scan("R"), Scan("S"), pairs), db, CountingSemiring())
        right_pairs = (("S.b", "R.b"),)
        right_heavy = evaluate(Join(Scan("S"), Scan("R"), right_pairs), db, CountingSemiring())
        assert len(left_heavy) == len(right_heavy)

    def test_union(self):
        plan = Union((Project(Scan("R"), ("R.b",)), Project(Scan("S"), ("S.b",))))
        rel = evaluate(plan, sample_db(), CountingSemiring())
        assert rel.rows[("x",)] == 2 + 1
        assert rel.rows[("y",)] == 1 + 2

    def test_union_arity_mismatch(self):
        plan = Union((Scan("R"), Project(Scan("S"), ("S.b",))))
        with pytest.raises(AlgebraError):
            evaluate(plan, sample_db(), CountingSemiring())

    def test_union_empty(self):
        with pytest.raises(AlgebraError):
            evaluate(Union(()), sample_db(), CountingSemiring())

    def test_rename(self):
        plan = Rename(Scan("R"), (("R.a", "key"),))
        rel = evaluate(plan, sample_db(), CountingSemiring())
        assert rel.columns == ("key", "R.b")

    def test_column_resolution_suffix(self):
        plan = Select(Scan("R"), Comparison("=", Col("a"), Const(1)))
        rel = evaluate(plan, sample_db(), CountingSemiring())
        assert len(rel) == 1

    def test_column_resolution_ambiguous(self):
        plan = Join(Scan("R"), Scan("S"))
        joined = evaluate(plan, sample_db(), CountingSemiring())
        with pytest.raises(AlgebraError):
            joined.column_index("b")

    def test_column_resolution_unknown(self):
        rel = evaluate(Scan("R"), sample_db(), CountingSemiring())
        with pytest.raises(AlgebraError):
            rel.column_index("zzz")


class TestPredicates:
    def db(self):
        return sample_db()

    def run(self, predicate, relation="R"):
        rel = evaluate(Select(Scan(relation), predicate), self.db(), BooleanSemiring())
        return sorted(rel.tuples())

    def test_comparisons(self):
        assert self.run(Comparison("<", Col("a"), Const(3))) == [(1, "x"), (2, "x")]
        assert self.run(Comparison(">=", Col("a"), Const(3))) == [(3, "y")]
        assert self.run(Comparison("<>", Col("b"), Const("x"))) == [(3, "y")]

    def test_bad_operator(self):
        with pytest.raises(AlgebraError):
            Comparison("~", Col("a"), Const(1))

    def test_like(self):
        db = self.db()
        db.add("R", 4, "xyz")
        rel = evaluate(
            Select(Scan("R"), Like(Col("b"), "x%")), db, BooleanSemiring()
        )
        assert sorted(t[0] for t in rel.tuples()) == [1, 2, 4]

    def test_like_underscore_and_negation(self):
        assert self.run(Like(Col("b"), "_")) == [(1, "x"), (2, "x"), (3, "y")]
        assert self.run(Like(Col("b"), "x", negated=True)) == [(3, "y")]

    def test_in_list(self):
        assert self.run(InList(Col("a"), (1, 3))) == [(1, "x"), (3, "y")]
        assert self.run(InList(Col("a"), (1, 3), negated=True)) == [(2, "x")]

    def test_between(self):
        assert self.run(Between(Col("a"), Const(2), Const(3))) == [(2, "x"), (3, "y")]

    def test_boolean_connectives(self):
        pred = Or(
            (
                Comparison("=", Col("a"), Const(1)),
                And(
                    (
                        Comparison("=", Col("b"), Const("y")),
                        Not(Comparison("=", Col("a"), Const(99))),
                    )
                ),
            )
        )
        assert self.run(pred) == [(1, "x"), (3, "y")]


class TestSemiringAgreement:
    def plan(self):
        return Project(
            Join(Scan("R"), Scan("S"), (("R.b", "S.b"),)), ("R.b",)
        )

    def test_counting_matches_why_sizes(self):
        db = sample_db()
        counts = evaluate(self.plan(), db, CountingSemiring())
        whys = evaluate(self.plan(), db, WhySemiring())
        for row in counts.rows:
            assert counts.rows[row] == len(whys.rows[row])

    def test_polynomial_total_degree(self):
        db = sample_db()
        polys = evaluate(self.plan(), db, PolynomialSemiring())
        for row, poly in polys.rows.items():
            for monomial, coeff in poly.items():
                assert coeff == 1
                assert sum(e for _, e in monomial) == 2  # two joined facts

    def test_lineage_counts_models(self):
        db = sample_db()
        result = lineage(self.plan(), db)
        counting = evaluate(self.plan(), db, CountingSemiring())
        for row in counting.rows:
            circuit = result.lineage_of(row)
            # lineage is monotone DNF; full assignment satisfies it
            assert circuit.evaluate(set(db.facts()))

    def test_boolean_answer(self):
        db = sample_db()
        assert boolean_answer(self.plan(), db)
        empty = Select(Scan("R"), Comparison("=", Col("a"), Const(99)))
        assert not boolean_answer(empty, db)


class TestLineage:
    def test_endogenous_only_fixes_exogenous(self):
        db = sample_db()
        db.mark_relation("S", endogenous=False)
        plan = Project(Join(Scan("R"), Scan("S"), (("R.b", "S.b"),)), ("R.b",))
        result = lineage(plan, db, endogenous_only=True)
        for row in result.tuples():
            vars_of = result.circuit.reachable_vars(result.relation.rows[row])
            assert all(fact.relation == "R" for fact in vars_of)

    def test_facts_of(self):
        db = sample_db()
        plan = Project(Join(Scan("R"), Scan("S"), (("R.b", "S.b"),)), ("R.b",))
        result = lineage(plan, db)
        facts = result.facts_of(("x",))
        assert Fact("R", (1, "x")) in facts
        assert Fact("S", ("x", 10)) in facts

    def test_lineage_truth(self):
        """The lineage evaluated on a sub-database equals the query
        answer on that sub-database (the defining property)."""
        db = sample_db()
        plan = Project(Join(Scan("R"), Scan("S"), (("R.b", "S.b"),)), ("R.b",))
        result = lineage(plan, db)
        circuit = result.lineage_of(("y",))
        import itertools

        all_facts = list(db.facts())
        for r in range(len(all_facts) + 1):
            for subset in itertools.combinations(all_facts, r):
                world = db.restrict_endogenous(set())  # empty template
                world = Database(db.schema)
                for fact in subset:
                    world.add(fact.relation, *fact.values)
                from repro.db import evaluate as ev, BooleanSemiring

                answer = ("y",) in ev(plan, world, BooleanSemiring()).rows
                assert circuit.evaluate(set(subset)) == answer


def _answer_on_shared_circuit(padding):
    """One answer's lineage built on top of ``padding`` unrelated gates
    that all have lower ids, as in a provenance circuit shared by many
    answers."""
    c = Circuit()
    pad = [c.var(("pad", i)) for i in range(padding // 2)]
    for left, right in zip(pad, pad[1:]):
        c.and_((left, right))
    r = [c.var(("R", i)) for i in range(3)]
    s = [c.var(("S", i)) for i in range(3)]
    terms = [c.and_((r[i], s[j])) for i in range(3) for j in range(3) if i <= j]
    row = ("answer",)
    relation = AnnotatedRelation(("R.a",), {row: c.or_(terms)})
    return LineageResult(relation, c), row


def _extraction_seconds(result, row, calls=100, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            result.lineage_of(row)
            result.facts_of(row)
        best = min(best, perf_counter() - start)
    return best


class TestConeLocalExtraction:
    def test_extraction_cost_ignores_unrelated_gates(self):
        padded, row = _answer_on_shared_circuit(100_000)
        plain, _ = _answer_on_shared_circuit(0)
        assert len(padded.circuit) > 100_000
        extracted = padded.lineage_of(row)
        expected = plain.lineage_of(row)
        assert (extracted._kinds, extracted._children, extracted._labels,
                extracted.output) == (expected._kinds, expected._children,
                                      expected._labels, expected.output)
        assert padded.facts_of(row) == plain.facts_of(row)
        ratio = (_extraction_seconds(padded, row)
                 / _extraction_seconds(plain, row))
        assert ratio < 5, f"padded extraction {ratio:.1f}x the unpadded one"


SURVIVOR_SCHEMA = Schema.of(
    RelationSchema.of("R", "a", "b"),
    RelationSchema.of("S", "b", "c"),
)

R_JOIN_S = Join(Scan("R"), Scan("S"), (("R.b", "S.b"),))

#: Every operator the survivor pass pushes rows through, and plans in
#: which the unreduced evaluation builds one gate first for a row that
#: reaches no answer and again for one that does.
SURVIVOR_PLANS = {
    "select_scan": Select(Scan("R"), Comparison("<>", Col("R.a"), Const(1))),
    "residual_select": Project(
        Select(R_JOIN_S, Comparison("<", Col("R.a"), Col("S.c"))), ("R.a",)),
    "rename": Project(Rename(R_JOIN_S, (("R.a", "x"),)), ("x",)),
    "union": Union((
        Project(R_JOIN_S, ("S.c",)),
        Project(Select(Scan("S"), Comparison(">", Col("S.b"), Const(1))),
                ("S.c",)),
    )),
    "self_join": Project(
        Join(Scan("R", "r1"), Scan("R", "r2"), (("r1.b", "r2.a"),)),
        ("r1.a", "r2.b"),
    ),
    "cross_product": Project(
        Join(Select(Scan("R"), Comparison("=", Col("R.a"), Const(2))),
             Scan("S")),
        ("S.c",),
    ),
    "union_of_shared_join": Union((
        Project(Select(R_JOIN_S, Comparison("<", Col("R.a"), Col("S.c"))),
                ("R.a",)),
        Project(Scan("S"), ("S.b",)),
        Project(Select(R_JOIN_S, Comparison("=", Col("R.a"), Col("S.c"))),
                ("R.a",)),
    )),
    "three_way_self_join": Project(
        Select(
            Join(Scan("S", "s1"),
                 Join(Scan("S", "s2"), Scan("S", "s3"), (("s2.c", "s3.b"),)),
                 (("s1.c", "s2.b"),)),
            Comparison("<>", Col("s1.b"), Col("s3.c")),
        ),
        ("s1.b",),
    ),
}

SMALL = st.integers(1, 3)


@st.composite
def survivor_databases(draw):
    rows = draw(st.lists(
        st.tuples(st.sampled_from("RS"), SMALL, SMALL),
        min_size=1, max_size=16, unique=True,
    ))
    db = Database(SURVIVOR_SCHEMA)
    for relation, x, y in rows:
        db.add(relation, x, y, endogenous=draw(st.booleans()))
    return db


class TestSurvivorPass:
    """``lineage`` annotates only facts that reach an answer, and agrees
    with the unreduced ``evaluate`` on everything else."""

    @given(survivor_databases(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_unreduced_evaluation(self, db, endogenous_only):
        for name, plan in SURVIVOR_PLANS.items():
            result = lineage(plan, db, endogenous_only=endogenous_only)
            semiring = CircuitSemiring(
                database=db, endogenous_only=endogenous_only)
            reference = evaluate(plan, db, semiring)
            assert list(result.relation.rows) == list(reference.rows), name
            for answer, gate in reference.rows.items():
                got = result.circuit.structural_signature(
                    result.relation.rows[answer])
                assert got == semiring.circuit.structural_signature(gate), (
                    name, answer)
            if not endogenous_only:
                # With every fact a variable nothing absorbs a gate, so
                # the gates built are exactly the answers' facts.
                circuit = result.circuit
                labels = {
                    circuit.label(g) for g in circuit.gates()
                    if circuit.kind(g) == GateKind.VAR
                }
                reached = set().union(
                    *(result.facts_of(a) for a in result.tuples()))
                assert labels == reached, name


class TestCounters:
    def test_count_joins_and_filters(self):
        plan = Select(
            Join(Scan("R"), Scan("S"), (("R.b", "S.b"),)),
            And((Comparison("=", Col("R.a"), Const(1)),
                 Comparison("<", Col("S.c"), Const(50)))),
        )
        assert count_joins(plan) == 1
        assert count_filters(plan) == 3  # join pair + two selections
