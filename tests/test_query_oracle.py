"""Whole-query differential test: ``ExplainSession.explain_many`` against
Equation 1 evaluated on the database.

Random small databases over a 3-relation schema run through five fixed
query templates (join + projection, a self-join as in TPC-H Q7, a
union, a selection over a scan, and a residual non-equality selection
over a join, as in IMDB's cyclic plans).  For each answer ``t`` the oracle is the naive Shapley value of
the game ``E ↦ [t ∈ q(Dx ∪ E)]``, so lineage extraction, exogenous
elimination, canonical-signature relabelling, batching and the thread
transport are all checked end to end, on a cold and then a warm pass of
one session.  The warm pass runs no Algorithm-1 sweep: every answer is
relabelled from the Shapley values its shape published on the cold pass.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExplainSession
from repro.core import shapley_naive
from repro.db import (
    BooleanSemiring,
    Col,
    Comparison,
    Const,
    Database,
    Join,
    Project,
    RelationSchema,
    Scan,
    Schema,
    Select,
    Union,
    evaluate,
)

MAX_ENDOGENOUS = 8

SCHEMA = Schema.of(
    RelationSchema.of("R", "a"),
    RelationSchema.of("S", "a", "b"),
    RelationSchema.of("T", "b"),
)

TEMPLATES = {
    "join_project": Project(
        Join(
            Join(Scan("R"), Scan("S"), (("R.a", "S.a"),)),
            Scan("T"),
            (("S.b", "T.b"),),
        ),
        ("R.a",),
    ),
    "self_join": Project(
        Join(Scan("S", "s1"), Scan("S", "s2"), (("s1.b", "s2.a"),)),
        ("s1.a", "s2.b"),
    ),
    "union": Union((
        Project(Join(Scan("R"), Scan("S"), (("R.a", "S.a"),)), ("S.b",)),
        Project(Scan("T"), ("T.b",)),
    )),
    "select_scan": Project(
        Join(
            Select(Scan("S"), Comparison("<>", Col("S.a"), Const(2))),
            Scan("T"),
            (("S.b", "T.b"),),
        ),
        ("S.a",),
    ),
    "residual_select": Project(
        Select(
            Join(
                Join(Scan("R"), Scan("S"), (("R.a", "S.a"),)),
                Scan("T"),
                (("S.b", "T.b"),),
            ),
            Comparison("<>", Col("R.a"), Col("T.b")),
        ),
        ("S.b",),
    ),
}

VALUES = st.integers(1, 3)
FACTS = st.one_of(
    st.tuples(st.just("R"), VALUES),
    st.tuples(st.just("S"), VALUES, VALUES),
    st.tuples(st.just("T"), VALUES),
)


@st.composite
def small_databases(draw):
    """At most ``MAX_ENDOGENOUS`` endogenous facts, a random exogenous
    split of the rest."""
    rows = draw(st.lists(FACTS, min_size=4, max_size=12, unique=True))
    flags = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    db = Database(SCHEMA)
    endogenous = 0
    for (relation, *values), flag in zip(rows, flags):
        flag = flag and endogenous < MAX_ENDOGENOUS
        endogenous += flag
        db.add(relation, *values, endogenous=flag)
    return db


def oracle(plan, db):
    """Equation 1 per answer, over every endogenous sub-database."""
    players = db.endogenous_facts()
    worlds = {}

    def answers_in(coalition):
        if coalition not in worlds:
            world = db.restrict_endogenous(coalition)
            worlds[coalition] = evaluate(plan, world, BooleanSemiring()).rows
        return worlds[coalition]

    return {
        answer: shapley_naive(
            lambda coalition, answer=answer: int(answer in answers_in(coalition)),
            players,
        )
        for answer in evaluate(plan, db, BooleanSemiring()).rows
    }


def assert_matches(results, expected, endogenous):
    assert set(results) == set(expected)
    for answer, result in results.items():
        assert result.ok and result.exact, result
        assert set(result.values) <= endogenous
        got = {fact: value for fact, value in result.values.items() if value}
        want = {fact: value for fact, value in expected[answer].items() if value}
        assert got == want, answer


@given(small_databases())
@settings(max_examples=60, deadline=None)
def test_explain_many_matches_query_oracle(db):
    expected = {name: oracle(plan, db) for name, plan in TEMPLATES.items()}
    endogenous = set(db.endogenous_facts())
    with ExplainSession(db, executor="thread") as session:
        for name, plan in TEMPLATES.items():
            assert_matches(
                session.explain_many(plan), expected[name], endogenous
            )
        cold = session.stats
        for name, plan in TEMPLATES.items():
            assert_matches(
                session.explain_many(plan), expected[name], endogenous
            )
        warm = session.stats
    for key in ("fastpath_hits", "fastpath_fallbacks"):
        assert warm[key] == cold[key], key
