"""Tests for the TPC-H / IMDB generators and query suites."""

import hashlib

import pytest

from repro.db import boolean_answer, lineage
from repro.workloads import (
    IMDB_ALL_QUERIES,
    IMDB_EXTRA_QUERIES,
    IMDB_QUERIES,
    TPCH_QUERIES,
    ImdbConfig,
    TpchConfig,
    describe,
    generate_imdb,
    generate_tpch,
    imdb_query,
    tpch_query,
)
from repro.workloads.flights import flights_database

TPCH_SMALL = TpchConfig(scale_factor=0.0003)
IMDB_SMALL = ImdbConfig(movies=120, people=150, companies=20)


@pytest.fixture(scope="module")
def tpch_db():
    return generate_tpch(TPCH_SMALL)


@pytest.fixture(scope="module")
def imdb_db():
    return generate_imdb(IMDB_SMALL)


class TestTpchGenerator:
    def test_deterministic(self):
        a = generate_tpch(TPCH_SMALL)
        b = generate_tpch(TPCH_SMALL)
        assert sorted(map(repr, a.facts())) == sorted(map(repr, b.facts()))

    def test_seed_changes_data(self):
        a = generate_tpch(TpchConfig(scale_factor=0.0003, seed=1))
        b = generate_tpch(TpchConfig(scale_factor=0.0003, seed=2))
        assert sorted(map(repr, a.facts())) != sorted(map(repr, b.facts()))

    def test_fixed_dimension_tables(self, tpch_db):
        assert len(tpch_db.relation("region")) == 5
        assert len(tpch_db.relation("nation")) == 25

    def test_cardinality_ratios(self, tpch_db):
        parts = len(tpch_db.relation("part"))
        assert len(tpch_db.relation("partsupp")) == 4 * parts
        orders = len(tpch_db.relation("orders"))
        lineitems = len(tpch_db.relation("lineitem"))
        assert orders < lineitems <= 7 * orders

    def test_scaling(self):
        small = generate_tpch(TpchConfig(scale_factor=0.0003))
        large = generate_tpch(TpchConfig(scale_factor=0.0006))
        assert len(large) > len(small)

    def test_endogenous_partition(self, tpch_db):
        endo_relations = {f.relation for f in tpch_db.endogenous_facts()}
        exo_relations = {f.relation for f in tpch_db.exogenous_facts()}
        assert "lineitem" in endo_relations
        assert exo_relations == {"region", "nation"}

    def test_dates_are_iso(self, tpch_db):
        order = tpch_db.relation("orders")[0]
        date = order.values[4]
        assert len(date) == 10 and date[4] == "-" and date[7] == "-"


class TestTpchQueries:
    def test_lookup(self):
        assert tpch_query("Q3").name == "Q3"
        with pytest.raises(KeyError):
            tpch_query("Q99")

    def test_suite_size(self):
        assert len(TPCH_QUERIES) == 8

    @pytest.mark.parametrize("spec", TPCH_QUERIES, ids=lambda s: s.name)
    def test_every_query_has_answers(self, tpch_db, spec):
        assert boolean_answer(spec.plan(tpch_db), tpch_db)

    def test_shapes_match_paper_style(self, tpch_db):
        shape = describe(tpch_query("Q3"), tpch_db)
        assert shape.joined_tables == 3
        assert shape.filter_conditions == 5
        shape5 = describe(tpch_query("Q5"), tpch_db)
        assert shape5.joined_tables == 6
        assert shape5.filter_conditions == 9

    def test_q19_filter_heavy(self, tpch_db):
        shape = describe(tpch_query("Q19"), tpch_db)
        assert shape.joined_tables == 2
        assert shape.filter_conditions >= 20

    def test_lineage_is_endogenous_only(self, tpch_db):
        spec = tpch_query("Q5")
        result = lineage(spec.plan(tpch_db), tpch_db, endogenous_only=True)
        for answer in result.tuples():
            for fact in result.facts_of(answer):
                assert tpch_db.is_endogenous(fact)


class TestImdbGenerator:
    def test_deterministic(self):
        a = generate_imdb(IMDB_SMALL)
        b = generate_imdb(IMDB_SMALL)
        assert sorted(map(repr, a.facts())) == sorted(map(repr, b.facts()))

    def test_dimension_tables_seeded_with_query_constants(self, imdb_db):
        keywords = {f.values[1] for f in imdb_db.relation("keyword")}
        assert {"superhero", "sequel", "character-name-in-title"} <= keywords
        infos = {f.values[1] for f in imdb_db.relation("info_type")}
        assert {"top 250 rank", "mini biography", "rating"} <= infos

    def test_skewed_fanout(self, imdb_db):
        """Zipf skew: the most popular movie has several times the cast
        of the median movie."""
        from collections import Counter

        casts = Counter(f.values[1] for f in imdb_db.relation("cast_info"))
        counts = sorted(casts.values())
        assert counts[-1] >= 4 * counts[len(counts) // 2]

    def test_endogenous_partition(self, imdb_db):
        exo = {f.relation for f in imdb_db.exogenous_facts()}
        assert "keyword" in exo and "company_name" in exo
        endo = {f.relation for f in imdb_db.endogenous_facts()}
        assert "cast_info" in endo and "title" in endo


class TestImdbQueries:
    def test_lookup(self):
        assert imdb_query("8d").name == "8d"
        with pytest.raises(KeyError):
            imdb_query("zz")

    def test_suite_size(self):
        assert len(IMDB_QUERIES) == 9
        assert len(IMDB_ALL_QUERIES) == 19

    @pytest.mark.parametrize("spec", IMDB_EXTRA_QUERIES, ids=lambda s: s.name)
    def test_extra_queries_have_answers(self, spec):
        db = generate_imdb()
        assert boolean_answer(spec.plan(db), db)

    def test_extra_query_lookup(self):
        assert imdb_query("14a").name == "14a"

    @pytest.mark.parametrize("spec", IMDB_QUERIES, ids=lambda s: s.name)
    def test_every_query_has_answers(self, spec):
        db = generate_imdb()  # default config, as used by benches
        assert boolean_answer(spec.plan(db), db)

    def test_table_counts_match_paper(self):
        db = generate_imdb(IMDB_SMALL)
        expected = {
            "1a": 5, "6b": 5, "7c": 8, "8d": 7, "11a": 8, "11d": 8,
            "13c": 9, "15d": 9, "16a": 8,
        }
        for name, tables in expected.items():
            assert describe(imdb_query(name), db).joined_tables == tables


def database_digest(db):
    """SHA-256 over every fact as ``(relation, repr(values),
    is_endogenous)``, in the database's iteration order: relations in
    schema order, facts in insertion order."""
    digest = hashlib.sha256()
    for fact in db.facts():
        record = (fact.relation, repr(fact.values), db.is_endogenous(fact))
        digest.update(repr(record).encode() + b"\n")
    return digest.hexdigest()


class TestPinnedOutput:
    """The generators' exact output, pinned across processes and
    versions: a changed random draw, value format, fact order or
    endogenous partition changes the data and fails here."""

    @pytest.mark.parametrize("scale, seed, expected", [
        (0.001, 7,
         "de41e4445c1cea166d334ffc7090d0622825c9785788c8d378a017e9553c48f9"),
        (0.004, 7,
         "53b2c97795fcbbbbfe115e4ba4037d9979a6cfab3c129761180f2badab1a63bc"),
        (0.01, 7,
         "498896f691bc111a43b8d5914296435bbd5bf42deded18340ec58baf8ee9b63f"),
        (0.0003, 1,
         "42f770f43e8506d6e916e4908435fe82da0802b1dae9c6e36b4a1a80ef3f7e11"),
    ])
    def test_tpch(self, scale, seed, expected):
        db = generate_tpch(TpchConfig(scale_factor=scale, seed=seed))
        assert database_digest(db) == expected

    def test_imdb(self):
        db = generate_imdb(ImdbConfig(movies=120, people=160))
        assert database_digest(db) == (
            "1a3f1280249962e812cdf8ace1d78af79326d5bb83ee41f8fc2dde4331a48d38")

    def test_flights(self):
        assert database_digest(flights_database()) == (
            "2d9360497db116cbe6d09e226eea73c289df553d9888f48416e9b479aa67ebba")
