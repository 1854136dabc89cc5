"""Tests for schemas, facts, and databases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, Fact, RelationSchema, Schema, SchemaError
from repro.db.schema import Attribute


def simple_schema():
    return Schema.of(
        RelationSchema.of("R", ("a", int), ("b", str)),
        RelationSchema.of("S", "x"),
    )


class TestSchema:
    def test_relation_lookup(self):
        schema = simple_schema()
        assert schema.relation("R").arity == 2
        assert "S" in schema
        assert "T" not in schema

    def test_unknown_relation(self):
        with pytest.raises(SchemaError):
            simple_schema().relation("T")

    def test_duplicate_relation(self):
        schema = simple_schema()
        with pytest.raises(SchemaError):
            schema.add(RelationSchema.of("R", "z"))

    def test_attribute_type_validation(self):
        attr = Attribute("a", int)
        attr.validate(3)
        with pytest.raises(SchemaError):
            attr.validate("x")

    def test_untyped_attribute_accepts_anything(self):
        Attribute("a").validate(object())

    def test_arity_validation(self):
        schema = simple_schema()
        with pytest.raises(SchemaError):
            schema.relation("R").validate((1,))

    def test_position(self):
        rel = simple_schema().relation("R")
        assert rel.position("b") == 1
        with pytest.raises(SchemaError):
            rel.position("zzz")

    def test_attribute_names(self):
        assert simple_schema().relation("R").attribute_names == ("a", "b")


class TestFact:
    def test_equality_and_hash(self):
        f1 = Fact("R", (1, "x"))
        f2 = Fact("R", (1, "x"))
        f3 = Fact("R", (2, "x"))
        assert f1 == f2 and hash(f1) == hash(f2)
        assert f1 != f3

    def test_repr(self):
        assert repr(Fact("R", (1, "x"))) == "R(1, 'x')"

    def test_ordering_is_stable(self):
        facts = [Fact("R", (2,)), Fact("R", (1,)), Fact("Q", (9,))]
        ordered = sorted(facts)
        assert ordered[0].relation == "Q"

    def test_mixed_type_ordering(self):
        # must not raise even with incomparable value types
        sorted([Fact("R", (1,)), Fact("R", ("a",))])

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_order_matches_whole_key_order(self, data):
        # ``<`` keys one value pair at a time; the order must be the one
        # of the whole ``(relation, ((type name, repr), ...))`` key.
        value = st.one_of(
            st.integers(-3, 3), st.text("ab", max_size=2), st.none(),
            st.booleans(), st.floats(allow_nan=True, width=16),
        )
        fact = st.builds(
            Fact, st.sampled_from("RS"), st.lists(value, max_size=3))
        a, b = data.draw(fact), data.draw(fact)

        def key(f):
            return (f.relation,
                    tuple((type(v).__name__, repr(v)) for v in f.values))

        assert (a < b) == (key(a) < key(b))
        assert (b < a) == (key(b) < key(a))


class TestDatabase:
    def test_add_and_contains(self):
        db = Database(simple_schema())
        fact = db.add("R", 1, "x")
        assert fact in db
        assert len(db) == 1

    def test_add_validates(self):
        db = Database(simple_schema())
        with pytest.raises(SchemaError):
            db.add("R", "not-int", "x")

    def test_set_semantics(self):
        db = Database(simple_schema())
        db.add("R", 1, "x")
        db.add("R", 1, "x")
        assert len(db) == 1

    def test_reinsert_updates_endogenous_status(self):
        db = Database(simple_schema())
        fact = db.add("R", 1, "x", endogenous=True)
        db.add("R", 1, "x", endogenous=False)
        assert not db.is_endogenous(fact)

    def test_endo_exo_partition(self):
        db = Database(simple_schema())
        e = db.add("R", 1, "x", endogenous=True)
        x = db.add("R", 2, "y", endogenous=False)
        assert db.endogenous_facts() == [e]
        assert db.exogenous_facts() == [x]
        assert db.exogenous_in("R") == {x}

    def test_mark_relation(self):
        db = Database(simple_schema())
        db.add("R", 1, "x")
        db.add("R", 2, "y")
        db.mark_relation("R", endogenous=False)
        assert db.endogenous_facts() == []

    def test_set_endogenous_unknown_fact(self):
        db = Database(simple_schema())
        with pytest.raises(SchemaError):
            db.set_endogenous(Fact("R", (1, "x")), True)

    def test_remove(self):
        db = Database(simple_schema())
        fact = db.add("R", 1, "x")
        db.remove(fact)
        assert fact not in db
        with pytest.raises(SchemaError):
            db.remove(fact)

    def test_restrict_endogenous(self):
        db = Database(simple_schema())
        e1 = db.add("R", 1, "a", endogenous=True)
        e2 = db.add("R", 2, "b", endogenous=True)
        x = db.add("S", "keep", endogenous=False)
        world = db.restrict_endogenous({e1})
        assert e1 in world and x in world and e2 not in world
        # original untouched
        assert e2 in db

    def test_copy_independent(self):
        db = Database(simple_schema())
        fact = db.add("R", 1, "x")
        clone = db.copy()
        clone.remove(fact)
        assert fact in db and fact not in clone

    def test_relation_listing(self):
        db = Database(simple_schema())
        db.add("R", 1, "x")
        db.add("S", "v")
        assert len(db.relation("R")) == 1
        assert [f.relation for f in db.facts()] == ["R", "S"]

    def test_add_many(self):
        db = Database(simple_schema())
        facts = db.add_many("S", [("a",), ("b",)])
        assert len(facts) == 2 and len(db) == 2

    def test_repr(self):
        db = Database(simple_schema())
        assert "Database(" in repr(db)


class TestBulkLoad:
    @pytest.mark.parametrize("bad", [(2,), (2, "y", 3), ("2", "y"), (2, 3)],
                             ids=["short", "long", "type-a", "type-b"])
    def test_bad_row_raises_like_add_and_inserts_nothing(self, bad):
        db = Database(simple_schema())
        kept = db.add("R", 9, "z", endogenous=False)
        with pytest.raises(SchemaError) as from_add:
            db.add("R", *bad)
        with pytest.raises(SchemaError) as from_bulk:
            db.add_many("R", [(1, "x"), bad, (3, "w")], endogenous=True)
        assert str(from_bulk.value) == str(from_add.value)
        assert db.relation("R") == [kept]
        assert db.endogenous_facts() == []

    def test_reinsert_as_exogenous_leaves_the_endogenous_set(self):
        db = Database(simple_schema())
        first, second = db.add_many("R", [(1, "x"), (2, "y")])
        db.add_many("R", [(2, "y")], endogenous=False)
        assert db.endogenous_facts() == [first]
        assert db.exogenous_facts() == [second]
        assert db.relation("R") == [first, second]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.booleans(),                      # add_many (else add)
        st.sampled_from(["R", "S"]),
        st.lists(st.tuples(st.integers(0, 3), st.sampled_from("ab")),
                 max_size=4),
        st.booleans(),                      # endogenous
    ), max_size=12))
    def test_matches_a_dict_and_set_model(self, ops):
        db = Database(simple_schema())
        rows = {"R": {}, "S": {}}      # insertion-ordered, as dict keys
        endogenous = set()
        for bulk, relation, pairs, endo in ops:
            batch = pairs if relation == "R" else [(a,) for a, _ in pairs]
            if bulk:
                db.add_many(relation, batch, endogenous=endo)
            else:
                for row in batch:
                    db.add(relation, *row, endogenous=endo)
            for row in batch:
                rows[relation][row] = None
                (endogenous.add if endo else endogenous.discard)(
                    (relation, row))
        assert [(f.relation, f.values) for f in db.facts()] == [
            (relation, row) for relation in ("R", "S")
            for row in rows[relation]]
        assert {(f.relation, f.values) for f in db.endogenous_facts()} \
            == endogenous
