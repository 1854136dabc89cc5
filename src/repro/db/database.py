"""Facts and databases with an endogenous/exogenous partition.

Following the paper (Section 2), a database ``D`` is a finite set of
facts partitioned into exogenous facts ``Dx`` (taken for granted) and
endogenous facts ``Dn`` (whose contribution we want to quantify).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .schema import Schema, SchemaError


class Fact:
    """A single database fact ``R(a1, ..., ak)``.

    Facts compare and hash by (relation, values); the
    endogenous/exogenous status lives in the :class:`Database`, not in
    the fact itself, so the same fact object can be shared freely.  Facts
    double as the *variable labels* of provenance circuits.
    """

    __slots__ = ("relation", "values", "_hash")

    def __init__(self, relation: str, values: Sequence[object]) -> None:
        self.relation = relation
        self.values = tuple(values)
        self._hash = hash((relation, self.values))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Fact)
            and self.relation == other.relation
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({inner})"

    def __lt__(self, other: "Fact") -> bool:
        # A stable order for deterministic iteration in reports/tests.
        if not isinstance(other, Fact):
            return NotImplemented
        # The order of ``(relation, ((type name, repr) of each value))``,
        # keying one value pair at a time, stopping at the first
        # difference; a prefix sorts first.
        if self.relation != other.relation:
            return self.relation < other.relation
        for mine, theirs in zip(self.values, other.values):
            key = (type(mine).__name__, repr(mine))
            other_key = (type(theirs).__name__, repr(theirs))
            if key != other_key:
                return key < other_key
        return len(self.values) < len(other.values)


class Database:
    """An in-memory relational database under set semantics.

    Facts are added with :meth:`add` (endogenous by default, matching the
    paper's experiments where whole relations are designated endogenous
    or exogenous).  The class supports cheap construction of
    sub-databases (:meth:`restrict_endogenous`), which the naive Shapley
    definition (Equation 1) evaluates over.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._relations: dict[str, dict[Fact, None]] = {
            name: {} for name in schema.names()
        }
        self._endogenous: set[Fact] = set()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, relation: str, *values: object, endogenous: bool = True) -> Fact:
        """Insert one fact: the one-row case of :meth:`add_many`.

        A row that fails validation raises :class:`SchemaError` and
        inserts nothing; re-inserting an existing fact updates only its
        endogenous status."""
        return self.add_many(relation, (values,), endogenous)[0]

    def add_many(
        self, relation: str, rows: Iterable[Sequence[object]], endogenous: bool = True
    ) -> list[Fact]:
        """Insert rows of one relation, validating against the schema.

        Validation is all-or-nothing: every row's arity and attribute
        types are checked before any row is inserted, so a bad row
        raises :class:`SchemaError` and leaves the database unchanged.
        Re-inserting an existing fact is a no-op (set semantics) but
        updates its endogenous status.
        """
        rel_schema = self.schema.relation(relation)
        arity, types = rel_schema.arity, rel_schema.types
        batch = [tuple(row) for row in rows]
        for values in batch:
            if len(values) != arity or not all(map(isinstance, values, types)):
                rel_schema.validate(values)
        facts = [Fact(relation, values) for values in batch]
        self._relations[relation].update(dict.fromkeys(facts))
        self._mark(facts, endogenous)
        return facts

    def remove(self, fact: Fact) -> None:
        """Delete a fact from the database."""
        rel = self._relations.get(fact.relation)
        if rel is None or fact not in rel:
            raise SchemaError(f"fact {fact!r} not in database")
        del rel[fact]
        self._endogenous.discard(fact)

    def set_endogenous(self, fact: Fact, endogenous: bool = True) -> None:
        """Flip the endogenous status of one fact."""
        if fact not in self:
            raise SchemaError(f"fact {fact!r} not in database")
        self._mark((fact,), endogenous)

    def mark_relation(self, relation: str, endogenous: bool) -> None:
        """Designate a whole relation endogenous or exogenous, as done for
        the tables in the paper's experiments."""
        self._mark(self._relations[self.schema.relation(relation).name],
                   endogenous)

    def _mark(self, facts: Iterable[Fact], endogenous: bool) -> None:
        """Add ``facts`` to the endogenous set, or remove them from it,
        in one set operation."""
        if endogenous:
            self._endogenous.update(facts)
        else:
            self._endogenous.difference_update(facts)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def relation(self, name: str) -> list[Fact]:
        """All facts of a relation (stable insertion order)."""
        return list(self._relations[self.schema.relation(name).name])

    def facts(self) -> Iterator[Fact]:
        """Iterate over every fact in the database."""
        for rel in self._relations.values():
            yield from rel

    def __contains__(self, fact: Fact) -> bool:
        rel = self._relations.get(fact.relation)
        return rel is not None and fact in rel

    def __len__(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def is_endogenous(self, fact: Fact) -> bool:
        """True iff the fact is endogenous."""
        return fact in self._endogenous

    def endogenous_facts(self) -> list[Fact]:
        """The set ``Dn``, in stable order."""
        return [f for f in self.facts() if f in self._endogenous]

    def exogenous_facts(self) -> list[Fact]:
        """The set ``Dx``, in stable order."""
        return [f for f in self.facts() if f not in self._endogenous]

    def exogenous_in(self, relation: str) -> set[Fact]:
        """The exogenous facts of one relation, unordered."""
        # set() over the relation's dict reuses the hashes stored in it,
        # so this costs no Fact.__hash__ call per fact.
        facts = self._relations[self.schema.relation(relation).name]
        return set(facts) - self._endogenous

    # ------------------------------------------------------------------
    # Sub-databases
    # ------------------------------------------------------------------

    def restrict_endogenous(self, endogenous_subset: Iterable[Fact]) -> "Database":
        """Return the database ``Dx ∪ E`` for ``E ⊆ Dn``.

        This is the sub-database the coalition game of Equation (1)
        evaluates queries over.
        """
        subset = set(endogenous_subset)
        result = Database(self.schema)
        for fact in self.facts():
            if fact in self._endogenous and fact not in subset:
                continue
            result._relations[fact.relation][fact] = None
            if fact in self._endogenous:
                result._endogenous.add(fact)
        return result

    def copy(self) -> "Database":
        """A shallow copy (facts are shared, containers are fresh)."""
        result = Database(self.schema)
        for name, rel in self._relations.items():
            result._relations[name] = dict(rel)
        result._endogenous = set(self._endogenous)
        return result

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}={len(r)}" for n, r in self._relations.items())
        return f"Database({sizes}; endo={len(self._endogenous)})"
