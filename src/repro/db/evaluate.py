"""Semiring-annotated evaluation of relational algebra.

``evaluate(plan, db, semiring)`` returns an :class:`AnnotatedRelation`
mapping each output tuple to its semiring annotation.  With
:class:`~repro.db.semiring.CircuitSemiring` this computes exactly the
Boolean provenance ``Lin(q[x̄/t̄], D)`` (one circuit gate per output
tuple) that the paper obtains from ProvSQL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..circuits.circuit import Circuit
from .algebra import (
    AlgebraError,
    And,
    Between,
    Col,
    Comparison,
    Const,
    Expression,
    InList,
    Join,
    Like,
    Not,
    Operator,
    Or,
    Predicate,
    Project,
    Rename,
    Scan,
    Select,
    Union,
    _COMPARATORS,
)
from .database import Database, Fact
from .semiring import CircuitSemiring, Semiring


@dataclass
class AnnotatedRelation:
    """A relation whose rows carry semiring annotations."""

    columns: tuple[str, ...]
    rows: dict[tuple, object]

    def __len__(self) -> int:
        return len(self.rows)

    def tuples(self) -> list[tuple]:
        return list(self.rows)

    def annotation(self, row: tuple) -> object:
        return self.rows[row]

    def column_index(self, name: str) -> int:
        """Resolve a (possibly unqualified) column name to an index."""
        if name in self.columns:
            return self.columns.index(name)
        matches = [
            i for i, col in enumerate(self.columns)
            if col.rsplit(".", 1)[-1] == name
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise AlgebraError(f"unknown column {name!r}; have {self.columns}")
        raise AlgebraError(f"ambiguous column {name!r}; have {self.columns}")


def resolve_column(columns: tuple[str, ...], name: str) -> int:
    """Resolve ``name`` against qualified ``columns`` (unique suffix
    match allowed for unqualified names)."""
    if name in columns:
        return columns.index(name)
    matches = [i for i, col in enumerate(columns) if col.rsplit(".", 1)[-1] == name]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise AlgebraError(f"unknown column {name!r}; have {columns}")
    raise AlgebraError(f"ambiguous column {name!r}; have {columns}")


# ----------------------------------------------------------------------
# Predicate compilation
# ----------------------------------------------------------------------

def compile_expression(expr: Expression, columns: tuple[str, ...]) -> Callable[[tuple], object]:
    """Compile an expression into a row -> value function."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Col):
        index = resolve_column(columns, expr.name)
        return lambda row: row[index]
    raise AlgebraError(f"unknown expression {expr!r}")


def compile_predicate(
    predicate: Predicate, columns: tuple[str, ...]
) -> Callable[[tuple], bool]:
    """Compile a predicate into a row -> bool function."""
    if isinstance(predicate, Comparison):
        op = _COMPARATORS[predicate.op]
        left = compile_expression(predicate.left, columns)
        right = compile_expression(predicate.right, columns)
        return lambda row: op(left(row), right(row))
    if isinstance(predicate, Like):
        expr = compile_expression(predicate.expr, columns)
        regex = predicate.regex()
        if predicate.negated:
            return lambda row: regex.match(str(expr(row))) is None
        return lambda row: regex.match(str(expr(row))) is not None
    if isinstance(predicate, InList):
        expr = compile_expression(predicate.expr, columns)
        values = set(predicate.values)
        if predicate.negated:
            return lambda row: expr(row) not in values
        return lambda row: expr(row) in values
    if isinstance(predicate, Between):
        expr = compile_expression(predicate.expr, columns)
        low = compile_expression(predicate.low, columns)
        high = compile_expression(predicate.high, columns)
        return lambda row: low(row) <= expr(row) <= high(row)
    if isinstance(predicate, And):
        parts = [compile_predicate(p, columns) for p in predicate.parts]
        return lambda row: all(p(row) for p in parts)
    if isinstance(predicate, Or):
        parts = [compile_predicate(p, columns) for p in predicate.parts]
        return lambda row: any(p(row) for p in parts)
    if isinstance(predicate, Not):
        inner = compile_predicate(predicate.part, columns)
        return lambda row: not inner(row)
    raise AlgebraError(f"unknown predicate {predicate!r}")


# ----------------------------------------------------------------------
# Operator evaluation
# ----------------------------------------------------------------------

def evaluate(plan: Operator, db: Database, semiring: Semiring) -> AnnotatedRelation:
    """Evaluate ``plan`` over ``db`` in the given semiring."""
    if isinstance(plan, Scan):
        rel_schema = db.schema.relation(plan.relation)
        prefix = plan.prefix
        columns = tuple(f"{prefix}.{a}" for a in rel_schema.attribute_names)
        rows: dict[tuple, object] = {}
        for fact in db.relation(plan.relation):
            annotation = semiring.var(fact)
            if fact.values in rows:
                rows[fact.values] = semiring.plus(rows[fact.values], annotation)
            else:
                rows[fact.values] = annotation
        return AnnotatedRelation(columns, rows)

    if isinstance(plan, Select):
        child = evaluate(plan.child, db, semiring)
        test = compile_predicate(plan.predicate, child.columns)
        rows = {row: ann for row, ann in child.rows.items() if test(row)}
        return AnnotatedRelation(child.columns, rows)

    if isinstance(plan, Project):
        child = evaluate(plan.child, db, semiring)
        indices = [resolve_column(child.columns, c) for c in plan.columns]
        rows = {}
        for row, annotation in child.rows.items():
            key = tuple(row[i] for i in indices)
            if key in rows:
                rows[key] = semiring.plus(rows[key], annotation)
            else:
                rows[key] = annotation
        return AnnotatedRelation(tuple(plan.columns), rows)

    if isinstance(plan, Rename):
        child = evaluate(plan.child, db, semiring)
        mapping = dict(plan.mapping)
        columns = tuple(mapping.get(c, c) for c in child.columns)
        return AnnotatedRelation(columns, child.rows)

    if isinstance(plan, Join):
        left = evaluate(plan.left, db, semiring)
        right = evaluate(plan.right, db, semiring)
        return _hash_join(left, right, plan.pairs, semiring)

    if isinstance(plan, Union):
        if not plan.children:
            raise AlgebraError("Union needs at least one child")
        first = evaluate(plan.children[0], db, semiring)
        rows = dict(first.rows)
        for child_plan in plan.children[1:]:
            child = evaluate(child_plan, db, semiring)
            if len(child.columns) != len(first.columns):
                raise AlgebraError(
                    f"Union arity mismatch: {first.columns} vs {child.columns}"
                )
            for row, annotation in child.rows.items():
                if row in rows:
                    rows[row] = semiring.plus(rows[row], annotation)
                else:
                    rows[row] = annotation
        return AnnotatedRelation(first.columns, rows)

    raise AlgebraError(f"unknown operator {plan!r}")


def _hash_join(
    left: AnnotatedRelation,
    right: AnnotatedRelation,
    pairs: Iterable[tuple[str, str]],
    semiring: Semiring,
) -> AnnotatedRelation:
    pairs = tuple(pairs)
    left_idx = [resolve_column(left.columns, l) for l, _ in pairs]
    right_idx = [resolve_column(right.columns, r) for _, r in pairs]
    columns = left.columns + right.columns
    rows: dict[tuple, object] = {}
    # Build on the smaller side.
    if len(right.rows) <= len(left.rows):
        table: dict[tuple, list] = {}
        for row, annotation in right.rows.items():
            key = tuple(row[i] for i in right_idx)
            table.setdefault(key, []).append((row, annotation))
        for lrow, lann in left.rows.items():
            key = tuple(lrow[i] for i in left_idx)
            for rrow, rann in table.get(key, ()):
                out = lrow + rrow
                combined = semiring.times(lann, rann)
                if out in rows:
                    rows[out] = semiring.plus(rows[out], combined)
                else:
                    rows[out] = combined
    else:
        table = {}
        for row, annotation in left.rows.items():
            key = tuple(row[i] for i in left_idx)
            table.setdefault(key, []).append((row, annotation))
        for rrow, rann in right.rows.items():
            key = tuple(rrow[i] for i in right_idx)
            for lrow, lann in table.get(key, ()):
                out = lrow + rrow
                combined = semiring.times(lann, rann)
                if out in rows:
                    rows[out] = semiring.plus(rows[out], combined)
                else:
                    rows[out] = combined
    return AnnotatedRelation(columns, rows)


# ----------------------------------------------------------------------
# Lineage extraction (the ProvSQL role)
# ----------------------------------------------------------------------

@dataclass
class LineageResult:
    """Boolean provenance of every output tuple of a query.

    ``relation.rows`` maps each output tuple to a gate of ``circuit``.
    When built with ``endogenous_only=True``, each gate represents the
    endogenous lineage ``ELin(q[x̄/t̄], Dx, Dn)`` directly.
    """

    relation: AnnotatedRelation
    circuit: Circuit

    def tuples(self) -> list[tuple]:
        return list(self.relation.rows)

    def lineage_of(self, row: tuple) -> Circuit:
        """A pruned, standalone circuit for one output tuple."""
        return self.circuit.condition({}, root=self.relation.rows[row])

    def facts_of(self, row: tuple) -> set[Fact]:
        """Distinct facts appearing in one output tuple's lineage."""
        return self.circuit.reachable_vars(self.relation.rows[row])


def lineage(
    plan: Operator, db: Database, endogenous_only: bool = False
) -> LineageResult:
    """Compute the Boolean provenance of every answer of ``plan``.

    This plays the role of ProvSQL in the paper's Figure 3.  With
    ``endogenous_only=True`` exogenous facts are fixed to TRUE during
    evaluation (the partial evaluation step of the figure happens
    inline, which is equivalent and cheaper).
    """
    semiring = CircuitSemiring(database=db, endogenous_only=endogenous_only)
    relation = evaluate(plan, db, semiring)
    return LineageResult(relation, semiring.circuit)


def boolean_answer(plan: Operator, db: Database) -> bool:
    """Evaluate the plan as a Boolean query: is the output non-empty?"""
    from .semiring import BooleanSemiring

    return len(evaluate(plan, db, BooleanSemiring()).rows) > 0
