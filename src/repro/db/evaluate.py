"""Semiring-annotated evaluation of relational algebra.

``evaluate(plan, db, semiring)`` returns an :class:`AnnotatedRelation`
mapping each output tuple to its semiring annotation, annotating every
stored fact.  With :class:`~repro.db.semiring.CircuitSemiring` this
computes exactly the Boolean provenance ``Lin(q[x̄/t̄], D)`` (one circuit
gate per output tuple) that the paper obtains from ProvSQL.

:func:`lineage` builds the same provenance but pays only for facts that
reach an answer.  It first evaluates the plan over plain row tuples,
then pushes the answers back down the plan to find the rows of every
operator that occur in some derivation of some answer, and only then
builds gates, for those rows alone.  The gates it builds are the ones
``evaluate`` would build, in the same relative order, so every answer's
lineage -- and its structural signature -- is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from ..circuits.circuit import TRUE, Circuit
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
        return resolve_column(self.columns, name)


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
        rows = {fact.values: semiring.var(fact) for fact in db.relation(plan.relation)}
        return AnnotatedRelation(_scan_columns(plan, db), rows)

    if isinstance(plan, Select):
        child = evaluate(plan.child, db, semiring)
        test = compile_predicate(plan.predicate, child.columns)
        rows = {row: ann for row, ann in child.rows.items() if test(row)}
        return AnnotatedRelation(child.columns, rows)

    if isinstance(plan, Project):
        child = evaluate(plan.child, db, semiring)
        key = _projector(child.columns, plan.columns)
        items = ((key(row), ann) for row, ann in child.rows.items())
        rows = _merge({}, items, semiring.plus)
        return AnnotatedRelation(tuple(plan.columns), rows)

    if isinstance(plan, Rename):
        child = evaluate(plan.child, db, semiring)
        return AnnotatedRelation(_renamed(plan, child.columns), child.rows)

    if isinstance(plan, Join):
        left = evaluate(plan.left, db, semiring)
        right = evaluate(plan.right, db, semiring)
        left_key, right_key = _join_keys(plan, left.columns, right.columns)
        build_right = len(right.rows) <= len(left.rows)
        rows = {
            lrow + rrow: semiring.times(lann, rann)
            for lrow, lann, rrow, rann in _join_pairs(
                left.rows, right.rows, left_key, right_key, build_right)
        }
        return AnnotatedRelation(left.columns + right.columns, rows)

    if isinstance(plan, Union):
        if not plan.children:
            raise AlgebraError("Union needs at least one child")
        first = evaluate(plan.children[0], db, semiring)
        rows = dict(first.rows)
        for child_plan in plan.children[1:]:
            child = evaluate(child_plan, db, semiring)
            _check_union_arity(first.columns, child.columns)
            _merge(rows, child.rows.items(), semiring.plus)
        return AnnotatedRelation(first.columns, rows)

    raise AlgebraError(f"unknown operator {plan!r}")


def _scan_columns(plan: Scan, db: Database) -> tuple[str, ...]:
    rel_schema = db.schema.relation(plan.relation)
    return tuple(f"{plan.prefix}.{a}" for a in rel_schema.attribute_names)


def _renamed(plan: Rename, columns: tuple[str, ...]) -> tuple[str, ...]:
    mapping = dict(plan.mapping)
    return tuple(mapping.get(c, c) for c in columns)


def _check_union_arity(first: tuple[str, ...], other: tuple[str, ...]) -> None:
    if len(other) != len(first):
        raise AlgebraError(f"Union arity mismatch: {first} vs {other}")


def _projector(
    columns: tuple[str, ...], names: Iterable[str]
) -> Callable[[tuple], tuple]:
    """A row -> tuple function picking the columns ``names``."""
    indices = [resolve_column(columns, name) for name in names]
    if not indices:
        return lambda row: ()
    if len(indices) == 1:
        (index,) = indices
        return lambda row: (row[index],)
    return itemgetter(*indices)


def _join_keys(
    plan: Join, left: tuple[str, ...], right: tuple[str, ...]
) -> tuple[Callable[[tuple], tuple], Callable[[tuple], tuple]]:
    """The (left, right) join-key projectors of ``plan``'s pairs."""
    return (
        _projector(left, [l for l, _ in plan.pairs]),
        _projector(right, [r for _, r in plan.pairs]),
    )


def _merge(
    rows: dict[tuple, object],
    items: Iterable[tuple[tuple, object]],
    plus: Callable[[object, object], object],
) -> dict[tuple, object]:
    """Add ``(row, annotation)`` items to ``rows``, ``plus``-ing the
    annotations of a repeated row in arrival order; returns ``rows``."""
    for row, annotation in items:
        if row in rows:
            rows[row] = plus(rows[row], annotation)
        else:
            rows[row] = annotation
    return rows


def _join_pairs(
    left: dict[tuple, object],
    right: dict[tuple, object],
    left_key: Callable[[tuple], tuple],
    right_key: Callable[[tuple], tuple],
    build_right: bool,
) -> Iterator[tuple[tuple, object, tuple, object]]:
    """Every matching ``(lrow, lann, rrow, rann)`` of a hash join.

    The table is built on the right side if ``build_right``, else on the
    left.  Pairs come in probe-side row order, and each probe row's
    matches in build-side row order.
    """
    table: dict[tuple, list] = {}
    if build_right:
        for row, annotation in right.items():
            table.setdefault(right_key(row), []).append((row, annotation))
        for lrow, lann in left.items():
            for rrow, rann in table.get(left_key(lrow), ()):
                yield lrow, lann, rrow, rann
    else:
        for row, annotation in left.items():
            table.setdefault(left_key(row), []).append((row, annotation))
        for rrow, rann in right.items():
            for lrow, lann in table.get(right_key(rrow), ()):
                yield lrow, lann, rrow, rann


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

    Only facts that reach an answer get a gate.  A plain pass evaluates
    the plan over row tuples and keeps every operator's rows.  A
    push-down from the answers marks the rows that occur in some
    derivation of some answer, and so the *live* facts of every scan.
    The circuit pass then replays the unreduced evaluation on the rows
    whose annotation involves no dead fact (see :func:`_annotate`), in
    the unreduced order: facts in relation order, each relation's gates
    created at its first scan, Selects read from the plain pass, each
    join probing the side the plain pass probed, each union child merged
    before the next is evaluated.  It builds every gate of
    ``evaluate(plan, db, CircuitSemiring(...))`` that lies in some
    answer's lineage, in the same relative order, and no gate over a
    dead fact.  Answers, their order, and every answer's
    :meth:`~repro.circuits.circuit.Circuit.structural_signature` are
    those of the unreduced evaluation.
    """
    root = _plain(plan, db)
    live_facts: dict[str, set[tuple]] = {}
    _push_down(root, set(root.rows), live_facts)
    semiring = CircuitSemiring(database=db, endogenous_only=endogenous_only)
    rows = _annotate(root, semiring, live_facts, {})
    return LineageResult(AnnotatedRelation(root.columns, rows), semiring.circuit)


class _Node:
    """One operator of a plan after :func:`lineage`'s plain pass."""

    __slots__ = ("op", "columns", "rows", "children", "key", "relation",
                 "facts")

    def __init__(self, op: Operator, columns: tuple[str, ...],
                 rows: dict[tuple, None], children: tuple["_Node", ...] = ()):
        self.op = op
        self.columns = columns
        #: every output row, in evaluation order
        self.rows = rows
        self.children = children
        #: Project: the row projector; Join: (left key, right key,
        #: build on the right)
        self.key: object = None
        #: Scan: the relation's schema name and its facts, in order
        self.relation = ""
        self.facts: list[Fact] = []


def _plain(plan: Operator, db: Database) -> _Node:
    """Evaluate ``plan`` over row tuples, keeping every node's rows."""
    if isinstance(plan, Scan):
        facts = db.relation(plan.relation)
        node = _Node(plan, _scan_columns(plan, db),
                     dict.fromkeys(fact.values for fact in facts))
        node.relation = db.schema.relation(plan.relation).name
        node.facts = facts
        return node
    if isinstance(plan, Select):
        child = _plain(plan.child, db)
        test = compile_predicate(plan.predicate, child.columns)
        rows = {row: None for row in child.rows if test(row)}
        return _Node(plan, child.columns, rows, (child,))
    if isinstance(plan, Project):
        child = _plain(plan.child, db)
        key = _projector(child.columns, plan.columns)
        node = _Node(plan, tuple(plan.columns),
                     dict.fromkeys(map(key, child.rows)), (child,))
        node.key = key
        return node
    if isinstance(plan, Rename):
        child = _plain(plan.child, db)
        return _Node(plan, _renamed(plan, child.columns), child.rows, (child,))
    if isinstance(plan, Join):
        left = _plain(plan.left, db)
        right = _plain(plan.right, db)
        left_key, right_key = _join_keys(plan, left.columns, right.columns)
        build_right = len(right.rows) <= len(left.rows)
        rows = {
            lrow + rrow: None
            for lrow, _, rrow, _ in _join_pairs(
                left.rows, right.rows, left_key, right_key, build_right)
        }
        node = _Node(plan, left.columns + right.columns, rows, (left, right))
        node.key = (left_key, right_key, build_right)
        return node
    if isinstance(plan, Union):
        if not plan.children:
            raise AlgebraError("Union needs at least one child")
        first = _plain(plan.children[0], db)
        children = [first]
        rows = dict(first.rows)
        for child_plan in plan.children[1:]:
            child = _plain(child_plan, db)
            _check_union_arity(first.columns, child.columns)
            children.append(child)
            rows.update(child.rows)
        return _Node(plan, first.columns, rows, tuple(children))
    raise AlgebraError(f"unknown operator {plan!r}")


def _push_down(
    node: _Node, live: set[tuple], live_facts: dict[str, set[tuple]]
) -> None:
    """Push ``node``'s surviving rows ``live`` down to its children (the
    rows some surviving row is built from), and at each Scan add them to
    ``live_facts`` under the relation's name."""
    op = node.op
    if isinstance(op, Scan):
        live_facts.setdefault(node.relation, set()).update(live)
    elif isinstance(op, (Select, Rename)):
        _push_down(node.children[0], live, live_facts)
    elif isinstance(op, Project):
        (child,) = node.children
        key = node.key
        survivors = {row for row in child.rows if key(row) in live}
        _push_down(child, survivors, live_facts)
    elif isinstance(op, Join):
        left, right = node.children
        arity = len(left.columns)
        _push_down(left, {row[:arity] for row in live}, live_facts)
        _push_down(right, {row[arity:] for row in live}, live_facts)
    elif isinstance(op, Union):
        for child in node.children:
            rows = child.rows
            _push_down(child, {row for row in live if row in rows}, live_facts)


#: Stands in, during :func:`lineage`'s circuit pass, for the annotation
#: of a row that the unreduced evaluation builds from some fact that
#: reaches no answer.  No gate over such a fact is in any answer's
#: lineage, so the pass builds none.
_DIRTY = object()


def _annotate(
    node: _Node,
    semiring: CircuitSemiring,
    live_facts: dict[str, set[tuple]],
    declared: dict[str, dict[tuple, int]],
) -> dict[tuple, int]:
    """The circuit pass: the *clean* rows of ``node`` and their gates.

    A row is clean when its unreduced annotation involves no fact that
    reaches no answer.  Every gate of an answer's lineage is first built
    by the unreduced evaluation at a step whose inputs are clean, so
    replaying exactly the clean steps, in the unreduced order, builds
    those gates in the unreduced relative order.

    ``live_facts[r]`` holds the values of relation ``r``'s live facts,
    over all its scans.  The first scan of ``r`` annotates its clean
    facts (live ones, and exogenous ones under ``endogenous_only``) in
    relation order and records them in ``declared`` for every other
    scan of ``r``.
    """
    op = node.op
    if isinstance(op, Scan):
        gates = declared.get(node.relation)
        if gates is None:
            clean = live_facts[node.relation]
            if semiring.endogenous_only:
                # An exogenous fact is TRUE: clean whether or not it
                # reaches an answer.
                exogenous = semiring.database.exogenous_in(node.relation)
                clean = clean | {fact.values for fact in exogenous}
            gates = declared[node.relation] = {
                fact.values: semiring.var(fact)
                for fact in node.facts if fact.values in clean
            }
        return gates
    if isinstance(op, Union):
        # Each child is merged before the next one is evaluated.
        rows: dict[tuple, object] = {}
        for child in node.children:
            clean = _annotate(child, semiring, live_facts, declared)
            _merge_clean(rows, child.rows, lambda row: row, clean, semiring)
        return _drop_dirty(rows)
    children = [
        _annotate(child, semiring, live_facts, declared)
        for child in node.children
    ]
    if isinstance(op, Select):
        selected = node.rows
        return {row: ann for row, ann in children[0].items() if row in selected}
    if isinstance(op, Rename):
        return children[0]
    if isinstance(op, Project):
        rows = {}
        _merge_clean(rows, node.children[0].rows, node.key, children[0], semiring)
        return _drop_dirty(rows)
    # Join
    left_key, right_key, build_right = node.key
    times = semiring.times
    return {
        lrow + rrow: times(lann, rann)
        for lrow, lann, rrow, rann in _join_pairs(
            children[0], children[1], left_key, right_key, build_right)
    }


def _merge_clean(
    rows: dict[tuple, object],
    child_rows: Iterable[tuple],
    key: Callable[[tuple], tuple],
    clean: dict[tuple, int],
    semiring: CircuitSemiring,
) -> None:
    """Merge every child row into ``rows`` under ``key``, in order.

    An output row the unreduced evaluation ORs together from clean and
    dirty child rows is clean only if a TRUE member absorbs the dirty
    ones, and the gates OR-ed before its first dirty member are clean
    either way; so every child row takes part, a dirty one as
    :data:`_DIRTY`.
    """
    circuit = semiring.circuit

    def plus(a: object, b: object) -> object:
        if a is _DIRTY or b is _DIRTY:
            other = b if a is _DIRTY else a
            if other is not _DIRTY and circuit.kind(other) == TRUE:
                return other
            return _DIRTY
        return semiring.plus(a, b)

    _merge(rows, ((key(row), clean.get(row, _DIRTY)) for row in child_rows), plus)


def _drop_dirty(rows: dict[tuple, object]) -> dict[tuple, int]:
    return {row: ann for row, ann in rows.items() if ann is not _DIRTY}


def boolean_answer(plan: Operator, db: Database) -> bool:
    """Evaluate the plan as a Boolean query: is the output non-empty?"""
    from .semiring import BooleanSemiring

    return len(evaluate(plan, db, BooleanSemiring()).rows) > 0
