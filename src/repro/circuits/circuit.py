"""Boolean circuits over named variables.

This module provides the :class:`Circuit` data structure used everywhere in
the library: query lineage (data provenance) is a Boolean circuit whose
variables are database facts, the knowledge compiler emits circuits in
d-DNNF form, and the Shapley algorithms consume them.

Design notes
------------
Gates are plain integers.  A circuit owns parallel arrays (kind, children,
label) indexed by gate id, with the invariant that children always have
smaller ids than their parents.  Bottom-up passes are therefore simple
loops over ``range(len(circuit))`` and never need an explicit topological
sort.  Structurally identical gates are hash-consed, so building the same
sub-circuit twice yields the same gate id.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Hashable, Iterable, Iterator, Mapping


class GateKind(IntEnum):
    """The kind of a circuit gate."""

    VAR = 0
    TRUE = 1
    FALSE = 2
    AND = 3
    OR = 4
    NOT = 5


# Short aliases used pervasively in hot loops.
VAR = GateKind.VAR
TRUE = GateKind.TRUE
FALSE = GateKind.FALSE
AND = GateKind.AND
OR = GateKind.OR
NOT = GateKind.NOT


class CircuitError(ValueError):
    """Raised on structurally invalid circuit operations."""


class Circuit:
    """A Boolean circuit DAG over hashable variable labels.

    Variables are identified by arbitrary hashable *labels* (in this
    library, usually :class:`repro.db.database.Fact` objects or strings).
    Constructor methods (:meth:`var`, :meth:`and_`, :meth:`or_`,
    :meth:`not_`, :meth:`true`, :meth:`false`) return gate ids; the root is
    designated through :attr:`output`.

    Constant simplification is applied during construction (e.g. an AND
    with a FALSE child collapses to FALSE), so circuits built through this
    API never contain constant gates except possibly at the root or where
    a caller explicitly keeps them.
    """

    __slots__ = ("_kinds", "_children", "_labels", "_var_gates", "_cache", "output")

    def __init__(self) -> None:
        self._kinds: list[int] = []
        self._children: list[tuple[int, ...]] = []
        self._labels: list[Hashable | None] = []
        self._var_gates: dict[Hashable, int] = {}
        self._cache: dict[tuple, int] = {}
        self.output: int | None = None

    # ------------------------------------------------------------------
    # Gate construction
    # ------------------------------------------------------------------

    def _add(self, kind: int, children: tuple[int, ...], label: Hashable | None = None) -> int:
        key = (kind, children, label)
        gate = self._cache.get(key)
        if gate is not None:
            return gate
        gate = len(self._kinds)
        self._kinds.append(kind)
        self._children.append(children)
        self._labels.append(label)
        self._cache[key] = gate
        return gate

    def var(self, label: Hashable) -> int:
        """Return the gate for variable ``label``, creating it if needed."""
        gate = self._var_gates.get(label)
        if gate is None:
            gate = self._add(VAR, (), label)
            self._var_gates[label] = gate
        return gate

    def true(self) -> int:
        """Return the constant-TRUE gate."""
        return self._add(TRUE, ())

    def false(self) -> int:
        """Return the constant-FALSE gate."""
        return self._add(FALSE, ())

    def not_(self, child: int) -> int:
        """Return a gate computing the negation of ``child``."""
        kind = self._kinds[child]
        if kind == TRUE:
            return self.false()
        if kind == FALSE:
            return self.true()
        if kind == NOT:
            return self._children[child][0]
        return self._add(NOT, (child,))

    def and_(self, children: Iterable[int]) -> int:
        """Return a gate computing the conjunction of ``children``.

        TRUE children are dropped; a FALSE child collapses the gate to
        FALSE; duplicate children are merged; an empty conjunction is TRUE
        and a singleton conjunction is the child itself.
        """
        kept: list[int] = []
        seen: set[int] = set()
        for child in children:
            kind = self._kinds[child]
            if kind == TRUE:
                continue
            if kind == FALSE:
                return self.false()
            if child not in seen:
                seen.add(child)
                kept.append(child)
        if not kept:
            return self.true()
        if len(kept) == 1:
            return kept[0]
        return self._add(AND, tuple(kept))

    def or_(self, children: Iterable[int]) -> int:
        """Return a gate computing the disjunction of ``children``.

        Dual simplifications of :meth:`and_`.
        """
        kept: list[int] = []
        seen: set[int] = set()
        for child in children:
            kind = self._kinds[child]
            if kind == FALSE:
                continue
            if kind == TRUE:
                return self.true()
            if child not in seen:
                seen.add(child)
                kept.append(child)
        if not kept:
            return self.false()
        if len(kept) == 1:
            return kept[0]
        return self._add(OR, tuple(kept))

    def literal(self, label: Hashable, positive: bool) -> int:
        """Return the gate for the literal ``label`` / ``not label``."""
        gate = self.var(label)
        return gate if positive else self.not_(gate)

    # Raw constructors used by the knowledge compiler, which must keep
    # gates it knows to be deterministic/decomposable even when the
    # generic simplifier would restructure them.

    def raw_and(self, children: tuple[int, ...]) -> int:
        """Add an AND gate without simplification (children preserved)."""
        return self._add(AND, children)

    def raw_or(self, children: tuple[int, ...]) -> int:
        """Add an OR gate without simplification (children preserved)."""
        return self._add(OR, children)

    # ------------------------------------------------------------------
    # Structural accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._kinds)

    @property
    def size(self) -> int:
        """Number of gates in the circuit (including unreachable ones)."""
        return len(self._kinds)

    @property
    def edge_count(self) -> int:
        """Total number of wires (child references)."""
        return sum(len(ch) for ch in self._children)

    def kind(self, gate: int) -> GateKind:
        """Return the :class:`GateKind` of ``gate``."""
        return GateKind(self._kinds[gate])

    def kind_codes(self) -> list[int]:
        """Every gate's kind code, indexed by gate id, as stored.

        Hot walkers index this list instead of calling :meth:`kind`,
        which builds a :class:`GateKind` per call.  A code is an int or
        a :class:`GateKind` member; either compares equal to ``VAR``,
        ``AND`` and the other members.  The list is the circuit's own:
        read it, never mutate it.
        """
        return self._kinds

    def children(self, gate: int) -> tuple[int, ...]:
        """Return the child gate ids of ``gate``."""
        return self._children[gate]

    def label(self, gate: int) -> Hashable:
        """Return the variable label of a VAR gate."""
        if self._kinds[gate] != VAR:
            raise CircuitError(f"gate {gate} is not a variable gate")
        return self._labels[gate]

    def gates(self) -> Iterator[int]:
        """Iterate over all gate ids in topological (bottom-up) order."""
        return iter(range(len(self._kinds)))

    def variables(self) -> set[Hashable]:
        """Return the set of all variable labels present in the circuit."""
        return set(self._var_gates)

    def var_gate(self, label: Hashable) -> int | None:
        """Return the gate id of variable ``label``, or None if absent."""
        return self._var_gates.get(label)

    def output_gate(self) -> int:
        """Return the output gate id, raising if it was never set."""
        if self.output is None:
            raise CircuitError("circuit has no output gate")
        return self.output

    def gate_counts(self) -> dict[GateKind, int]:
        """Return a histogram of gate kinds (useful in benchmarks)."""
        counts: dict[GateKind, int] = {kind: 0 for kind in GateKind}
        for kind in self._kinds:
            counts[GateKind(kind)] += 1
        return counts

    # ------------------------------------------------------------------
    # Reachability and variable sets
    # ------------------------------------------------------------------

    def reachable(self, root: int | None = None) -> list[bool]:
        """Return a flag per gate: is it reachable from ``root``?"""
        if root is None:
            root = self.output_gate()
        flags = [False] * len(self._kinds)
        stack = [root]
        flags[root] = True
        while stack:
            gate = stack.pop()
            for child in self._children[gate]:
                if not flags[child]:
                    flags[child] = True
                    stack.append(child)
        return flags

    def cone(self, root: int | None = None) -> list[int]:
        """Return the ids of the gates reachable from ``root``, sorted.

        Sorted ids are a bottom-up order, so every pass over the cone
        visits gates exactly as a sweep of ``range(root + 1)`` filtered
        by :meth:`reachable` would.  The walk touches only the cone: one
        answer's lineage inside a large shared provenance circuit costs
        time proportional to that lineage, not to the shared circuit.
        """
        if root is None:
            root = self.output_gate()
        childs = self._children
        seen = {root}
        stack = [root]
        while stack:
            for child in childs[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return sorted(seen)

    def reachable_vars(self, root: int | None = None) -> set[Hashable]:
        """Return the labels of variables reachable from ``root``."""
        kinds = self._kinds
        return {self._labels[gate] for gate in self.cone(root) if kinds[gate] == VAR}

    def gate_var_sets(self, root: int | None = None) -> dict[int, frozenset[int]]:
        """Compute ``Vars(g)`` for every gate reachable from ``root``.

        Variable sets are represented as frozensets of VAR *gate ids* (not
        labels), which is both faster and unambiguous.
        """
        empty: frozenset[int] = frozenset()
        sets: dict[int, frozenset[int]] = {}
        for gate in self.cone(root):
            kind = self._kinds[gate]
            if kind == VAR:
                sets[gate] = frozenset((gate,))
            elif kind in (TRUE, FALSE):
                sets[gate] = empty
            else:
                children = self._children[gate]
                if len(children) == 1:
                    sets[gate] = sets[children[0]]
                else:
                    union: frozenset[int] = sets[children[0]]
                    for child in children[1:]:
                        union = union | sets[child]
                    sets[gate] = union
        return sets

    def structural_signature(
        self, root: int | None = None
    ) -> tuple[tuple, tuple]:
        """Canonical, label-free form of the circuit reachable from
        ``root``, plus the variable labels in canonical order.

        Returns ``(signature, labels)`` where ``signature`` is a tuple
        with one entry per reachable gate — ``(kind, i)`` for the
        canonical *i*-th distinct variable, ``(kind, *children)`` with
        canonically renumbered child ids otherwise — and ``labels[i]``
        is the actual label of canonical variable *i* (first-occurrence
        order along the bottom-up gate sweep).

        Two circuits have equal signatures iff they are identical up to
        a bijective renaming of their variable labels, which makes the
        signature the key of the engine layer's
        :class:`~repro.engine.cache.ArtifactCache`: isomorphic lineages
        (the same query shape instantiated on different answer tuples)
        share one compiled artifact, recovered per tuple by renaming
        canonical variable *i* back to ``labels[i]``.
        """
        canon: dict[int, int] = {}
        labels: list[Hashable] = []
        parts: list[tuple] = []
        for gate in self.cone(root):
            kind = self._kinds[gate]
            if kind == VAR:
                parts.append((kind, len(labels)))
                labels.append(self._labels[gate])
            else:
                parts.append(
                    (kind, *[canon[c] for c in self._children[gate]])
                )
            canon[gate] = len(canon)
        return tuple(parts), tuple(labels)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, true_vars: Iterable[Hashable], root: int | None = None) -> bool:
        """Evaluate the circuit on the assignment where exactly the
        variables in ``true_vars`` are true.

        ``true_vars`` may be any iterable of labels; labels not appearing
        in the circuit are ignored.
        """
        if root is None:
            root = self.output_gate()
        true_set = true_vars if isinstance(true_vars, (set, frozenset)) else set(true_vars)
        values = [False] * (root + 1)
        kinds = self._kinds
        childs = self._children
        labels = self._labels
        for gate in range(root + 1):
            kind = kinds[gate]
            if kind == VAR:
                values[gate] = labels[gate] in true_set
            elif kind == TRUE:
                values[gate] = True
            elif kind == FALSE:
                values[gate] = False
            elif kind == AND:
                values[gate] = all(values[c] for c in childs[gate])
            elif kind == OR:
                values[gate] = any(values[c] for c in childs[gate])
            else:  # NOT
                values[gate] = not values[childs[gate][0]]
        return values[root]

    def evaluate_batch(
        self,
        assignments: Mapping[Hashable, int],
        width: int,
        root: int | None = None,
    ) -> int:
        """Evaluate ``width`` assignments simultaneously using bit-parallel
        integer arithmetic.

        ``assignments[label]`` is an integer whose bit *i* gives the value
        of the variable in assignment *i*.  Returns an integer whose bit
        *i* is the circuit output on assignment *i*.  Missing labels are
        treated as all-false.  This is the workhorse of the Monte Carlo
        and Kernel SHAP baselines.
        """
        if root is None:
            root = self.output_gate()
        mask = (1 << width) - 1
        values = [0] * (root + 1)
        kinds = self._kinds
        childs = self._children
        labels = self._labels
        for gate in range(root + 1):
            kind = kinds[gate]
            if kind == VAR:
                values[gate] = assignments.get(labels[gate], 0) & mask
            elif kind == TRUE:
                values[gate] = mask
            elif kind == FALSE:
                values[gate] = 0
            elif kind == AND:
                acc = mask
                for child in childs[gate]:
                    acc &= values[child]
                    if not acc:
                        break
                values[gate] = acc
            elif kind == OR:
                acc = 0
                for child in childs[gate]:
                    acc |= values[child]
                    if acc == mask:
                        break
                values[gate] = acc
            else:  # NOT
                values[gate] = ~values[childs[gate][0]] & mask
        return values[root]

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def condition(
        self, assignment: Mapping[Hashable, bool], root: int | None = None
    ) -> "Circuit":
        """Return a new circuit with the given variables fixed.

        This is the partial evaluation ``C[f -> 0/1]`` used by Algorithm 1
        and by the exogenous-variable elimination of the pipeline
        (``ELin`` is ``Lin`` with all exogenous facts set to 1).  Constant
        propagation happens on the fly, so the result is simplified.
        The result holds only the cone of ``root`` (default: the
        output), so ``condition({}, root=g)`` extracts gate ``g``'s
        sub-circuit in time proportional to that sub-circuit.
        """
        if root is None:
            root = self.output_gate()
        result = Circuit()
        mapping: dict[int, int] = {}
        for gate in self.cone(root):
            kind = self._kinds[gate]
            if kind == VAR:
                lbl = self._labels[gate]
                if lbl in assignment:
                    mapping[gate] = result.true() if assignment[lbl] else result.false()
                else:
                    mapping[gate] = result.var(lbl)
            elif kind == TRUE:
                mapping[gate] = result.true()
            elif kind == FALSE:
                mapping[gate] = result.false()
            elif kind == AND:
                mapping[gate] = result.and_(mapping[c] for c in self._children[gate])
            elif kind == OR:
                mapping[gate] = result.or_(mapping[c] for c in self._children[gate])
            else:  # NOT
                mapping[gate] = result.not_(mapping[self._children[gate][0]])
        result.output = mapping[root]
        return result

    def prune(self) -> "Circuit":
        """Return a copy containing only gates reachable from the output."""
        return self.condition({})

    def flatten(self) -> "Circuit":
        """Return an equivalent circuit with nested same-kind AND/OR
        gates inlined into their parents.

        ``or(or(a, b), c)`` becomes ``or(a, b, c)``.  Lineage circuits
        built by the evaluation engine chain binary ORs; flattening them
        recovers the flat DNF/CNF shape assumed by the paper's worked
        examples and shrinks the Tseytin CNF.
        """
        flat, _ = self._flatten(self.output_gate())
        # Flattening leaves the superseded nested gates behind; prune
        # them so downstream passes (e.g. Tseytin) never see them.
        return flat.prune()

    def conditioned_flatten(self) -> tuple["Circuit", int]:
        """``condition({}).flatten()`` and the size of ``condition({})``,
        in one walk of the output's cone when the cone is already
        constant-propagated.

        Returns ``(flat, size)``.  ``flat`` keeps the nested gates that
        flattening superseded; they are unreachable from its output, so
        every cone walker (signatures, Tseytin, payloads) skips them.
        ``size`` is ``len(self.condition({}))``.  A cone built through
        the simplifying constructors (any lineage, any ``condition``
        output) already is what ``condition({})`` would copy, so it is
        flattened directly and ``size`` is the cone's size; any other
        cone is conditioned first.
        """
        flat, size = self._flatten(self.output_gate())
        if size is None:
            conditioned = self.condition({})
            flat, _ = conditioned._flatten(conditioned.output_gate())
            size = len(conditioned)
        return flat, size

    def _flatten(self, root: int) -> tuple["Circuit", int | None]:
        """Flatten ``root``'s cone without pruning.

        Also returns the cone's size if ``condition({})`` would copy the
        cone gate for gate -- every gate distinct, no constant below the
        root, every AND/OR with two or more distinct children, no double
        negation -- and ``None`` otherwise.
        """
        kinds, childs, labels = self._kinds, self._children, self._labels
        cache, var_gates = self._cache, self._var_gates
        result = Circuit()
        result_kinds, result_children = result._kinds, result._children
        mapping: dict[int, int] = {}
        cone = self.cone(root)
        normal = True
        for gate in cone:
            kind = kinds[gate]
            if kind == VAR:
                label = labels[gate]
                normal = normal and var_gates.get(label) == gate
                mapping[gate] = result.var(label)
            elif kind == TRUE:
                normal = normal and gate == root
                mapping[gate] = result.true()
            elif kind == FALSE:
                normal = normal and gate == root
                mapping[gate] = result.false()
            elif kind == NOT:
                children = childs[gate]
                normal = (
                    normal and kinds[children[0]] != NOT
                    and cache.get((kind, children, None)) == gate
                )
                mapping[gate] = result.not_(mapping[children[0]])
            else:
                children = childs[gate]
                normal = (
                    normal and len(children) > 1
                    and cache.get((kind, children, None)) == gate
                    and len(set(children)) == len(children)
                )
                merged: list[int] = []
                for child in children:
                    mapped = mapping[child]
                    if result_kinds[mapped] == kind:
                        merged.extend(result_children[mapped])
                    else:
                        merged.append(mapped)
                if kind == AND:
                    mapping[gate] = result.and_(merged)
                else:
                    mapping[gate] = result.or_(merged)
        result.output = mapping[root]
        return result, (len(cone) if normal else None)

    def rename(self, mapping: Mapping[Hashable, Hashable]) -> "Circuit":
        """Return a copy with variable labels renamed through ``mapping``.

        Labels not present in ``mapping`` are kept unchanged.
        """
        result = Circuit()
        root = self.output_gate()
        gates: dict[int, int] = {}
        for gate in self.cone(root):
            kind = self._kinds[gate]
            if kind == VAR:
                lbl = self._labels[gate]
                gates[gate] = result.var(mapping.get(lbl, lbl))
            elif kind == TRUE:
                gates[gate] = result.true()
            elif kind == FALSE:
                gates[gate] = result.false()
            elif kind == AND:
                gates[gate] = result.and_(gates[c] for c in self._children[gate])
            elif kind == OR:
                gates[gate] = result.or_(gates[c] for c in self._children[gate])
            else:
                gates[gate] = result.not_(gates[self._children[gate][0]])
        result.output = gates[root]
        return result

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_payload(self, root: int | None = None) -> dict:
        """A JSON-serializable rendering of the gates reachable from
        ``root``, suitable for :meth:`from_payload`.

        Gate structure is preserved verbatim (no simplification on the
        way out or back in), so a deserialized d-DNNF is structurally
        identical to the original — determinism and decomposability
        survive the round trip.  Variable labels must themselves be
        JSON-serializable; the engine layer's persistent store only
        serializes *canonical* circuits, whose labels are small ints.
        """
        if root is None:
            root = self.output_gate()
        dense: dict[int, int] = {}
        kinds: list[int] = []
        children: list[list[int]] = []
        labels: list[Hashable | None] = []
        for gate in self.cone(root):
            dense[gate] = len(kinds)
            kinds.append(int(self._kinds[gate]))
            children.append([dense[c] for c in self._children[gate]])
            labels.append(self._labels[gate])
        return {
            "kinds": kinds,
            "children": children,
            "labels": labels,
            "output": dense[root],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "Circuit":
        """Rebuild a circuit written by :meth:`to_payload`.

        Raises :class:`CircuitError` on malformed payloads (missing
        keys, dangling child references, bad gate kinds) so callers can
        treat truncated/corrupt artifacts as cache misses.
        """
        try:
            kinds = payload["kinds"]
            children = payload["children"]
            labels = payload["labels"]
            output = payload["output"]
        except (KeyError, TypeError) as exc:
            raise CircuitError(f"malformed circuit payload: {exc}") from None
        if not (len(kinds) == len(children) == len(labels)):
            raise CircuitError("malformed circuit payload: ragged gate arrays")
        circuit = cls()
        valid_kinds = {int(k) for k in GateKind}
        for gate, (kind, kids, label) in enumerate(zip(kinds, children, labels)):
            if kind not in valid_kinds:
                raise CircuitError(f"malformed circuit payload: kind {kind!r}")
            kids = tuple(kids)
            if any(not isinstance(c, int) or not 0 <= c < gate for c in kids):
                raise CircuitError(
                    f"malformed circuit payload: gate {gate} has bad children"
                )
            circuit._kinds.append(kind)
            circuit._children.append(kids)
            circuit._labels.append(label)
            if kind == VAR:
                circuit._var_gates[label] = gate
            circuit._cache[(kind, kids, label)] = gate
        if not isinstance(output, int) or not 0 <= output < len(kinds):
            raise CircuitError("malformed circuit payload: bad output gate")
        circuit.output = output
        return circuit

    # ------------------------------------------------------------------
    # Introspection / debugging
    # ------------------------------------------------------------------

    def to_nested(self, gate: int | None = None) -> object:
        """Return a nested-tuple rendering of the circuit (for tests and
        debugging of small circuits only)."""
        if gate is None:
            gate = self.output_gate()
        kind = self._kinds[gate]
        if kind == VAR:
            return self._labels[gate]
        if kind == TRUE:
            return True
        if kind == FALSE:
            return False
        name = {AND: "and", OR: "or", NOT: "not"}[kind]
        return (name, *[self.to_nested(c) for c in self._children[gate]])

    def to_dot(self, root: int | None = None) -> str:
        """Render the circuit in Graphviz DOT format."""
        lines = ["digraph circuit {", "  rankdir=BT;"]
        symbols = {AND: "∧", OR: "∨", NOT: "¬", TRUE: "1", FALSE: "0"}
        for gate in self.cone(root):
            kind = self._kinds[gate]
            if kind == VAR:
                text = str(self._labels[gate])
                lines.append(f'  g{gate} [label="{text}" shape=box];')
            else:
                lines.append(f'  g{gate} [label="{symbols[kind]}"];')
            for child in self._children[gate]:
                lines.append(f"  g{child} -> g{gate};")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        out = self.output if self.output is not None else "?"
        return f"Circuit(gates={len(self)}, vars={len(self._var_gates)}, output={out})"


def circuit_from_nested(expr: object) -> Circuit:
    """Build a circuit from a nested-tuple expression.

    The inverse of :meth:`Circuit.to_nested`; handy in tests:
    ``("or", "a", ("and", "b", "c"))``.
    """
    circuit = Circuit()

    def build(node: object) -> int:
        if node is True:
            return circuit.true()
        if node is False:
            return circuit.false()
        if isinstance(node, tuple) and node and node[0] in ("and", "or", "not"):
            op, *args = node
            if op == "and":
                return circuit.and_([build(a) for a in args])
            if op == "or":
                return circuit.or_([build(a) for a in args])
            if len(args) != 1:
                raise CircuitError("'not' takes exactly one argument")
            return circuit.not_(build(args[0]))
        return circuit.var(node)

    circuit.output = build(expr)
    return circuit
