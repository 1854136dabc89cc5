"""Tseytin transformation of Boolean circuits into equisatisfiable CNF.

This is the bridge between the provenance circuit produced by the
relational engine and the knowledge compiler, exactly as in Figure 3 of
the paper.  The resulting :class:`~repro.circuits.cnf.Cnf` has one
labelled variable per circuit variable plus one *auxiliary* variable per
internal gate, and satisfies the three properties used by Lemma 4.6:

1. its variables are the circuit variables plus the auxiliary set ``Z``;
2. every satisfying assignment of the circuit extends to exactly one
   satisfying assignment of the CNF;
3. non-satisfying assignments of the circuit extend to none.
"""

from __future__ import annotations

from .circuit import AND, FALSE, NOT, OR, TRUE, VAR, Circuit, CircuitError
from .cnf import Cnf


def tseytin_transform(circuit: Circuit, root: int | None = None) -> Cnf:
    """Transform ``circuit`` into an equisatisfiable CNF.

    NOT gates do not allocate auxiliary variables: each gate is
    represented by a signed literal and negation just flips the sign, so
    the encoding matches the compact form used in the paper's Example 5.3
    (clauses like ``(¬z2 ∨ a2)``).

    Constant gates are handled by constant propagation: the circuit is
    conditioned on the empty assignment first, which removes all TRUE and
    FALSE gates except possibly at the root.  A constant root yields the
    trivially true CNF (no clauses) or the trivially false one (a single
    empty clause is not representable, so we emit two contradictory unit
    clauses over a fresh auxiliary variable).
    """
    if root is None:
        root = circuit.output_gate()
    # Constant-propagate, then flatten nested same-kind gates: lineage
    # circuits chain binary ORs, and flattening recovers the compact
    # n-ary encoding of the paper's Example 5.3 (fewer auxiliary
    # variables, fewer clauses).
    simplified = circuit.condition({}, root=root).flatten()
    out = simplified.output_gate()

    cnf = Cnf(0)
    kind = simplified.kind(out)
    if kind == TRUE:
        return cnf
    if kind == FALSE:
        z = cnf.new_var()
        cnf.add_clause((z,))
        cnf.add_clause((-z,))
        return cnf

    # Literal (signed CNF variable) representing each reachable gate.
    cone = simplified.cone(out)
    kinds = simplified.kind_codes()
    lit: dict[int, int] = {}
    for gate in cone:
        if kinds[gate] == VAR:
            lit[gate] = cnf.new_var(simplified.label(gate))
    for gate in cone:
        gkind = kinds[gate]
        if gkind == VAR:
            continue
        if gkind == NOT:
            child = simplified.children(gate)[0]
            lit[gate] = -lit[child]
        elif gkind == AND:
            children = simplified.children(gate)
            if any(c not in lit for c in children):
                continue  # unreachable gate referencing unreachable child
            z = cnf.new_var()
            lit[gate] = z
            long_clause = [z]
            for child in children:
                cnf.add_clause((-z, lit[child]))
                long_clause.append(-lit[child])
            cnf.add_clause(tuple(long_clause))
        elif gkind == OR:
            children = simplified.children(gate)
            if any(c not in lit for c in children):
                continue
            z = cnf.new_var()
            lit[gate] = z
            long_clause = [-z]
            for child in children:
                cnf.add_clause((z, -lit[child]))
                long_clause.append(lit[child])
            cnf.add_clause(tuple(long_clause))
        else:
            raise CircuitError(f"unexpected constant gate {gate} after simplification")
    cnf.add_clause((lit[out],))
    return cnf
