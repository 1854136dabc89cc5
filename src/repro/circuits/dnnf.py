"""Algorithms on deterministic and decomposable (d-D) circuits.

This module implements everything Section 4 of the paper needs from
knowledge-compiled circuits:

* validity checks for decomposability and determinism;
* model counting and weighted model counting (probability computation);
* the per-gate ``#SAT_k`` dynamic program of Lemma 4.5 — the engine of
  Algorithm 1;
* the Tseytin-variable elimination of Lemma 4.6;
* reading and writing the c2d ``.nnf`` file format.

All counting is done with exact Python integers; weighted counts accept
`fractions.Fraction` weights for exact probability computation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping

from .circuit import AND, FALSE, NOT, OR, TRUE, VAR, Circuit, CircuitError


class NotDecomposableError(CircuitError):
    """The circuit has an AND gate with overlapping children."""


class NotDeterministicError(CircuitError):
    """The circuit has an OR gate with jointly satisfiable children."""


# ----------------------------------------------------------------------
# Structural checks
# ----------------------------------------------------------------------

def check_decomposable(circuit: Circuit, root: int | None = None) -> bool:
    """Return True iff every reachable AND gate is decomposable."""
    if root is None:
        root = circuit.output_gate()
    var_sets = circuit.gate_var_sets(root)
    for gate, vset in sorted(var_sets.items()):  # REP002: sorted iteration
        if circuit.kind(gate) != AND:
            continue
        children = circuit.children(gate)
        total = 0
        for child in children:
            total += len(var_sets[child])
        if total != len(vset):
            return False
    return True


def assert_decomposable(circuit: Circuit, root: int | None = None) -> None:
    """Raise :class:`NotDecomposableError` if the circuit is not
    decomposable."""
    if not check_decomposable(circuit, root):
        raise NotDecomposableError("circuit has a non-decomposable AND gate")


def check_deterministic_exhaustive(
    circuit: Circuit, root: int | None = None, limit: int = 20
) -> bool:
    """Exhaustively verify determinism of every reachable OR gate.

    Exponential in the number of variables below each OR gate — intended
    for tests on small circuits.  Gates with more than ``limit`` variables
    raise a ``ValueError`` rather than silently taking forever.
    """
    if root is None:
        root = circuit.output_gate()
    var_sets = circuit.gate_var_sets(root)
    labels_of = {
        g: circuit.label(g)  # REP002: sorted iteration
        for g in sorted(var_sets) if circuit.kind(g) == VAR
    }
    for gate, vset in sorted(var_sets.items()):  # REP002: sorted iteration
        if circuit.kind(gate) != OR:
            continue
        children = circuit.children(gate)
        if len(children) < 2:
            continue
        vlist = [labels_of[v] for v in vset]
        if len(vlist) > limit:
            raise ValueError(f"OR gate {gate} has {len(vlist)} vars > limit {limit}")
        for mask in range(1 << len(vlist)):
            assignment = {vlist[i] for i in range(len(vlist)) if mask >> i & 1}
            satisfied = sum(
                1 for child in children if circuit.evaluate(assignment, root=child)
            )
            if satisfied > 1:
                return False
    return True


def check_decision_form(circuit: Circuit, root: int | None = None) -> bool:
    """Check the *decision* syntactic form that guarantees determinism.

    Every reachable OR gate must either have < 2 children, or have exactly
    two children of the shapes ``(x ∧ ...)`` and ``(¬x ∧ ...)`` (in either
    order) for a common decision variable ``x``.  The knowledge compiler's
    output satisfies this by construction; c2d-style ``.nnf`` files record
    the decision variable explicitly.
    """
    if root is None:
        root = circuit.output_gate()
    flags = circuit.reachable(root)
    for gate in range(root + 1):
        if not flags[gate] or circuit.kind(gate) != OR:
            continue
        children = circuit.children(gate)
        if len(children) < 2:
            continue
        if len(children) != 2:
            return False
        if _decision_var(circuit, children[0], children[1]) is None:
            return False
    return True


def _decision_var(circuit: Circuit, left: int, right: int) -> int | None:
    """Return the VAR gate on which ``left``/``right`` branch, if any."""
    pos = _top_literals(circuit, left, positive=True)
    neg = _top_literals(circuit, right, positive=False)
    common = pos & neg
    if common:
        return next(iter(common))
    pos = _top_literals(circuit, right, positive=True)
    neg = _top_literals(circuit, left, positive=False)
    common = pos & neg
    if common:
        return next(iter(common))
    return None


def _top_literals(circuit: Circuit, gate: int, positive: bool) -> set[int]:
    """VAR gates appearing as direct (possibly negated) conjuncts of
    ``gate`` with the requested polarity."""
    result: set[int] = set()

    def visit(g: int) -> None:
        kind = circuit.kind(g)
        if kind == VAR and positive:
            result.add(g)
        elif kind == NOT and not positive:
            child = circuit.children(g)[0]
            if circuit.kind(child) == VAR:
                result.add(child)
        elif kind == AND:
            for child in circuit.children(g):
                visit(child)

    visit(gate)
    return result


# ----------------------------------------------------------------------
# Counting
# ----------------------------------------------------------------------

def count_models_by_size(
    circuit: Circuit, root: int | None = None
) -> tuple[list[int], int]:
    """Compute ``[#SAT_0(C), ..., #SAT_v(C)]`` over ``Vars(C)``.

    This is the ``ComputeAll#SATk`` subroutine of Algorithm 1 (the
    bottom-up induction of Lemma 4.5), generalized to unbounded fan-in:

    * variable gate: ``[0, 1]``;
    * NOT gate: ``C(|V|, l) - alpha_l`` (same variable set as the child);
    * deterministic OR: sum over children of the child counts convolved
      with binomials over the *gap* variables (``Vars(g) \\ Vars(c)``);
    * decomposable AND: convolution of the children counts.

    The traversal is lowered to a
    :class:`~repro.core.numerics.tape.GateTape` and runs as the tape's
    forward pass on the exact big-int kernel.

    Returns ``(counts, num_vars)`` where ``counts[l] = #SAT_l`` and
    ``num_vars = |Vars(C)|``.  Determinism/decomposability are assumed
    (checked elsewhere); results are meaningless otherwise.
    """
    # Imported lazily: repro.core depends on repro.circuits at import
    # time, so the reverse edge must resolve at call time only.
    from ..core.numerics import NonDecomposableTape, compile_tape

    tape = compile_tape(circuit, root)
    try:
        return tape.root_counts()
    except NonDecomposableTape as exc:
        raise NotDecomposableError(str(exc)) from None


def complete_counts(counts: list[int], extra: int) -> list[int]:
    """Extend ``#SAT_k`` counts to ``extra`` additional free variables.

    Equivalent to conjoining the circuit with ``(x ∨ ¬x)`` for each of
    the ``extra`` variables (line 1 of Algorithm 1) and recounting:
    ``out[k] = sum_i counts[i] * C(extra, k - i)`` — realized as the
    kernel's binomial completion.
    """
    from ..core.numerics.base import KERNEL

    return KERNEL.complete(counts, extra)


def model_count(circuit: Circuit, root: int | None = None) -> int:
    """Count satisfying assignments over ``Vars(C)``."""
    counts, _ = count_models_by_size(circuit, root)
    return sum(counts)


def weighted_model_count(
    circuit: Circuit,
    weights: Mapping[Hashable, tuple[Fraction | float, Fraction | float]],
    root: int | None = None,
):
    """Weighted model count of a d-D circuit.

    ``weights[label] = (w_true, w_false)``.  For probability computation
    use ``(p, 1 - p)``; the result is then ``Pr(C)`` under independent
    variables — the core of probabilistic query evaluation.

    Variables of the circuit missing from ``weights`` get ``(1, 1)``
    (i.e. they are counted as free).  OR-gate gaps are corrected with the
    product of ``w_true + w_false`` over the gap variables, so the
    circuit does not need to be smooth.
    """
    if root is None:
        root = circuit.output_gate()
    var_sets = circuit.gate_var_sets(root)

    def w(var_gate: int) -> tuple:
        return weights.get(circuit.label(var_gate), (1, 1))

    # Z(g) = prod over Vars(g) of (w_true + w_false): the weight of the
    # full assignment space below g, used for gaps and negation.
    z_cache: dict[frozenset[int], object] = {}

    def z_of(vset: frozenset[int]):
        val = z_cache.get(vset)
        if val is None:
            val = 1
            for var_gate in vset:
                wt, wf = w(var_gate)
                val = val * (wt + wf)
            z_cache[vset] = val
        return val

    values: dict[int, object] = {}
    for gate in sorted(var_sets):
        kind = circuit.kind(gate)
        if kind == VAR:
            values[gate] = w(gate)[0]
        elif kind == TRUE:
            values[gate] = 1
        elif kind == FALSE:
            values[gate] = 0
        elif kind == NOT:
            child = circuit.children(gate)[0]
            values[gate] = z_of(var_sets[gate]) - values[child]
        elif kind == OR:
            acc = 0
            gset = var_sets[gate]
            for child in circuit.children(gate):
                gap = gset - var_sets[child]
                term = values[child]
                if gap:
                    term = term * z_of(gap)
                acc = acc + term
            values[gate] = acc
        else:  # AND
            acc = 1
            for child in circuit.children(gate):
                acc = acc * values[child]
            values[gate] = acc
    return values[root]


def probability(
    circuit: Circuit,
    probs: Mapping[Hashable, Fraction | float],
    root: int | None = None,
):
    """Probability that the circuit is true under independent variables.

    Convenience wrapper around :func:`weighted_model_count` with weights
    ``(p, 1 - p)``.  Variables absent from ``probs`` default to
    probability 1/2 only if absent from the mapping *and* present in the
    circuit — callers should normally supply every variable.
    """
    weights = {}
    for label, p in probs.items():
        weights[label] = (p, 1 - p)
    return weighted_model_count(circuit, weights, root)


# ----------------------------------------------------------------------
# Lemma 4.6: eliminating Tseytin variables
# ----------------------------------------------------------------------

def eliminate_auxiliary(
    circuit: Circuit,
    keep_labels: Iterable[Hashable],
    root: int | None = None,
) -> Circuit:
    """Project a d-DNNF over Tseytin CNF variables back onto the circuit
    variables (Lemma 4.6).

    ``keep_labels`` are the original (endogenous-fact) variables; every
    other variable of the circuit is auxiliary.  The procedure follows
    the lemma: (1) remove unsatisfiable gates, (2) drop gates no longer
    connected to the output, and (3) replace every auxiliary literal with
    a constant-1 gate.  Correctness relies on the Tseytin property that
    each model of the original circuit extends to exactly one model of
    the CNF, so determinism is preserved.

    The input must be in negation normal form (NOT only above variables),
    which holds for both our compiler's output and c2d-style files.
    """
    if root is None:
        root = circuit.output_gate()
    keep = set(keep_labels)
    flags = circuit.reachable(root)
    kinds = circuit.kind_codes()

    # Bottom-up satisfiability of each gate.  In NNF, literals are always
    # satisfiable, so only the constants and the gate structure matter.
    sat = [False] * (root + 1)
    for gate in range(root + 1):
        if not flags[gate]:
            continue
        kind = kinds[gate]
        if kind == VAR or kind == TRUE:
            sat[gate] = True
        elif kind == FALSE:
            sat[gate] = False
        elif kind == NOT:
            child = circuit.children(gate)[0]
            child_kind = kinds[child]
            if child_kind == VAR:
                sat[gate] = True
            elif child_kind == TRUE:
                sat[gate] = False
            elif child_kind == FALSE:
                sat[gate] = True
            else:
                raise CircuitError(
                    "eliminate_auxiliary requires NNF (negation above variables only)"
                )
        elif kind == AND:
            sat[gate] = all(sat[c] for c in circuit.children(gate))
        else:  # OR
            sat[gate] = any(sat[c] for c in circuit.children(gate))

    result = Circuit()
    new_gate: dict[int, int] = {}
    for gate in range(root + 1):
        if not flags[gate]:
            continue
        kind = kinds[gate]
        if kind == VAR:
            lbl = circuit.label(gate)
            new_gate[gate] = result.var(lbl) if lbl in keep else result.true()
        elif kind == TRUE:
            new_gate[gate] = result.true()
        elif kind == FALSE:
            new_gate[gate] = result.false()
        elif kind == NOT:
            child = circuit.children(gate)[0]
            if kinds[child] == VAR and circuit.label(child) not in keep:
                new_gate[gate] = result.true()
            else:
                new_gate[gate] = result.not_(new_gate[child])
        elif kind == AND:
            if not sat[gate]:
                new_gate[gate] = result.false()
            else:
                new_gate[gate] = result.and_(
                    new_gate[c] for c in circuit.children(gate)
                )
        else:  # OR: drop unsatisfiable children to preserve determinism
            kids = [new_gate[c] for c in circuit.children(gate) if sat[c]]
            new_gate[gate] = result.or_(kids)
    result.output = new_gate[root]
    return result


# ----------------------------------------------------------------------
# Model enumeration (testing helper)
# ----------------------------------------------------------------------

def enumerate_models(
    circuit: Circuit,
    over: Iterable[Hashable] | None = None,
    root: int | None = None,
    limit: int = 24,
) -> Iterator[frozenset]:
    """Yield all satisfying assignments over ``over`` (default: the
    circuit's reachable variables).  Exponential; for tests only."""
    if root is None:
        root = circuit.output_gate()
    labels = sorted(
        circuit.reachable_vars(root) if over is None else set(over), key=repr
    )
    if len(labels) > limit:
        raise ValueError(f"{len(labels)} variables exceeds enumeration limit {limit}")
    for mask in range(1 << len(labels)):
        chosen = frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1)
        if circuit.evaluate(chosen, root=root):
            yield chosen


# ----------------------------------------------------------------------
# c2d .nnf format
# ----------------------------------------------------------------------

def to_nnf_text(circuit: Circuit, root: int | None = None) -> tuple[str, dict[int, Hashable]]:
    """Serialize a circuit in NNF to the c2d ``.nnf`` text format.

    Returns ``(text, index_to_label)`` where the mapping explains which
    DIMACS-style variable index corresponds to which circuit label.
    """
    if root is None:
        root = circuit.output_gate()
    flags = circuit.reachable(root)
    labels = sorted(
        {circuit.label(g) for g in range(root + 1) if flags[g] and circuit.kind(g) == VAR},
        key=repr,
    )
    index = {lbl: i + 1 for i, lbl in enumerate(labels)}
    lines: list[str] = []
    node_id: dict[int, int] = {}
    edges = 0
    for gate in range(root + 1):
        if not flags[gate]:
            continue
        kind = circuit.kind(gate)
        if kind == VAR:
            lines.append(f"L {index[circuit.label(gate)]}")
        elif kind == NOT:
            child = circuit.children(gate)[0]
            if circuit.kind(child) != VAR:
                raise CircuitError(".nnf requires negation above variables only")
            lines.append(f"L {-index[circuit.label(child)]}")
        elif kind == TRUE:
            lines.append("A 0")
        elif kind == FALSE:
            lines.append("O 0 0")
        elif kind == AND:
            kids = [node_id[c] for c in circuit.children(gate)]
            edges += len(kids)
            lines.append("A " + " ".join(str(x) for x in [len(kids)] + kids))
        else:  # OR
            kids = [node_id[c] for c in circuit.children(gate)]
            edges += len(kids)
            lines.append("O 0 " + " ".join(str(x) for x in [len(kids)] + kids))
        node_id[gate] = len(lines) - 1
    header = f"nnf {len(lines)} {edges} {len(labels)}"
    return header + "\n" + "\n".join(lines) + "\n", {
        i: l  # REP002: index-sorted so the label map is order-stable
        for l, i in sorted(index.items(), key=lambda entry: entry[1])
    }


def from_nnf_text(text: str, labels: Mapping[int, Hashable] | None = None) -> Circuit:
    """Parse a c2d ``.nnf`` file into a :class:`Circuit`.

    ``labels`` optionally maps DIMACS variable indices to labels; indices
    without a label become the label ``("v", index)``.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("c")]
    if not lines or not lines[0].startswith("nnf"):
        raise CircuitError("missing 'nnf' header")
    circuit = Circuit()
    nodes: list[int] = []

    def label_of(idx: int) -> Hashable:
        if labels is not None and idx in labels:
            return labels[idx]
        return ("v", idx)

    for line in lines[1:]:
        parts = line.split()
        tag = parts[0]
        if tag == "L":
            lit = int(parts[1])
            gate = circuit.literal(label_of(abs(lit)), lit > 0)
        elif tag == "A":
            count = int(parts[1])
            kids = tuple(nodes[int(p)] for p in parts[2 : 2 + count])
            gate = circuit.true() if count == 0 else circuit.raw_and(kids)
        elif tag == "O":
            count = int(parts[2])
            kids = tuple(nodes[int(p)] for p in parts[3 : 3 + count])
            gate = circuit.false() if count == 0 else circuit.raw_or(kids)
        else:
            raise CircuitError(f"unknown .nnf node tag {tag!r}")
        nodes.append(gate)
    circuit.output = nodes[-1]
    return circuit
