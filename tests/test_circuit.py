"""Unit tests for repro.circuits.circuit."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, CircuitError, GateKind, circuit_from_nested


def build_example():
    c = Circuit()
    a, b, d = c.var("a"), c.var("b"), c.var("d")
    c.output = c.or_((c.and_((a, b)), c.and_((c.not_(a), d))))
    return c


class TestConstruction:
    def test_var_dedup(self):
        c = Circuit()
        assert c.var("x") == c.var("x")

    def test_hash_consing_of_gates(self):
        c = Circuit()
        g1 = c.and_((c.var("x"), c.var("y")))
        g2 = c.and_((c.var("x"), c.var("y")))
        assert g1 == g2

    def test_and_simplifications(self):
        c = Circuit()
        x = c.var("x")
        assert c.and_(()) == c.true()
        assert c.and_((x,)) == x
        assert c.and_((x, c.true())) == x
        assert c.and_((x, c.false())) == c.false()
        assert c.and_((x, x)) == x

    def test_or_simplifications(self):
        c = Circuit()
        x = c.var("x")
        assert c.or_(()) == c.false()
        assert c.or_((x,)) == x
        assert c.or_((x, c.false())) == x
        assert c.or_((x, c.true())) == c.true()
        assert c.or_((x, x)) == x

    def test_not_simplifications(self):
        c = Circuit()
        x = c.var("x")
        assert c.not_(c.true()) == c.false()
        assert c.not_(c.false()) == c.true()
        assert c.not_(c.not_(x)) == x

    def test_literal(self):
        c = Circuit()
        pos = c.literal("x", True)
        neg = c.literal("x", False)
        assert c.kind(pos) == GateKind.VAR
        assert c.kind(neg) == GateKind.NOT
        assert c.children(neg) == (pos,)

    def test_label_requires_var_gate(self):
        c = Circuit()
        g = c.and_((c.var("x"), c.var("y")))
        with pytest.raises(CircuitError):
            c.label(g)

    def test_output_gate_unset(self):
        with pytest.raises(CircuitError):
            Circuit().output_gate()

    def test_gate_counts(self):
        c = build_example()
        counts = c.gate_counts()
        assert counts[GateKind.VAR] == 3
        assert counts[GateKind.AND] == 2
        assert counts[GateKind.OR] == 1
        assert counts[GateKind.NOT] == 1

    def test_kind_codes_match_kind(self):
        c = build_example()
        codes = c.kind_codes()
        assert len(codes) == len(c)
        for gate in c.gates():
            assert codes[gate] == c.kind(gate)

    def test_edge_count(self):
        c = build_example()
        assert c.edge_count == 2 + 2 + 2 + 1


class TestEvaluation:
    def test_truth_table(self):
        c = build_example()
        # (a & b) | (!a & d)
        assert c.evaluate({"a", "b"})
        assert c.evaluate({"d"})
        assert not c.evaluate({"a", "d"})
        assert not c.evaluate(set())
        assert c.evaluate({"b", "d"})

    def test_unknown_labels_ignored(self):
        c = build_example()
        assert c.evaluate({"d", "zzz"})

    def test_evaluate_batch_matches_scalar(self):
        c = build_example()
        labels = ["a", "b", "d"]
        width = 8
        assignments = {}
        for i, lbl in enumerate(labels):
            bits = 0
            for j in range(width):
                if j >> i & 1:
                    bits |= 1 << j
            assignments[lbl] = bits
        out = c.evaluate_batch(assignments, width)
        for j in range(width):
            chosen = {labels[i] for i in range(3) if j >> i & 1}
            assert bool(out >> j & 1) == c.evaluate(chosen)

    def test_evaluate_sub_gate(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        g = c.and_((a, b))
        c.output = c.or_((g, c.var("e")))
        assert c.evaluate({"a", "b"}, root=g)
        assert not c.evaluate({"a"}, root=g)


class TestTransforms:
    def test_condition_fixes_variables(self):
        c = build_example()
        conditioned = c.condition({"a": True})
        # becomes just b
        assert conditioned.evaluate({"b"})
        assert not conditioned.evaluate({"d"})
        assert conditioned.reachable_vars() == {"b"}

    def test_condition_to_constant(self):
        c = build_example()
        conditioned = c.condition({"a": False, "d": True})
        assert conditioned.kind(conditioned.output_gate()) == GateKind.TRUE

    def test_condition_empty_prunes(self):
        c = Circuit()
        x = c.var("x")
        c.var("unused")
        c.output = x
        pruned = c.prune()
        assert pruned.variables() == {"x"}

    def test_rename(self):
        c = build_example()
        renamed = c.rename({"a": "A"})
        assert renamed.evaluate({"A", "b"})
        assert "a" not in renamed.reachable_vars()

    def test_flatten_collapses_nested_ors(self):
        c = Circuit()
        x, y, z = c.var("x"), c.var("y"), c.var("z")
        c.output = c.or_((c.or_((x, y)), z))
        flat = c.flatten()
        root = flat.output_gate()
        assert flat.kind(root) == GateKind.OR
        assert len(flat.children(root)) == 3

    def test_flatten_preserves_semantics(self):
        c = build_example()
        flat = c.flatten()
        for mask in range(8):
            chosen = {lbl for i, lbl in enumerate("abd") if mask >> i & 1}
            assert c.evaluate(chosen) == flat.evaluate(chosen)

    def test_flatten_prunes_superseded_gates(self):
        c = Circuit()
        parts = [c.var(f"x{i}") for i in range(4)]
        g = parts[0]
        for p in parts[1:]:
            g = c.or_((g, p))
        c.output = g
        flat = c.flatten()
        # single OR over 4 vars: 5 gates total
        assert len(flat) == 5


class TestIntrospection:
    def test_reachable_vars(self):
        c = Circuit()
        a = c.var("a")
        c.var("b")  # unreachable
        c.output = a
        assert c.reachable_vars() == {"a"}

    def test_gate_var_sets(self):
        c = build_example()
        sets = c.gate_var_sets()
        root = c.output_gate()
        labels = {c.label(g) for g in sets[root]}
        assert labels == {"a", "b", "d"}

    def test_to_nested_roundtrip(self):
        expr = ("or", ("and", "x", "y"), ("not", "z"))
        c = circuit_from_nested(expr)
        assert c.to_nested() == expr

    def test_circuit_from_nested_constants(self):
        c = circuit_from_nested(("or", True, "x"))
        assert c.kind(c.output_gate()) == GateKind.TRUE

    def test_to_dot_contains_gates(self):
        dot = build_example().to_dot()
        assert "digraph" in dot and "∨" in dot and "∧" in dot

    def test_repr(self):
        assert "Circuit(" in repr(build_example())

    def test_bad_not_arity_in_nested(self):
        with pytest.raises(CircuitError):
            circuit_from_nested(("not", "x", "y"))


@st.composite
def nested_exprs(draw, depth=3):
    """Random nested circuit expressions over 4 variables."""
    if depth == 0:
        return draw(st.sampled_from(["a", "b", "c", "d"]))
    kind = draw(st.sampled_from(["var", "and", "or", "not"]))
    if kind == "var":
        return draw(st.sampled_from(["a", "b", "c", "d"]))
    if kind == "not":
        return ("not", draw(nested_exprs(depth=depth - 1)))
    arity = draw(st.integers(2, 3))
    return (kind, *[draw(nested_exprs(depth=depth - 1)) for _ in range(arity)])


class TestPropertyBased:
    @given(nested_exprs(), st.sets(st.sampled_from(["a", "b", "c", "d"])))
    @settings(max_examples=120, deadline=None)
    def test_flatten_equivalence(self, expr, assignment):
        c = circuit_from_nested(expr)
        assert c.evaluate(assignment) == c.flatten().evaluate(assignment)

    @given(
        nested_exprs(),
        st.dictionaries(st.sampled_from(["a", "b"]), st.booleans()),
        st.sets(st.sampled_from(["c", "d"])),
    )
    @settings(max_examples=120, deadline=None)
    def test_condition_equivalence(self, expr, fixed, rest):
        c = circuit_from_nested(expr)
        conditioned = c.condition(fixed)
        full = rest | {k for k, v in fixed.items() if v}
        assert conditioned.evaluate(rest) == c.evaluate(full)

    @given(nested_exprs())
    @settings(max_examples=60, deadline=None)
    def test_children_precede_parents(self, expr):
        c = circuit_from_nested(expr)
        for gate in c.gates():
            for child in c.children(gate):
                assert child < gate


# ----------------------------------------------------------------------
# Cone-local walkers vs. the whole-circuit flag sweep
# ----------------------------------------------------------------------

WALKER_LABELS = ["a", "b", "c", "d", "e"]


@st.composite
def shared_dags(draw):
    """A random DAG built through the constructor API, a root anywhere in
    it (not only the last gate) and a partial assignment.

    Gates pick children from every gate built so far, so sub-circuits are
    shared; constants and NOTs are drawn like any other gate.
    """
    c = Circuit()
    pool = [c.var(draw(st.sampled_from(WALKER_LABELS)))]
    for _ in range(draw(st.integers(1, 25))):
        op = draw(st.sampled_from(["var", "true", "false", "not", "and", "or"]))
        if op == "var":
            pool.append(c.var(draw(st.sampled_from(WALKER_LABELS))))
        elif op == "true":
            pool.append(c.true())
        elif op == "false":
            pool.append(c.false())
        elif op == "not":
            pool.append(c.not_(draw(st.sampled_from(pool))))
        else:
            kids = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
            pool.append(c.and_(kids) if op == "and" else c.or_(kids))
    c.output = len(c) - 1
    root = draw(st.sampled_from(pool))
    assignment = draw(
        st.dictionaries(st.sampled_from(WALKER_LABELS), st.booleans())
    )
    return c, root, assignment


def _flag_sweep_cone(circuit, root=None):
    """The sweep the walkers used before ``Circuit.cone``: flag every gate
    of the whole circuit, then filter ``range(root + 1)``."""
    if root is None:
        root = circuit.output_gate()
    flags = circuit.reachable(root)
    return [gate for gate in range(root + 1) if flags[gate]]


def _arrays(circuit):
    return circuit._kinds, circuit._children, circuit._labels, circuit.output


def _rooted_view(circuit, root):
    """A copy of ``circuit`` whose output is ``root`` (whole arrays kept),
    so whole-circuit walkers can be pointed at an inner gate."""
    view = Circuit()
    view._kinds = list(circuit._kinds)
    view._children = list(circuit._children)
    view._labels = list(circuit._labels)
    view.output = root
    return view


def _walker_outputs(circuit, root, assignment):
    return {
        "reachable_vars": circuit.reachable_vars(root),
        "gate_var_sets": circuit.gate_var_sets(root),
        "structural_signature": circuit.structural_signature(root),
        "condition": _arrays(circuit.condition(assignment, root=root)),
        "flatten": _arrays(_rooted_view(circuit, root).flatten()),
        "rename": _arrays(
            _rooted_view(circuit, root).rename({"a": "A", "c": "b"})
        ),
        "to_payload": circuit.to_payload(root),
        "to_dot": circuit.to_dot(root),
    }


class TestConeWalkers:
    @given(shared_dags())
    @settings(max_examples=150, deadline=None)
    def test_cone_matches_flag_sweep(self, case):
        c, root, _ = case
        assert c.cone(root) == _flag_sweep_cone(c, root)
        assert c.cone() == _flag_sweep_cone(c)

    @given(shared_dags())
    @settings(max_examples=150, deadline=None)
    def test_walkers_match_flag_sweep(self, case):
        c, root, assignment = case
        cone_local = _walker_outputs(c, root, assignment)
        with patch.object(Circuit, "cone", _flag_sweep_cone):
            swept = _walker_outputs(c, root, assignment)
        for walker, value in cone_local.items():
            assert value == swept[walker], walker

    @given(shared_dags())
    @settings(max_examples=150, deadline=None)
    def test_condition_root_matches_rooted_view(self, case):
        c, root, assignment = case
        extracted = c.condition(assignment, root=root)
        assert _arrays(extracted) == _arrays(
            _rooted_view(c, root).condition(assignment)
        )
        for mask in range(1 << len(WALKER_LABELS)):
            chosen = {l for i, l in enumerate(WALKER_LABELS) if mask >> i & 1}
            fixed = {l for l in chosen if l not in assignment}
            fixed |= {l for l, v in assignment.items() if v}
            assert extracted.evaluate(chosen) == c.evaluate(fixed, root=root)

    def test_cone_skips_lower_unrelated_gates(self):
        c = Circuit()
        for i in range(50):
            c.var(("pad", i))
        x, y = c.var("x"), c.var("y")
        not_y = c.not_(y)
        root = c.and_((x, not_y))
        assert c.cone(root) == [x, y, not_y, root]


@st.composite
def raw_dags(draw):
    """A random DAG that mixes the simplifying constructors with
    ``raw_and`` / ``raw_or``, whose children may repeat or be constants,
    and may carry gates no simplifying constructor would build."""
    c = Circuit()
    pool = [c.var(draw(st.sampled_from(WALKER_LABELS)))]
    for _ in range(draw(st.integers(1, 20))):
        op = draw(st.sampled_from(
            ["var", "true", "false", "not", "and", "or", "raw_and", "raw_or"]))
        if op == "var":
            pool.append(c.var(draw(st.sampled_from(WALKER_LABELS))))
        elif op == "true":
            pool.append(c.true())
        elif op == "false":
            pool.append(c.false())
        elif op == "not":
            pool.append(c.not_(draw(st.sampled_from(pool))))
        else:
            kids = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
            build = {"and": c.and_, "or": c.or_, "raw_and": c.raw_and,
                     "raw_or": c.raw_or}[op]
            pool.append(build(tuple(kids)))
    c.output = draw(st.sampled_from(pool))
    return c


class TestConditionedFlatten:
    @given(raw_dags())
    @settings(max_examples=200, deadline=None)
    def test_matches_condition_then_flatten(self, c):
        flat, size = c.conditioned_flatten()
        conditioned = c.condition({})
        assert size == len(conditioned)
        assert (flat.structural_signature()
                == conditioned.flatten().structural_signature())

    @given(shared_dags())
    @settings(max_examples=100, deadline=None)
    def test_constant_propagated_cone_is_walked_once(self, case):
        c, root, _ = case
        lineage = c.condition({}, root=root)
        flat, size = lineage._flatten(lineage.output_gate())
        assert size == len(lineage)
        assert (flat.structural_signature()
                == lineage.flatten().structural_signature())

    def test_duplicate_payload_gates_are_conditioned_first(self):
        # and(or(a, b), or(a, b)) with the OR stored twice: condition({})
        # merges the copies and collapses the AND onto them.
        dup = Circuit.from_payload({
            "kinds": [int(GateKind.VAR), int(GateKind.VAR), int(GateKind.OR),
                      int(GateKind.OR), int(GateKind.AND)],
            "children": [[], [], [0, 1], [0, 1], [2, 3]],
            "labels": ["a", "b", None, None, None],
            "output": 4,
        })
        flat, size = dup.conditioned_flatten()
        assert size == len(dup.condition({})) == 3
        assert flat.to_nested() == ("or", "a", "b")
