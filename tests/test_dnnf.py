"""Tests for d-DNNF algorithms: counting, WMC, Lemma 4.6,
and the .nnf format."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Circuit,
    check_decision_form,
    check_decomposable,
    check_deterministic_exhaustive,
    circuit_from_nested,
    complete_counts,
    count_models_by_size,
    eliminate_auxiliary,
    enumerate_models,
    from_nnf_text,
    model_count,
    probability,
    to_nnf_text,
    tseytin_transform,
    weighted_model_count,
)
from repro.compiler import compile_cnf

from .test_circuit import nested_exprs

VARS = ["a", "b", "c", "d"]


def compiled(expr):
    """Compile a nested expression into a clean d-DNNF over its vars."""
    circuit = circuit_from_nested(expr)
    cnf = tseytin_transform(circuit)
    result = compile_cnf(cnf)
    return circuit, eliminate_auxiliary(result.circuit, set(cnf.labels.values()))


def brute_counts(circuit, over):
    counts = [0] * (len(over) + 1)
    for model in enumerate_models(circuit, over=over):
        counts[len(model)] += 1
    return counts


def example_ddnnf():
    """A hand-built decision-DNNF: (x & y) | (!x & z)."""
    c = Circuit()
    x, y, z = c.var("x"), c.var("y"), c.var("z")
    c.output = c.or_((c.and_((x, y)), c.and_((c.not_(x), z))))
    return c


class TestChecks:
    def test_decomposable_positive(self):
        assert check_decomposable(example_ddnnf())

    def test_decomposable_negative(self):
        c = Circuit()
        x, y = c.var("x"), c.var("y")
        c.output = c.and_((c.or_((x, y)), c.or_((x, c.not_(y)))))
        assert not check_decomposable(c)

    def test_deterministic_exhaustive_positive(self):
        assert check_deterministic_exhaustive(example_ddnnf())

    def test_deterministic_exhaustive_negative(self):
        c = Circuit()
        c.output = c.raw_or((c.var("x"), c.var("y")))
        assert not check_deterministic_exhaustive(c)

    def test_deterministic_limit(self):
        c = Circuit()
        c.output = c.raw_or(
            (
                c.and_([c.var(f"v{i}") for i in range(12)]),
                c.and_([c.not_(c.var(f"v{i}")) for i in range(12)]),
            )
        )
        with pytest.raises(ValueError):
            check_deterministic_exhaustive(c, limit=5)

    def test_decision_form(self):
        assert check_decision_form(example_ddnnf())
        c = Circuit()
        c.output = c.raw_or((c.var("x"), c.var("y")))
        assert not check_decision_form(c)


class TestCounting:
    def test_example_counts(self):
        c = example_ddnnf()
        counts, nvars = count_models_by_size(c)
        assert nvars == 3
        # Models: {x,y}, {x,y,z}, {z}, {y,z}
        assert counts == [0, 1, 2, 1]

    def test_constant_true_gate(self):
        c = Circuit()
        c.output = c.true()
        counts, nvars = count_models_by_size(c)
        assert (counts, nvars) == ([1], 0)

    def test_complete_counts_binomial(self):
        # TRUE over 0 vars completed to 3 free vars: C(3, k)
        assert complete_counts([1], 3) == [1, 3, 3, 1]

    def test_complete_counts_zero_extra(self):
        assert complete_counts([0, 2, 1], 0) == [0, 2, 1]

    def test_complete_counts_negative(self):
        with pytest.raises(ValueError):
            complete_counts([1], -1)

    def test_complete_counts_matches_literal_completion(self):
        """Binomial completion == conjoining (v | !v) gates (Alg. 1
        line 1 done literally)."""
        c = example_ddnnf()
        counts, _ = count_models_by_size(c)
        extra = 2
        literal = Circuit()
        x, y, z = literal.var("x"), literal.var("y"), literal.var("z")
        base = literal.or_(
            (literal.and_((x, y)), literal.and_((literal.not_(x), z)))
        )
        pads = []
        for name in ("p1", "p2"):
            v = literal.var(name)
            pads.append(literal.raw_or((v, literal.not_(v))))
        literal.output = literal.raw_and((base, *pads))
        literal_counts, _ = count_models_by_size(literal)
        assert complete_counts(counts, extra) == literal_counts

    def test_model_count(self):
        assert model_count(example_ddnnf()) == 4

    @given(nested_exprs())
    @settings(max_examples=60, deadline=None)
    def test_counts_match_brute_force(self, expr):
        source, ddnnf = compiled(expr)
        over = sorted(ddnnf.reachable_vars())
        root_kind = ddnnf.kind(ddnnf.output_gate())
        if root_kind.name in ("TRUE", "FALSE"):
            return
        counts, nvars = count_models_by_size(ddnnf)
        assert nvars == len(over)
        assert counts == brute_counts(source, over)


class TestWeightedCounting:
    def test_uniform_weights_give_model_count(self):
        c = example_ddnnf()
        weights = {v: (1, 1) for v in "xyz"}
        assert weighted_model_count(c, weights) == 4

    def test_probability_example(self):
        c = example_ddnnf()
        p = {v: Fraction(1, 2) for v in "xyz"}
        assert probability(c, p) == Fraction(4, 8)

    def test_biased_probability(self):
        c = example_ddnnf()
        p = {"x": Fraction(1), "y": Fraction(1, 3), "z": Fraction(1, 7)}
        # With x certain: answer = P(y) = 1/3.
        assert probability(c, p) == Fraction(1, 3)

    @given(
        nested_exprs(),
        st.tuples(*[st.integers(0, 4) for _ in range(4)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_wmc_matches_enumeration(self, expr, numerators):
        source, ddnnf = compiled(expr)
        over = sorted(ddnnf.reachable_vars())
        if not over:
            return
        probs = {
            v: Fraction(numerators[i % 4], 4) for i, v in enumerate(over)
        }
        expected = Fraction(0)
        for mask in range(1 << len(over)):
            chosen = {over[i] for i in range(len(over)) if mask >> i & 1}
            if source.evaluate(chosen):
                weight = Fraction(1)
                for v in over:
                    weight *= probs[v] if v in chosen else 1 - probs[v]
                expected += weight
        assert probability(ddnnf, probs) == expected


class TestEliminateAuxiliary:
    @given(nested_exprs(), st.sets(st.sampled_from(VARS)))
    @settings(max_examples=80, deadline=None)
    def test_projection_correct(self, expr, assignment):
        circuit = circuit_from_nested(expr)
        cnf = tseytin_transform(circuit)
        compiled_result = compile_cnf(cnf)
        cleaned = eliminate_auxiliary(
            compiled_result.circuit, set(cnf.labels.values())
        )
        assert cleaned.evaluate(assignment) == circuit.evaluate(assignment)

    @given(nested_exprs())
    @settings(max_examples=60, deadline=None)
    def test_result_stays_deterministic_and_decomposable(self, expr):
        circuit = circuit_from_nested(expr)
        cnf = tseytin_transform(circuit)
        cleaned = eliminate_auxiliary(
            compile_cnf(cnf).circuit, set(cnf.labels.values())
        )
        assert check_decomposable(cleaned)
        if len(cleaned.reachable_vars()) <= 8:
            assert check_deterministic_exhaustive(cleaned, limit=8)


class TestNnfFormat:
    def test_roundtrip_counts(self):
        _, ddnnf = compiled(("or", ("and", "a", "b"), ("and", "c", "d")))
        text, labels = to_nnf_text(ddnnf)
        back = from_nnf_text(text, labels)
        assert model_count(back) == model_count(ddnnf)

    def test_header(self):
        _, ddnnf = compiled(("and", "a", "b"))
        text, _ = to_nnf_text(ddnnf)
        assert text.startswith("nnf ")

    def test_parse_constants(self):
        text = "nnf 2 0 0\nA 0\nO 0 0\n"
        circuit = from_nnf_text(text)
        assert circuit.kind(circuit.output_gate()).name == "FALSE"

    def test_default_labels(self):
        text = "nnf 1 0 1\nL 1\n"
        circuit = from_nnf_text(text)
        assert circuit.reachable_vars() == {("v", 1)}

    def test_bad_header(self):
        with pytest.raises(Exception):
            from_nnf_text("dnf 1 0 1\nL 1\n")


class TestEnumerateModels:
    def test_limit(self):
        c = Circuit()
        c.output = c.and_([c.var(f"x{i}") for i in range(30)])
        with pytest.raises(ValueError):
            list(enumerate_models(c))

    def test_known_models(self):
        c = example_ddnnf()
        models = set(enumerate_models(c))
        assert frozenset({"z"}) in models
        assert len(models) == 4
