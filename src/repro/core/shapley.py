"""Algorithm 1: exact Shapley values from a d-DNNF circuit.

Given a deterministic and decomposable circuit representing the
endogenous lineage ``ELin(q, Dx, Dn)``, the Shapley value of an
endogenous fact ``f`` is (Equation 3 of the paper):

    Shapley(f) = sum_k  k! (n-k-1)! / n!  *  (#SAT_k(C[f->1]) - #SAT_k(C[f->0]))

with ``n = |Dn|`` and counts completed over all endogenous facts.

Two computation modes are provided:

* ``"conditioning"`` — the paper's literal Algorithm 1: condition the
  circuit on ``f -> 1`` and ``f -> 0`` and recount, once per fact;
  ``O(|C| * n^2)`` per fact.
* ``"derivative"`` (default) — one forward pass computing the
  size-generating polynomial of every gate plus one backward
  (circuit-derivative) pass yields the conditioned-count *differences*
  of all facts simultaneously, in the style of Arenas et al.'s
  SHAP-score algorithm.  The passes are *smoothing-free*: instead of
  materializing ``(x v -x)`` padding gates, per-child OR gaps carry
  binomial completion factors through both sweeps (free-variable
  contributions cancel in the difference), and the traversal runs on a
  compiled :class:`~repro.core.numerics.tape.GateTape` so repeated
  circuit shapes pay no gate-level walk at all.

Both modes agree exactly (asserted by the parity suite).  The
derivative sweeps run on the machine-width tier
(:mod:`repro.core.numerics.fixed`) whenever NumPy is importable and
the shape's plan accepts it, and otherwise interpreted on the
reference kernel; all arithmetic is exact (`int` counts, `Fraction`
values) either way.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from ..circuits.circuit import FALSE, TRUE, Circuit, CircuitError
from ..circuits.dnnf import count_models_by_size
from .numerics import GateTape, compile_tape
from .numerics.base import Kernel, get_kernel, shapley_coefficients
from .numerics.fixed import FastpathStats, fastpath_diffs

__all__ = [
    "ShapleyTimeout",
    "shapley_coefficients",
    "shapley_from_counts",
    "conditioned_counts",
    "shapley_of_fact",
    "shapley_all_facts",
    "shapley_all_facts_batched",
    "efficiency_gap",
]

#: The all-facts strategies accepted by :func:`shapley_all_facts`.
MODES = ("derivative", "conditioning")


class ShapleyTimeout(RuntimeError):
    """Raised when an exact Shapley computation exceeds its deadline."""


def _check_time(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise ShapleyTimeout("exact Shapley computation timed out")


def _resolve_kernel(kernel) -> Kernel:
    if isinstance(kernel, Kernel):
        return kernel
    return get_kernel(kernel)


def shapley_from_counts(
    counts_pos: Sequence[int],
    counts_neg: Sequence[int],
    n: int,
    kernel=None,
) -> Fraction:
    """Combine conditioned counts into a Shapley value (Equation 3).

    ``counts_pos[k] = #SAT_k(C[f->1])`` and ``counts_neg[k] =
    #SAT_k(C[f->0])``, both completed over the ``n - 1`` other
    endogenous facts.  Delegates to the kernel's single Equation-3
    implementation (shared with the derivative passes), which
    zero-pads vectors shorter than ``n`` and ignores entries at
    ``k >= n``.
    """
    return _resolve_kernel(kernel).equation3(counts_pos, counts_neg, n)


def conditioned_counts(
    circuit: Circuit, fact: Hashable, kernel=None
) -> tuple[list[int], int, list[int], int]:
    """``#SAT_k`` of ``C[f->1]`` and ``C[f->0]`` over their own variable
    sets.  Returns ``(counts1, vars1, counts0, vars0)``."""
    positive = circuit.condition({fact: True})
    negative = circuit.condition({fact: False})
    counts1, vars1 = _counts_or_constant(positive, kernel)
    counts0, vars0 = _counts_or_constant(negative, kernel)
    return counts1, vars1, counts0, vars0


def _counts_or_constant(circuit: Circuit, kernel=None) -> tuple[list[int], int]:
    root = circuit.output_gate()
    kind = circuit.kind(root)
    if kind == TRUE:
        return [1], 0
    if kind == FALSE:
        return [0], 0
    return count_models_by_size(circuit, kernel=kernel)


def _conditioned_shapley(
    circuit: Circuit, n: int, fact: Hashable, kernel: Kernel
) -> Fraction:
    """One fact's value by conditioning, with all loop-invariant work
    (reachability, player-set normalization) hoisted to the caller."""
    counts1, vars1, counts0, vars0 = conditioned_counts(circuit, fact, kernel)
    # Complete each count vector over the remaining n - 1 endogenous
    # facts (Algorithm 1 line 1, realized as a binomial convolution).
    full1 = kernel.complete(counts1, (n - 1) - vars1)
    full0 = kernel.complete(counts0, (n - 1) - vars0)
    return kernel.equation3(full1, full0, n)


def shapley_of_fact(
    circuit: Circuit,
    endogenous_facts: Iterable[Hashable],
    fact: Hashable,
    deadline: float | None = None,
    kernel=None,
) -> Fraction:
    """Shapley value of one endogenous fact (conditioning mode).

    ``circuit`` represents ``ELin(q, Dx, Dn)``; its variables must be a
    subset of ``endogenous_facts``.  Facts absent from the circuit have
    Shapley value 0 (they never change the query result).
    """
    endo = list(endogenous_facts)
    n = len(endo)
    if fact not in set(endo):
        raise ValueError(f"{fact!r} is not an endogenous fact")
    _check_time(deadline)
    if fact not in circuit.reachable_vars():
        return Fraction(0)
    return _conditioned_shapley(circuit, n, fact, _resolve_kernel(kernel))


def shapley_all_facts(
    circuit: Circuit,
    endogenous_facts: Iterable[Hashable],
    method: str = "derivative",
    deadline: float | None = None,
    kernel=None,
    tape: GateTape | None = None,
    fastpath_stats: FastpathStats | None = None,
) -> dict[Hashable, Fraction]:
    """Shapley values of every endogenous fact.

    ``method`` is ``"derivative"`` (one shared smoothing-free pass,
    default) or ``"conditioning"`` (the paper's per-fact loop).
    ``kernel`` is the kernel of the interpreted passes and of Equation
    3 (instance, name, or ``None`` for the reference).  The derivative
    mode runs its sweeps on the machine-width tier when it can (see
    :func:`shapley_all_facts_batched`); hits and fallbacks are counted
    into ``fastpath_stats`` when given.
    ``tape`` optionally supplies a prebuilt
    :class:`~repro.core.numerics.tape.GateTape` of *this* circuit
    (derivative mode only) — the engine layer threads cached tapes
    through so warm shapes skip circuit traversal entirely.
    """
    endo = list(endogenous_facts)
    resolved = _resolve_kernel(kernel)
    if method == "conditioning":
        n = len(endo)
        values: dict[Hashable, Fraction] = {}
        zero = Fraction(0)
        # Loop invariants hoisted: one reachability pass and one player
        # normalization serve every fact.
        present = circuit.reachable_vars()
        for fact in endo:
            _check_time(deadline)
            if fact not in present:
                values[fact] = zero
            else:
                values[fact] = _conditioned_shapley(circuit, n, fact, resolved)
        return values
    if method != "derivative":
        raise ValueError(f"unknown method {method!r}; choose from {MODES}")
    if tape is None:
        simplified = circuit.condition({})
        if simplified.kind(simplified.output_gate()) in (TRUE, FALSE):
            return {fact: Fraction(0) for fact in endo}
        _check_time(deadline)
        tape = compile_tape(simplified)
    # One answer is a group of one.
    return shapley_all_facts_batched(
        [tape], [endo], deadline, resolved, fastpath_stats)[0]


def _foreign_vars_error(present: set, endo_set: set) -> CircuitError:
    return CircuitError(
        "circuit mentions variables outside the endogenous set: "
        f"{sorted(map(repr, present - endo_set))[:5]}"
    )


def _combine_diffs(
    values: dict[Hashable, Fraction],
    tape: GateTape,
    diffs: Mapping[int, list[int]],
    kernel: Kernel,
    n: int,
) -> dict[Hashable, Fraction]:
    """Fold per-slot difference vectors into ``values`` (Equation 3)."""
    extra = n - tape.root_nvars  # endogenous facts outside the circuit
    for slot, diff in diffs.items():
        values[tape.var_labels[slot]] = kernel.equation3(
            kernel.complete(diff, extra), None, n
        )
    return values


def shapley_all_facts_batched(
    tapes: Sequence[GateTape],
    endo_lists: Sequence[Iterable[Hashable]],
    deadline: float | None = None,
    kernel=None,
    fastpath_stats: FastpathStats | None = None,
) -> list[dict[Hashable, Fraction]]:
    """Shapley values for a group of answers, derivative mode.

    ``tapes[i]`` is answer *i*'s (re-targeted) gate tape and
    ``endo_lists[i]`` its endogenous facts.  The forward sweep is
    Lemma 4.5 with per-child OR-gap binomials; the backward sweep
    pushes the circuit derivative down the same tape, accumulating
    per-slot *difference* vectors ``#SAT_m(C[x->1]) - #SAT_m(C[x->0])``
    directly — models in which ``x`` is free (what smoothing pads exist
    to represent) contribute equally to both conditionings and are
    never materialized.

    Both sweeps read only a tape's instructions, never its labels, so
    the group runs them once per distinct shape
    (:meth:`~.numerics.tape.GateTape.same_shape`) and every answer of
    that shape reuses the slot-indexed difference vectors; only
    Equation 3 runs per answer, over its own labels and player count.
    Every sweep first tries the machine-width tier
    (:func:`~.numerics.fixed.fastpath_diffs`: float64, int64 or CRT
    residue planes, chosen from the tape's magnitude bounds); without
    NumPy, when the shape's plan refuses, or when the shape is too
    small for the tier to pay off, it runs as the per-gate interpreted
    pass on ``kernel``, so the returned Fractions are identical either
    way.  ``fastpath_stats`` counts one hit or
    fallback per answer and records the tier that served each answer
    by its position in ``tapes``.
    """
    if len(tapes) != len(endo_lists):
        raise ValueError("tapes and endo_lists must have equal length")
    resolved = _resolve_kernel(kernel)
    check = (lambda: _check_time(deadline)) if deadline is not None else None
    zero = Fraction(0)
    outputs: list[dict[Hashable, Fraction]] = []
    # (representative tape, [(position, values, tape, n), ...]) per
    # distinct shape
    shapes: list[tuple[GateTape, list]] = []
    for position, (tape, endo_facts) in enumerate(zip(tapes, endo_lists)):
        endo = list(endo_facts)
        values: dict[Hashable, Fraction] = {fact: zero for fact in endo}
        outputs.append(values)
        if len(endo) == 0 or tape.is_constant:
            continue
        present = tape.labels()
        endo_set = set(endo)
        if not present <= endo_set:
            raise _foreign_vars_error(present, endo_set)
        lane = (position, values, tape, len(endo))
        for representative, lanes in shapes:
            if tape.same_shape(representative):
                lanes.append(lane)
                break
        else:
            shapes.append((tape, [lane]))

    for tape, lanes in shapes:
        _check_time(deadline)
        diffs = fastpath_diffs(
            tape, fastpath_stats, check, [lane[0] for lane in lanes])
        if diffs is None:
            vals = tape.forward(resolved, check)
            _check_time(deadline)
            diffs = tape.backward_diffs(resolved, vals, check)
        for _, values, lane_tape, n in lanes:
            _check_time(deadline)
            _combine_diffs(values, lane_tape, diffs, resolved, n)
    return outputs


def efficiency_gap(
    values: Mapping[Hashable, Fraction],
    circuit: Circuit,
    endogenous_facts: Iterable[Hashable],
) -> Fraction:
    """The efficiency axiom: ``sum_f Shapley(f) = q(Dn u Dx) - q(Dx)``.

    Returns the difference between the two sides — handy as a built-in
    sanity check (it should always be zero for exact values).
    """
    endo = set(endogenous_facts)
    total = sum(values.values(), Fraction(0))
    all_true = Fraction(1) if circuit.evaluate(endo) else Fraction(0)
    none_true = Fraction(1) if circuit.evaluate(set()) else Fraction(0)
    return total - (all_true - none_true)
