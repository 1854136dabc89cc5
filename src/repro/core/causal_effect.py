"""Alternative responsibility measures from the paper's related work.

Besides the Shapley value, the paper cites two quantitative measures of
a fact's contribution to a query answer:

* the **causal effect** of Salimi et al. [30]: the difference of the
  answer's expected value when the fact is forced in vs. forced out,
  under independent inclusion of the other endogenous facts with
  probability 1/2.  Over a lineage circuit this is exactly the
  (normalized) **Banzhaf value**:

      CE(f) = ( #SAT(C[f->1]) - #SAT(C[f->0]) ) / 2^(n-1)

  Free players double both counts alike, so the ratio only needs the
  circuit's own variables: ``CE(f) = sum_k diff_k(f) / 2^(v-1)`` over
  the difference vectors of Algorithm 1's derivative sweep, with
  ``v = |Vars(C)|``.  It is a second combine over the same sweep that
  feeds Equation 3.

* the **counterfactual responsibility** of Meliou et al. [24]:
  ``1 / (1 + m)`` where ``m`` is the size of a smallest contingency set
  ``Γ`` such that removing ``Γ`` makes ``f`` counterfactual for the
  answer (0 if no such set exists).

Both are computed exactly here from the endogenous lineage; the test
suite compares their rankings against Shapley's.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Hashable, Iterable

from ..circuits.circuit import FALSE, TRUE, Circuit
from .numerics import compile_tape
from .shapley import _foreign_vars_error, tape_diffs


def causal_effects(
    ddnnf: Circuit, endogenous_facts: Iterable[Hashable]
) -> dict[Hashable, Fraction]:
    """Causal effect (= Banzhaf value) of every endogenous fact.

    ``ddnnf`` must be a deterministic and decomposable circuit for the
    endogenous lineage (compile it with
    :func:`repro.compiler.compile_circuit`).  Facts outside the lineage
    (and every fact of a constant lineage) have effect 0.
    """
    players = list(endogenous_facts)
    effects = {fact: Fraction(0) for fact in players}
    simplified = ddnnf.condition({})
    if simplified.kind(simplified.output_gate()) in (TRUE, FALSE):
        return effects
    tape = compile_tape(simplified)
    present, endo_set = tape.labels(), set(players)
    if not present <= endo_set:
        raise _foreign_vars_error(present, endo_set)
    denominator = 1 << (tape.root_nvars - 1)
    for slot, diff in tape_diffs(tape).items():
        effects[tape.var_labels[slot]] = Fraction(sum(diff), denominator)
    return effects


def responsibility(
    circuit: Circuit,
    endogenous_facts: Iterable[Hashable],
    fact: Hashable,
    max_contingency: int | None = None,
) -> Fraction:
    """Counterfactual responsibility of ``fact`` (Meliou et al.).

    Searches contingency sets by increasing size (exponential in the
    worst case — the measure is NP-hard; ``max_contingency`` bounds the
    search).  The lineage is evaluated with all endogenous facts
    present, contingency facts removed.
    """
    players = [f for f in endogenous_facts if f != fact]
    if max_contingency is None:
        max_contingency = len(players)
    base = set(players) | {fact}
    if not circuit.evaluate(base):
        # The answer does not hold on the full database: responsibility
        # for a non-answer is out of scope here.
        return Fraction(0)
    for size in range(0, max_contingency + 1):
        for contingency in combinations(players, size):
            world = base - set(contingency)
            if circuit.evaluate(world) and not circuit.evaluate(world - {fact}):
                return Fraction(1, 1 + size)
    return Fraction(0)


def responsibilities(
    circuit: Circuit,
    endogenous_facts: Iterable[Hashable],
    max_contingency: int | None = None,
) -> dict[Hashable, Fraction]:
    """Counterfactual responsibility of every endogenous fact."""
    players = list(endogenous_facts)
    return {
        fact: responsibility(circuit, players, fact, max_contingency)
        for fact in players
    }
