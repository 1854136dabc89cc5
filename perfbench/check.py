"""Correctness checks, run outside the timed passes.

A pass's results are ``{(query, answer): EngineResult}``.  The first
cold pass of a run is checked against the lineage itself: every answer
must be ``ok``, satisfy the efficiency axiom exactly, and -- when it has
at most :data:`NAIVE_MAX_FACTS` facts -- equal Equation 1 evaluated by
subset enumeration.  Every later pass must reproduce those Fractions
answer by answer.
"""

from __future__ import annotations

import hashlib

from repro.core.naive import shapley_naive
from repro.core.pipeline import to_plan
from repro.core.shapley import efficiency_gap
from repro.db.evaluate import lineage

#: Answers up to this many facts are also checked by subset enumeration.
NAIVE_MAX_FACTS = 10


def lineages(workload, db) -> dict:
    """Each query's :class:`~repro.db.evaluate.LineageResult`."""
    return {
        name: lineage(to_plan(workload.sql(name), db), db,
                      endogenous_only=True)
        for name in workload.queries
    }


def verify(workload, db, results) -> set:
    """Keys of ``results`` that fail a check against their lineage."""
    failed = set()
    for name, extracted in lineages(workload, db).items():
        for answer in extracted.tuples():
            key = (name, answer)
            result = results.get(key)
            if result is None or not result.ok or result.values is None:
                failed.add(key)
                continue
            circuit = extracted.lineage_of(answer)
            facts = sorted(circuit.reachable_vars())
            if efficiency_gap(result.values, circuit, facts) != 0:
                failed.add(key)
            elif len(facts) <= NAIVE_MAX_FACTS:
                expected = shapley_naive(
                    lambda coalition: int(circuit.evaluate(coalition)), facts)
                if _nonzero(result.values) != _nonzero(expected):
                    failed.add(key)
    return failed


def _nonzero(values: dict) -> dict:
    return {fact: value for fact, value in values.items() if value}


def compare(results, reference: dict) -> set:
    """Keys whose status or Fractions differ from the checked pass."""
    failed = {key for key in reference if key not in results}
    for key, result in results.items():
        if not result.ok or result.values != reference.get(key):
            failed.add(key)
    return failed


def digest(results) -> str:
    """SHA-256 over every answer's exact values, independent of order."""
    lines = []
    for (name, answer), result in results.items():
        values = sorted(
            (repr(fact), value.numerator, value.denominator)
            for fact, value in (result.values or {}).items()
        )
        lines.append(repr((name, answer, result.status, values)))
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
