"""Per-output-tuple experiment runner.

The paper's evaluation loop is: run each query, capture the provenance
of every output tuple, push each through the exact pipeline under a
budget, and record sizes/timings/success.  :func:`run_query` performs
exactly that and returns plain-data records that the table/figure
benches aggregate.

The exact pipeline is resolved through the engine registry
(``get_engine("exact")``); an optional shared
:class:`~repro.engine.cache.ArtifactCache` lets suite runs reuse
compiled artifacts across isomorphic output tuples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable

from ..compiler.knowledge import CompilationBudget
from ..db.database import Database
from ..db.evaluate import LineageResult, lineage
from ..engine.base import EngineOptions
from ..engine.cache import ArtifactCache
from ..engine.registry import get_engine
from ..workloads.suite import QueryShape, QuerySpec, describe


@dataclass
class OutputRecord:
    """One output tuple's trip through the exact pipeline."""

    dataset: str
    query: str
    answer: tuple
    n_facts: int
    circuit_size: int
    cnf_vars: int
    cnf_clauses: int
    ddnnf_size: int
    status: str
    compile_seconds: float
    shapley_seconds: float
    values: dict[Hashable, Fraction] | None = None
    #: the endogenous-lineage circuit (kept only when requested; used by
    #: the inexact-method benches to rerun baselines on the same input)
    circuit: object | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + self.shapley_seconds


@dataclass
class QueryRun:
    """All records of one query, plus query-level metadata."""

    spec: QuerySpec
    shape: QueryShape
    eval_seconds: float
    records: list[OutputRecord] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        if not self.records:
            return float("nan")
        return sum(r.ok for r in self.records) / len(self.records)

    def ok_records(self) -> list[OutputRecord]:
        return [r for r in self.records if r.ok]


def run_query(
    database: Database,
    spec: QuerySpec,
    dataset: str = "",
    budget: CompilationBudget | None = None,
    keep_values: bool = False,
    max_outputs: int | None = None,
    cache: ArtifactCache | None = None,
) -> QueryRun:
    """Run one query end to end: provenance for every output tuple, then
    the exact pipeline per tuple under ``budget``.

    With ``keep_values=True`` each record also keeps its lineage circuit
    so downstream experiments can rerun other methods on it.  With a
    shared ``cache``, isomorphic output tuples compile once."""
    plan = spec.plan(database)
    start = time.perf_counter()
    result = lineage(plan, database, endogenous_only=True)
    eval_seconds = time.perf_counter() - start
    run = QueryRun(spec, describe(spec, database), eval_seconds)

    answers = result.tuples()
    if max_outputs is not None:
        answers = answers[:max_outputs]
    for answer in answers:
        run.records.append(
            run_output(
                result, answer, dataset, spec.name, budget, keep_values,
                cache,
            )
        )
    return run


def run_output(
    result: LineageResult,
    answer: tuple,
    dataset: str,
    query_name: str,
    budget: CompilationBudget | None = None,
    keep_values: bool = False,
    cache: ArtifactCache | None = None,
) -> OutputRecord:
    """Push one output tuple through the exact engine."""
    circuit = result.lineage_of(answer)
    endo = sorted(circuit.reachable_vars())
    options = EngineOptions(budget=budget, timeout=None, cache=cache)
    outcome = get_engine("exact").explain_circuit(circuit, endo, options).detail
    return OutputRecord(
        dataset=dataset,
        query=query_name,
        answer=answer,
        n_facts=outcome.stats.n_facts,
        circuit_size=outcome.stats.circuit_size,
        cnf_vars=outcome.stats.cnf_vars,
        cnf_clauses=outcome.stats.cnf_clauses,
        ddnnf_size=outcome.stats.ddnnf_size,
        status=outcome.status,
        compile_seconds=outcome.compile_seconds,
        shapley_seconds=outcome.shapley_seconds,
        values=outcome.values if keep_values else None,
        circuit=circuit if keep_values else None,
    )


def run_suite(
    database: Database,
    specs: list[QuerySpec],
    dataset: str,
    budget: CompilationBudget | None = None,
    keep_values: bool = False,
    max_outputs: int | None = None,
    cache: ArtifactCache | None = None,
) -> list[QueryRun]:
    """Run a whole query suite (one dataset column of Table 1)."""
    return [
        run_query(
            database, spec, dataset, budget,
            keep_values=keep_values, max_outputs=max_outputs, cache=cache,
        )
        for spec in specs
    ]
