"""The end-to-end exact pipeline of the paper's Figure 3.

Database + query + answer tuple  →  lineage circuit (ProvSQL role)
→ endogenous lineage (exogenous facts fixed to 1) → Tseytin CNF
→ knowledge compilation to d-DNNF (c2d role) → auxiliary-variable
elimination (Lemma 4.6) → Algorithm 1 → Shapley value of every fact.

Every stage is timed and sized so the benchmark harness can reproduce
Table 1 and Figure 4, and the whole pipeline accepts a budget whose
exhaustion is reported as a *failure outcome* rather than an exception
(the paper's OOM/timeout events).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Hashable, Mapping

from ..circuits.circuit import Circuit
from ..circuits.cnf import Cnf
from ..circuits.dnnf import eliminate_auxiliary
from ..circuits.tseytin import tseytin_transform
from ..compiler.knowledge import BudgetExceeded, CompilationBudget, compile_cnf
from ..db.algebra import Operator
from ..db.conjunctive import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..db.database import Database, Fact
from ..db.evaluate import LineageResult, lineage
from ..db.sql import plan_sql
from .numerics import compile_tape
from .numerics.fixed import FastpathStats
from .shapley import (
    ShapleyTimeout, shapley_all_facts, shapley_all_facts_batched,
)

if TYPE_CHECKING:  # pragma: no cover - engine imports this module
    from ..engine.cache import ArtifactCache, CircuitArtifacts

QueryLike = str | Operator | ConjunctiveQuery | UnionOfConjunctiveQueries


def to_plan(query: QueryLike, database: Database) -> Operator:
    """Normalize a SQL string / conjunctive query / algebra tree into a
    relational-algebra plan."""
    if isinstance(query, str):
        return plan_sql(query, database.schema)
    if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        return query.to_algebra(database.schema)
    return query


@dataclass
class ProvenanceStats:
    """Sizes collected along the pipeline (the x-axes of Figure 4)."""

    n_facts: int = 0
    circuit_size: int = 0
    cnf_vars: int = 0
    cnf_clauses: int = 0
    ddnnf_size: int = 0


@dataclass
class ExactOutcome:
    """Result of one exact Shapley computation for one output tuple.

    ``status`` is ``"ok"`` on success, ``"budget"`` if knowledge
    compilation blew its node/time budget (the paper's OOM events) and
    ``"timeout"`` if Algorithm 1 did.
    """

    status: str
    values: dict[Hashable, Fraction] | None
    stats: ProvenanceStats
    timings: dict[str, float] = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def compile_seconds(self) -> float:
        """Everything before Algorithm 1: Tseytin, knowledge
        compilation, and gate-tape lowering (the ``tape`` stage carries
        the d-DNNF compilation it triggers on cold shapes)."""
        return (
            self.timings.get("tseytin", 0.0)
            + self.timings.get("compile", 0.0)
            + self.timings.get("tape", 0.0)
        )

    @property
    def shapley_seconds(self) -> float:
        return self.timings.get("shapley", 0.0)


def exact_shapley_of_circuit(
    circuit: Circuit,
    endogenous_facts,
    budget: CompilationBudget | None = None,
    cache: "ArtifactCache | None" = None,
) -> dict[Hashable, Fraction]:
    """Exact Shapley values of an endogenous-lineage circuit.

    Raises :class:`~repro.compiler.BudgetExceeded` /
    :class:`~repro.core.shapley.ShapleyTimeout` on budget exhaustion;
    use :func:`run_exact` for the non-raising variant.
    """
    outcome = run_exact(circuit, endogenous_facts, budget=budget, cache=cache)
    if not outcome.ok:
        if outcome.status == "budget":
            raise BudgetExceeded(outcome.error or "budget exceeded")
        raise ShapleyTimeout(outcome.error or "timed out")
    assert outcome.values is not None
    return outcome.values


def _deadline(budget: CompilationBudget | None) -> float | None:
    """The wall-clock deadline ``budget`` sets from now, if any."""
    if budget is None or budget.max_seconds is None:
        return None
    return time.perf_counter() + budget.max_seconds


def run_exact(
    circuit: Circuit,
    endogenous_facts,
    budget: CompilationBudget | None = None,
    cache: "ArtifactCache | None" = None,
    artifacts: "CircuitArtifacts | None" = None,
) -> ExactOutcome:
    """Run the knowledge-compilation pipeline on one lineage circuit,
    catching budget events into the outcome.

    With a ``cache`` (an :class:`~repro.engine.cache.ArtifactCache`),
    the Tseytin and compilation stages are served from it: lineages
    isomorphic to an already-compiled one skip knowledge compilation
    entirely and only pay a rename, while Shapley values stay identical
    to the uncached path (the renamed d-DNNF computes the same function
    over the same labels).

    ``artifacts`` may carry a prebuilt
    :class:`~repro.engine.cache.CircuitArtifacts` handle for this very
    circuit; the pipeline then reuses its canonicalization pass instead
    of conditioning and signing the circuit again.  The handle also
    serves the shape's compiled
    :class:`~repro.core.numerics.tape.GateTape`, so a warm shape runs
    Algorithm 1 without touching a single circuit gate.

    An answer served by the machine-width tier gets a
    ``tier_<float64|int64|crt>`` timing naming the tier that ran
    (:func:`_label_tiers`).
    """
    endo = list(endogenous_facts)
    stats = ProvenanceStats()
    timings: dict[str, float] = {}
    deadline = _deadline(budget)

    tape, failure = _prepare(
        circuit, budget, cache, artifacts, stats, timings)
    if failure is not None:
        return failure

    fastpath = FastpathStats()
    t0 = time.perf_counter()
    try:
        values = shapley_all_facts(
            None, endo, deadline=deadline, tape=tape, fastpath_stats=fastpath,
        )
    except ShapleyTimeout as exc:
        timings["shapley"] = time.perf_counter() - t0
        return ExactOutcome("timeout", None, stats, timings, str(exc))
    finally:
        recorder = cache if cache is not None else (
            artifacts.cache if artifacts is not None else None)
        if recorder is not None:
            recorder.record_fastpath(fastpath)
    timings["shapley"] = time.perf_counter() - t0
    _label_tiers([timings], fastpath)
    return ExactOutcome("ok", values, stats, timings)


def _label_tiers(
    timings_list: list[dict[str, float]], fastpath: FastpathStats,
) -> None:
    """Add ``tier_<name>`` to the timings of every answer a
    machine-width sweep served, mirroring its ``shapley`` time.

    ``timings_list[i]`` belongs to the answer at position ``i`` of the
    Algorithm-1 call that filled ``fastpath``; answers that ran the
    interpreted pass get no tier.
    """
    for position, tier in fastpath.tiers.items():
        timings = timings_list[position]
        timings[f"tier_{tier}"] = timings["shapley"]


def _prepare(
    circuit: Circuit,
    budget: CompilationBudget | None,
    cache: "ArtifactCache | None",
    artifacts: "CircuitArtifacts | None",
    stats: ProvenanceStats,
    timings: dict[str, float],
):
    """The pre-Algorithm-1 stages of one answer: artifact acquisition,
    Tseytin/CNF, and the compile stage down to the gate tape.  Shared
    by :func:`run_exact` and by :func:`run_exact_batch`, which runs
    them per answer before the shared batched sweep.

    Returns ``(tape, failure)``: exactly one is ``None``;
    ``failure`` is the budget :class:`ExactOutcome` when compilation
    blew its budget (timings already recorded).
    """
    if artifacts is not None:
        stats.n_facts = len(artifacts.labels)
        stats.circuit_size = artifacts.source_size
        simplified = None
    else:
        simplified = circuit.condition({})
        stats.n_facts = len(simplified.reachable_vars())
        stats.circuit_size = len(simplified)
        if cache is not None:
            artifacts = cache.open(simplified)

    t0 = time.perf_counter()
    if artifacts is not None:
        stats.cnf_vars, stats.cnf_clauses = artifacts.cnf_size()
    else:
        cnf = tseytin_transform(simplified)
        stats.cnf_vars, stats.cnf_clauses = cnf.num_vars, cnf.num_clauses
    timings["tseytin"] = time.perf_counter() - t0

    stage = "tape" if artifacts is not None else "compile"
    compile_stats = None
    tape_lower = 0.0
    t0 = time.perf_counter()
    try:
        if artifacts is not None:
            stats_before = artifacts.compile_stats
            lower_before = artifacts.tape_lower_seconds
            # The tape is the only artifact Algorithm 1 needs; on a
            # warm shape this is a pure lookup + O(#vars) re-targeting
            # (no d-DNNF rename, no gate traversal).
            tape = artifacts.tape(budget=budget)
            # Only attribute sub-stage time this call actually spent
            # (the handle may be warm or shared across answers).
            if artifacts.compile_stats is not stats_before:
                compile_stats = artifacts.compile_stats
            tape_lower = artifacts.tape_lower_seconds - lower_before
        else:
            compiled = compile_cnf(cnf, budget=budget)
            ddnnf = eliminate_auxiliary(
                compiled.circuit, set(cnf.labels.values()))
            compile_stats = compiled.stats
            t1 = time.perf_counter()
            tape = compile_tape(ddnnf.condition({}))
            tape_lower = time.perf_counter() - t1
    except BudgetExceeded as exc:
        timings[stage] = time.perf_counter() - t0
        return None, ExactOutcome("budget", None, stats, timings, str(exc))
    timings[stage] = time.perf_counter() - t0
    # The stage's cold-path sub-stages: components compiled from
    # scratch, their import into the parent circuit, and the d-DNNF →
    # tape lowering.  All three are zero on a fully warm shape.
    timings["component_compile"] = (
        compile_stats.component_seconds if compile_stats is not None else 0.0
    )
    timings["stitch"] = (
        compile_stats.stitch_seconds if compile_stats is not None else 0.0
    )
    timings["tape_lower"] = tape_lower
    stats.ddnnf_size = tape.source_gates
    return tape, None


def run_exact_batch(
    circuits,
    endo_lists,
    budget: CompilationBudget | None = None,
    cache: "ArtifactCache | None" = None,
    artifacts_list=None,
) -> list[ExactOutcome]:
    """Run the exact pipeline over a *same-shape answer group*.

    ``circuits[i]`` / ``endo_lists[i]`` (and optionally
    ``artifacts_list[i]``) describe answer *i*.  The group runs
    Algorithm 1's sweeps once per shape and Equation 3 per answer
    (:func:`~repro.core.shapley.shapley_all_facts_batched`); per
    answer, compilation failures become individual budget outcomes, so
    every answer's Fractions are identical to a :func:`run_exact` loop.
    A singleton group *is* that loop.

    Timing attribution: each answer's ``shapley`` stage receives an
    equal share of the group pass, mirrored as ``batch_exec``, plus a
    ``tier_<float64|int64|crt>`` entry naming the arithmetic tier of
    the machine-width sweep that served *that* answer's shape (absent
    when its shape ran the interpreted pass).
    """
    n_answers = len(circuits)
    endo_lists = [list(endo) for endo in endo_lists]
    if artifacts_list is None:
        artifacts_list = [None] * n_answers
    if n_answers <= 1:
        return [
            run_exact(
                circuit, endo, budget=budget, cache=cache, artifacts=artifacts
            )
            for circuit, endo, artifacts
            in zip(circuits, endo_lists, artifacts_list)
        ]

    deadline = _deadline(budget)
    outcomes: list[ExactOutcome | None] = [None] * n_answers
    prepared: list[tuple[int, object, ProvenanceStats, dict]] = []
    for i in range(n_answers):
        stats = ProvenanceStats()
        timings: dict[str, float] = {}
        tape, failure = _prepare(
            circuits[i], budget, cache, artifacts_list[i], stats, timings
        )
        if failure is not None:
            outcomes[i] = failure
        else:
            prepared.append((i, tape, stats, timings))
    if not prepared:
        return outcomes

    fastpath = FastpathStats()
    tapes = [entry[1] for entry in prepared]
    group_endo = [endo_lists[entry[0]] for entry in prepared]
    t0 = time.perf_counter()
    try:
        values_list = shapley_all_facts_batched(
            tapes, group_endo, deadline=deadline, fastpath_stats=fastpath,
        )
    except ShapleyTimeout as exc:
        elapsed = time.perf_counter() - t0
        share = elapsed / len(prepared)
        for i, tape, stats, timings in prepared:
            timings["shapley"] = share
            outcomes[i] = ExactOutcome(
                "timeout", None, stats, timings, str(exc))
        values_list = None
    finally:
        recorder = cache
        if recorder is None:
            recorder = next(
                (a.cache for a in artifacts_list
                 if a is not None and a.cache is not None), None)
        if recorder is not None:
            recorder.record_fastpath(fastpath)
            recorder.record_batch(1, len(prepared))
    if values_list is None:
        return outcomes

    elapsed = time.perf_counter() - t0
    share = elapsed / len(prepared)
    for (i, tape, stats, timings), values in zip(prepared, values_list):
        timings["shapley"] = share
        timings["batch_exec"] = share
        outcomes[i] = ExactOutcome("ok", values, stats, timings)
    _label_tiers([entry[3] for entry in prepared], fastpath)
    return outcomes


@dataclass
class TupleExplanation:
    """Exact Shapley explanation of a single query answer."""

    answer: tuple
    outcome: ExactOutcome

    def values(self) -> dict[Hashable, Fraction]:
        if not self.outcome.ok or self.outcome.values is None:
            raise RuntimeError(f"exact computation failed: {self.outcome.status}")
        return self.outcome.values

    def top(self, k: int = 10) -> list[tuple[Hashable, Fraction]]:
        vals = self.values()
        order = sorted(vals.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        return order[:k]


class ShapleyExplainer:
    """High-level exact pipeline bound to one database.

    Delegates to the ``"exact"`` engine of the registry
    (:mod:`repro.engine`), so a shared
    :class:`~repro.engine.cache.ArtifactCache` makes repeated lineage
    shapes compile once — across answers, queries, and even other
    explainers holding the same cache.

    Example
    -------
    >>> explainer = ShapleyExplainer(db)
    >>> explanations = explainer.explain("SELECT name FROM ...")
    >>> explanations[("FRANCE",)].top(3)
    """

    def __init__(
        self,
        database: Database,
        budget: CompilationBudget | None = None,
        restrict_to_lineage: bool = True,
        cache: "ArtifactCache | None" = None,
    ) -> None:
        self.database = database
        self.budget = budget
        # When True, Shapley values are computed over the facts actually
        # appearing in the answer's lineage (all other endogenous facts
        # provably have value 0 and are reported as such only on demand).
        self.restrict_to_lineage = restrict_to_lineage
        self.cache = cache

    def _options(self) -> "object":
        from ..engine.base import EngineOptions

        return EngineOptions(budget=self.budget, timeout=None, cache=self.cache)

    def lineage(self, query: QueryLike) -> LineageResult:
        """Endogenous lineage of every answer of the query."""
        plan = to_plan(query, self.database)
        return lineage(plan, self.database, endogenous_only=True)

    def explain_answer(
        self, result: LineageResult, answer: tuple
    ) -> TupleExplanation:
        """Exact Shapley values for one answer tuple."""
        from ..engine.registry import get_engine

        circuit = result.lineage_of(answer)
        endo = self._players(circuit)
        outcome = get_engine("exact").explain_circuit(
            circuit, endo, self._options()
        ).detail
        return TupleExplanation(answer, outcome)

    def explain(self, query: QueryLike) -> dict[tuple, TupleExplanation]:
        """Exact Shapley values for every answer of the query."""
        result = self.lineage(query)
        return {
            answer: self.explain_answer(result, answer)
            for answer in result.tuples()
        }

    def explain_many(
        self, query: QueryLike, max_workers: int | None = None
    ) -> dict[tuple, TupleExplanation]:
        """Batched :meth:`explain`: dedupe isomorphic lineages up front,
        compile each distinct shape once through an
        :class:`~repro.engine.cache.ArtifactCache`, and fan answers out
        over a thread pool.  Values are identical to :meth:`explain`;
        each answer keeps its own budget/timeout outcome.
        """
        from ..engine.cache import ArtifactCache
        from ..engine.session import ExplainSession

        if not self.restrict_to_lineage:
            # The batched path scopes players to each answer's lineage;
            # whole-database player lists stay on the sequential path.
            return self.explain(query)
        if self.cache is None:
            self.cache = ArtifactCache()
        session = ExplainSession(
            self.database, method="exact", options=self._options(),
            cache=self.cache, max_workers=max_workers,
        )
        results = session.explain_many(query)
        return {
            answer: TupleExplanation(answer, engine_result.detail)
            for answer, engine_result in results.items()
        }

    def _players(self, circuit: Circuit) -> list[Fact]:
        if self.restrict_to_lineage:
            present = circuit.reachable_vars()
            return sorted(present)
        return self.database.endogenous_facts()
