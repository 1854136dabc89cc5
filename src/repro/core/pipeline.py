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
from typing import TYPE_CHECKING, Hashable

from ..circuits.circuit import Circuit
from ..compiler.knowledge import BudgetExceeded, CompilationBudget
from ..db.algebra import Operator
from ..db.conjunctive import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..db.database import Database, Fact
from ..db.evaluate import LineageResult, lineage
from ..db.sql import plan_sql
from .numerics.fixed import FastpathStats
from .shapley import ShapleyTimeout, shapley_all_facts_batched

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
        return self.timings.get("tseytin", 0.0) + self.timings.get("tape", 0.0)

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
    catching budget events into the outcome: :func:`run_exact_batch`
    over a group of one.

    With a ``cache`` (an :class:`~repro.engine.cache.ArtifactCache`),
    the Tseytin and compilation stages are served from it: lineages
    isomorphic to an already-compiled one skip knowledge compilation
    entirely and only pay a rename, while Shapley values stay identical
    to a cold compile (the renamed d-DNNF computes the same function
    over the same labels).  Without one, the circuit is opened in a
    throwaway cache.

    ``artifacts`` may carry a prebuilt
    :class:`~repro.engine.cache.CircuitArtifacts` handle for this very
    circuit; the pipeline then reuses its canonicalization pass instead
    of conditioning and signing the circuit again.  The handle also
    serves the shape's compiled
    :class:`~repro.core.numerics.tape.GateTape`, so a warm shape runs
    Algorithm 1 without touching a single circuit gate.

    An answer served by the machine-width tier gets a
    ``tier_<float64|int64|crt>`` timing naming the tier that ran.
    """
    return run_exact_batch(
        [circuit], [endogenous_facts], budget=budget, cache=cache,
        artifacts_list=[artifacts],
    )[0]


def _prepare(
    artifacts: "CircuitArtifacts",
    budget: CompilationBudget | None,
    stats: ProvenanceStats,
    timings: dict[str, float],
):
    """The pre-Algorithm-1 stages of one answer, served by its
    artifact handle: Tseytin/CNF sizes, then the ``tape`` stage (the
    d-DNNF compile it triggers on a cold shape, and the lowering).

    Returns ``(tape, failure)``: exactly one is ``None``;
    ``failure`` is the budget :class:`ExactOutcome` when compilation
    blew its budget (timings already recorded).
    """
    stats.n_facts = len(artifacts.labels)
    stats.circuit_size = artifacts.source_size

    t0 = time.perf_counter()
    stats.cnf_vars, stats.cnf_clauses = artifacts.cnf_size()
    timings["tseytin"] = time.perf_counter() - t0

    stats_before = artifacts.compile_stats
    lower_before = artifacts.tape_lower_seconds
    t0 = time.perf_counter()
    try:
        # The tape is the only artifact Algorithm 1 needs; on a warm
        # shape this is a pure lookup + O(#vars) re-targeting (no
        # d-DNNF rename, no gate traversal).
        tape = artifacts.tape(budget=budget)
    except BudgetExceeded as exc:
        timings["tape"] = time.perf_counter() - t0
        return None, ExactOutcome("budget", None, stats, timings, str(exc))
    timings["tape"] = time.perf_counter() - t0
    # The stage's cold-path sub-stages: components compiled from
    # scratch, their import into the parent circuit, and the d-DNNF →
    # tape lowering.  All three are zero on a fully warm shape; only
    # time this call spent counts (the handle may be warm or shared
    # across answers).
    compile_stats = artifacts.compile_stats
    fresh = compile_stats is not None and compile_stats is not stats_before
    timings["component_compile"] = (
        compile_stats.component_seconds if fresh else 0.0)
    timings["stitch"] = compile_stats.stitch_seconds if fresh else 0.0
    timings["tape_lower"] = artifacts.tape_lower_seconds - lower_before
    stats.ddnnf_size = tape.source_gates
    return tape, None


def open_artifacts(
    circuit: Circuit,
    cache: "ArtifactCache | None" = None,
    artifacts: "CircuitArtifacts | None" = None,
) -> "CircuitArtifacts":
    """The artifact handle every exact, hybrid and proxy call compiles
    through: ``artifacts`` when given, else ``circuit`` opened in
    ``cache``, or in a throwaway
    :class:`~repro.engine.cache.ArtifactCache` when none is given."""
    if artifacts is not None:
        return artifacts
    if cache is None:
        from ..engine.cache import ArtifactCache

        cache = ArtifactCache()
    return cache.open(circuit)


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
    every answer's Fractions are identical whatever group it runs in.

    Timing attribution: each answer's ``shapley`` stage receives an
    equal share of the group pass, plus a ``tier_<float64|int64|crt>``
    entry naming the arithmetic tier of the machine-width sweep that
    served *that* answer's shape (absent when its shape ran the
    interpreted pass).  A group of two or more answers is a *batch*:
    its share is mirrored as ``batch_exec`` and the group counts in the
    cache's ``batched_groups`` / ``batched_answers``; a group of one
    (:func:`run_exact`) is not.
    """
    if not circuits:
        return []
    deadline = _deadline(budget)
    if artifacts_list is None:
        artifacts_list = [None] * len(circuits)
    handles = [
        open_artifacts(circuit, cache, artifacts)
        for circuit, artifacts in zip(circuits, artifacts_list)
    ]
    recorder = cache if cache is not None else handles[0].cache
    outcomes: list[ExactOutcome | None] = [None] * len(handles)
    prepared: list[tuple[int, object, ProvenanceStats, dict]] = []
    for i, artifacts in enumerate(handles):
        stats = ProvenanceStats()
        timings: dict[str, float] = {}
        tape, failure = _prepare(artifacts, budget, stats, timings)
        if failure is not None:
            outcomes[i] = failure
        else:
            prepared.append((i, tape, stats, timings))
    if not prepared:
        return outcomes

    batch = len(circuits) > 1
    fastpath = FastpathStats()
    tapes = [entry[1] for entry in prepared]
    group_endo = [list(endo_lists[entry[0]]) for entry in prepared]
    t0 = time.perf_counter()
    try:
        values_list = shapley_all_facts_batched(
            tapes, group_endo, deadline=deadline, fastpath_stats=fastpath,
        )
    except ShapleyTimeout as exc:
        share = (time.perf_counter() - t0) / len(prepared)
        for i, tape, stats, timings in prepared:
            timings["shapley"] = share
            outcomes[i] = ExactOutcome(
                "timeout", None, stats, timings, str(exc))
        return outcomes
    finally:
        recorder.record_fastpath(fastpath)
        if batch:
            recorder.record_batch(1, len(prepared))

    share = (time.perf_counter() - t0) / len(prepared)
    for (i, tape, stats, timings), values in zip(prepared, values_list):
        timings["shapley"] = share
        if batch:
            timings["batch_exec"] = share
        outcomes[i] = ExactOutcome("ok", values, stats, timings)
    # ``fastpath.tiers`` is keyed by position in ``tapes``; answers
    # that ran the interpreted pass get no tier.
    for position, tier in fastpath.tiers.items():
        timings = prepared[position][3]
        timings[f"tier_{tier}"] = timings["shapley"]
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
        over the session's default executor.  Values are identical to
        :meth:`explain`; each answer keeps its own budget/timeout
        outcome.
        """
        from ..engine.cache import ArtifactCache
        from ..engine.session import ExplainSession

        if not self.restrict_to_lineage:
            # The batched path scopes players to each answer's lineage;
            # whole-database player lists stay on the sequential path.
            return self.explain(query)
        if self.cache is None:
            self.cache = ArtifactCache()
        with ExplainSession(
            self.database, method="exact", options=self._options(),
            cache=self.cache, max_workers=max_workers,
        ) as session:
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
