"""The single-call user API: attribute a query answer to facts.

:func:`attribute` runs any of the paper's five methods on one query
answer and returns an :class:`Attribution` with values and a ranking:

>>> result = attribute(db, "SELECT country FROM ...", answer=("FR",),
...                    method="hybrid")
>>> result.top(5)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from ..db.database import Database
from ..db.evaluate import lineage
from ..engine.base import EngineOptions, derive_answer_seed
from ..engine.registry import available_engines, get_engine
from .metrics import ranking as _ranking
from .pipeline import QueryLike, to_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.cache import ArtifactCache

#: The registered engine names (kept for backwards compatibility; the
#: authoritative list is :func:`repro.engine.available_engines`).
METHODS = available_engines()


@dataclass
class Attribution:
    """Attribution of one query answer to the endogenous facts.

    ``exact`` tells whether ``values`` are true Shapley values or
    heuristic/sampled scores; ``seconds`` is the wall-clock cost.
    """

    answer: tuple
    method: str
    values: dict[Hashable, object]
    exact: bool
    seconds: float
    detail: object = field(default=None, repr=False)

    def ranking(self) -> list[Hashable]:
        """Facts by decreasing contribution."""
        return _ranking(self.values)

    def top(self, k: int = 10) -> list[tuple[Hashable, object]]:
        """The ``k`` most contributing facts with their scores."""
        return [(fact, self.values[fact]) for fact in self.ranking()[:k]]


def attribute(
    database: Database,
    query: QueryLike,
    answer: tuple | None = None,
    method: str = "hybrid",
    timeout: float = 2.5,
    samples_per_fact: int = 20,
    seed: int | None = None,
    cache: "ArtifactCache | None" = None,
) -> Attribution:
    """Compute fact contributions for one answer of ``query``.

    Dispatch goes through the engine registry
    (:func:`repro.engine.get_engine`); any registered backend name is a
    valid ``method``.

    Parameters
    ----------
    database:
        The database with its endogenous/exogenous partition.
    query:
        SQL text, a (U)CQ, or a relational-algebra plan.
    answer:
        The output tuple to explain.  May be omitted for Boolean queries
        (empty answer tuple) or queries with exactly one answer.
    method:
        One of ``exact`` (Algorithm 1; may be slow), ``hybrid``
        (exact-with-timeout then CNF Proxy — the paper's recommendation),
        ``proxy`` (CNF Proxy only), ``monte_carlo``, ``kernel_shap``,
        or any engine registered with
        :func:`repro.engine.register_engine`.
    timeout:
        Budget in seconds for the exact/hybrid paths.
    samples_per_fact:
        Budget for the sampling baselines (the paper sweeps 10..50).
    seed:
        RNG seed for the sampling baselines.  The effective per-answer
        seed is :func:`~repro.engine.base.derive_answer_seed` of
        ``(seed, answer)`` — the same derivation the batched
        :meth:`~repro.engine.ExplainSession.explain_many` uses, so
        explaining an answer alone or in any batch/order yields the
        same sampled values.
    cache:
        Optional shared :class:`~repro.engine.cache.ArtifactCache`; for
        many answers prefer
        :meth:`repro.engine.ExplainSession.explain_many`.
    """
    engine = get_engine(method)
    plan = to_plan(query, database)
    result = lineage(plan, database, endogenous_only=True)
    answers = result.tuples()
    if answer is None:
        if len(answers) == 1:
            answer = answers[0]
        else:
            raise ValueError(
                f"query has {len(answers)} answers; pass `answer=` to pick one"
            )
    elif answer not in result.relation.rows:
        raise ValueError(f"{answer!r} is not an answer of the query")

    circuit = result.lineage_of(answer)
    endo = sorted(circuit.reachable_vars())
    options = EngineOptions(
        timeout=timeout,
        samples_per_fact=samples_per_fact,
        seed=derive_answer_seed(seed, answer) if seed is not None else None,
        cache=cache,
    )
    outcome = engine.explain_circuit(circuit, endo, options)
    if not outcome.ok:
        hint = "; try method='hybrid'" if engine.name == "exact" else ""
        raise RuntimeError(
            f"{engine.name} computation failed ({outcome.status}): "
            f"{outcome.error}{hint}"
        )
    return Attribution(
        answer, engine.name, outcome.values, outcome.exact,
        outcome.seconds, outcome.detail,
    )
