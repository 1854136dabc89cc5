"""The hybrid strategy of Section 6.3.

Run the exact pipeline under a timeout ``t`` (the paper recommends
2.5 s); if it finishes, return exact Shapley values, otherwise fall back
to CNF Proxy and return a *ranking* of the facts (with proxy scores,
clearly flagged as inexact).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Hashable

from ..circuits.circuit import Circuit
from ..compiler.knowledge import CompilationBudget
from .cnf_proxy import cnf_proxy_values
from .metrics import ranking
from .pipeline import ExactOutcome, open_artifacts, run_exact

if TYPE_CHECKING:  # pragma: no cover - engine imports this module
    from ..engine.cache import ArtifactCache, CircuitArtifacts


@dataclass
class HybridResult:
    """Outcome of the hybrid computation for one output tuple.

    ``kind`` is ``"exact"`` when Algorithm 1 finished within the
    timeout (``values`` are exact Shapley values) or ``"proxy"`` when it
    fell back to CNF Proxy (``values`` are proxy scores: trust the
    *order*, not the magnitudes).
    """

    kind: str
    values: dict[Hashable, Fraction]
    exact_outcome: ExactOutcome | None
    seconds: float

    def ranking(self) -> list[Hashable]:
        """Facts ordered by decreasing (exact or proxy) contribution."""
        return ranking(self.values)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


def hybrid_shapley(
    circuit: Circuit,
    endogenous_facts,
    timeout: float = 2.5,
    max_nodes: int | None = None,
    cache: "ArtifactCache | None" = None,
    artifacts: "CircuitArtifacts | None" = None,
) -> HybridResult:
    """Exact-within-timeout, else CNF Proxy (Section 6.3).

    ``timeout`` plays the role of the paper's configurable ``t``
    (default: the 2.5 s the paper justifies with Figure 8);
    ``max_nodes`` optionally caps compilation memory as well.  Both
    branches read one artifact handle
    (:func:`~repro.core.pipeline.open_artifacts`): the proxy fallback
    reads the CNF the exact branch already built.  A shared ``cache``
    makes a lineage shape compiled once exact for later isomorphic
    answers, even under a timeout they would otherwise blow; a prebuilt
    ``artifacts`` handle short-circuits re-canonicalization.
    """
    endo = list(endogenous_facts)
    start = time.perf_counter()
    budget = CompilationBudget(max_nodes=max_nodes, max_seconds=timeout)
    artifacts = open_artifacts(circuit, cache, artifacts)
    outcome = run_exact(circuit, endo, budget=budget, artifacts=artifacts)
    elapsed = time.perf_counter() - start
    if outcome.ok and outcome.values is not None:
        return HybridResult("exact", outcome.values, outcome, elapsed)
    proxy = cnf_proxy_values(artifacts.cnf(), endo)
    elapsed = time.perf_counter() - start
    return HybridResult("proxy", proxy, outcome, elapsed)
