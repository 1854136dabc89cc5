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
from .cnf_proxy import cnf_proxy_from_circuit, cnf_proxy_values
from .metrics import ranking
from .pipeline import ExactOutcome, run_exact

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
    method: str = "derivative",
    cache: "ArtifactCache | None" = None,
    artifacts: "CircuitArtifacts | None" = None,
) -> HybridResult:
    """Exact-within-timeout, else CNF Proxy (Section 6.3).

    ``timeout`` plays the role of the paper's configurable ``t``
    (default: the 2.5 s the paper justifies with Figure 8);
    ``max_nodes`` optionally caps compilation memory as well.  A shared
    ``cache`` serves both branches: a lineage shape compiled once makes
    later isomorphic answers exact even under a timeout they would
    otherwise blow, and the proxy fallback reuses the cached CNF.  A
    prebuilt ``artifacts`` handle (see :func:`~repro.core.pipeline.run_exact`)
    short-circuits re-canonicalization in both branches.
    """
    endo = list(endogenous_facts)
    start = time.perf_counter()
    budget = CompilationBudget(max_nodes=max_nodes, max_seconds=timeout)
    outcome = run_exact(
        circuit, endo, budget=budget, method=method,
        cache=cache, artifacts=artifacts,
    )
    elapsed = time.perf_counter() - start
    if outcome.ok and outcome.values is not None:
        return HybridResult("exact", outcome.values, outcome, elapsed)
    if artifacts is not None:
        proxy = cnf_proxy_values(artifacts.cnf(), endo)
    elif cache is not None:
        proxy = cnf_proxy_values(cache.cnf_for(circuit), endo)
    else:
        proxy = cnf_proxy_from_circuit(circuit, endo)
    elapsed = time.perf_counter() - start
    return HybridResult("proxy", proxy, outcome, elapsed)
