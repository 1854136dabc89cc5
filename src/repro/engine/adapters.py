"""The paper's five methods as registered engines.

Each adapter wraps the corresponding :mod:`repro.core` implementation
without changing its semantics; the exact, hybrid, and CNF-proxy
adapters compile through one artifact handle
(:func:`~repro.core.pipeline.open_artifacts`), served by the shared
:class:`~repro.engine.cache.ArtifactCache` when
:attr:`~repro.engine.base.EngineOptions.cache` is set.

Only ``repro.core`` *submodules* are imported here (never the package),
so the adapters can be imported while ``repro.core.__init__`` is still
initializing — attribution routes through this registry.
"""

from __future__ import annotations

import time
from typing import Hashable, Sequence

from ..circuits.circuit import Circuit
from ..core.cnf_proxy import cnf_proxy_values
from ..core.hybrid import hybrid_shapley
from ..core.kernel_shap import kernel_shap_values
from ..core.monte_carlo import monte_carlo_shapley
from ..core.pipeline import open_artifacts, run_exact_batch
from .base import DEFAULT_OPTIONS, Engine, EngineOptions, EngineResult
from .registry import register_engine


@register_engine
class ExactEngine(Engine):
    """Algorithm 1 over a compiled d-DNNF (the paper's Figure 3)."""

    name = "exact"
    exact = True
    uses_cache = True
    supports_batch = True

    def explain_circuit(
        self,
        circuit: Circuit,
        players: Sequence[Hashable],
        options: EngineOptions | None = None,
    ) -> EngineResult:
        return self.explain_batch([(circuit, players, options)])[0]

    def explain_batch(
        self,
        requests: Sequence[tuple[Circuit, Sequence[Hashable],
                                 EngineOptions | None]],
    ) -> list[EngineResult]:
        """One pass over a same-shape answer group (one answer is a
        group of one).

        Budget/timeout knobs come from the first request's
        options (sessions hand every member of a shape group the same
        options, cache included); per-answer artifacts handles are
        honoured individually.
        """
        if not requests:
            return []
        options = requests[0][2] or DEFAULT_OPTIONS
        start = time.perf_counter()
        outcomes = run_exact_batch(
            [request[0] for request in requests],
            [request[1] for request in requests],
            budget=options.compilation_budget(),
            cache=options.cache,
            artifacts_list=[
                (request[2] or DEFAULT_OPTIONS).artifacts
                for request in requests
            ],
        )
        seconds = (time.perf_counter() - start) / len(requests)
        return [
            EngineResult(
                self.name, outcome.values, outcome.ok, outcome.status,
                seconds, detail=outcome, error=outcome.error,
            )
            for outcome in outcomes
        ]


@register_engine
class HybridEngine(Engine):
    """Exact-within-timeout, CNF Proxy fallback (Section 6.3)."""

    name = "hybrid"
    exact = False  # per-result: EngineResult.exact reports which branch answered
    uses_cache = True

    def explain_circuit(
        self,
        circuit: Circuit,
        players: Sequence[Hashable],
        options: EngineOptions | None = None,
    ) -> EngineResult:
        options = options or DEFAULT_OPTIONS
        budget = options.budget
        result = hybrid_shapley(
            circuit,
            players,
            timeout=options.hybrid_timeout(),
            max_nodes=budget.max_nodes if budget is not None else None,
            cache=options.cache,
            artifacts=options.artifacts,
        )
        return EngineResult(
            self.name, result.values, result.is_exact, "ok",
            result.seconds, detail=result,
        )


@register_engine(aliases=("cnf_proxy",))
class CnfProxyEngine(Engine):
    """Algorithm 2: the clause-width proxy over the Tseytin CNF."""

    name = "proxy"
    exact = False
    uses_cache = True

    def explain_circuit(
        self,
        circuit: Circuit,
        players: Sequence[Hashable],
        options: EngineOptions | None = None,
    ) -> EngineResult:
        options = options or DEFAULT_OPTIONS
        start = time.perf_counter()
        artifacts = open_artifacts(circuit, options.cache, options.artifacts)
        values = cnf_proxy_values(artifacts.cnf(), players)
        seconds = time.perf_counter() - start
        return EngineResult(self.name, values, False, "ok", seconds)


@register_engine(aliases=("mc",))
class MonteCarloEngine(Engine):
    """Permutation sampling (Mann & Shapley), bit-parallel prefixes."""

    name = "monte_carlo"
    exact = False

    def explain_circuit(
        self,
        circuit: Circuit,
        players: Sequence[Hashable],
        options: EngineOptions | None = None,
    ) -> EngineResult:
        options = options or DEFAULT_OPTIONS
        start = time.perf_counter()
        values = monte_carlo_shapley(
            circuit,
            players,
            samples_per_fact=options.samples_per_fact,
            rng=options.rng(),
        )
        seconds = time.perf_counter() - start
        return EngineResult(self.name, values, False, "ok", seconds)


@register_engine
class KernelShapEngine(Engine):
    """Kernel SHAP: weighted linear regression on sampled coalitions."""

    name = "kernel_shap"
    exact = False

    def explain_circuit(
        self,
        circuit: Circuit,
        players: Sequence[Hashable],
        options: EngineOptions | None = None,
    ) -> EngineResult:
        options = options or DEFAULT_OPTIONS
        start = time.perf_counter()
        values = kernel_shap_values(
            circuit,
            players,
            samples_per_fact=options.samples_per_fact,
            rng=options.rng(),
        )
        seconds = time.perf_counter() - start
        return EngineResult(self.name, values, False, "ok", seconds)
