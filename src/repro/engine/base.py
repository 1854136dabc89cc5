"""The engine abstraction: one interface over every Shapley method.

An :class:`Engine` turns an endogenous-lineage circuit plus a player
list into an :class:`EngineResult`.  The five methods of the paper
(exact Algorithm 1, hybrid, CNF Proxy, Monte Carlo, Kernel SHAP) are
adapters over this interface (:mod:`repro.engine.adapters`), registered
by name in :mod:`repro.engine.registry` so that the CLI, the benchmark
harness, and the examples all dispatch with ``get_engine(name)`` instead
of per-file if/elif chains.  Future backends (external compilers,
sharded or remote execution) plug in the same way.
"""

from __future__ import annotations

import hashlib
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, ClassVar, Hashable, Sequence

from ..compiler.knowledge import CompilationBudget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..circuits.circuit import Circuit
    from .cache import ArtifactCache, CircuitArtifacts


def derive_answer_seed(seed: int, answer: tuple) -> int:
    """A stable per-answer RNG seed for the sampling engines.

    Derived from a cryptographic hash of ``(seed, answer)`` rather than
    the answer's position in some enumeration, so the same answer gets
    the same RNG stream whether it is explained alone, in a batch, in a
    reordered batch, or in a subset — and across processes (``repr`` of
    the plain-value answer tuples is independent of hash randomization).
    """
    digest = hashlib.sha256(f"{seed!r}|{answer!r}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class EngineOptions:
    """Knobs shared by every engine; each engine reads what it needs.

    ``budget`` takes precedence over ``timeout`` for the exact pipeline;
    when only ``timeout`` is set it doubles as the compilation budget
    (the paper's single ``t`` parameter).  ``cache`` is the shared
    :class:`~repro.engine.cache.ArtifactCache`, if any.

    ``artifacts`` optionally carries a prebuilt
    :class:`~repro.engine.cache.CircuitArtifacts` handle for the *same*
    circuit the engine is invoked on.  Callers that already
    canonicalized the circuit (e.g. the batched session, which groups
    answers by signature) thread the handle through so the
    canonicalization pass runs exactly once per answer; engines that
    compile read it in preference to re-opening ``cache``.
    """

    budget: CompilationBudget | None = None
    timeout: float | None = 2.5
    samples_per_fact: int = 20
    seed: int | None = None
    #: Worker threads for top-level component compilation inside
    #: :func:`~repro.compiler.knowledge.compile_cnf` (``None``/``1`` =
    #: serial).  Purely a wall-clock knob: stitching is deterministic,
    #: so the compiled circuit is byte-identical to the serial one.
    compile_jobs: int | None = None
    cache: "ArtifactCache | None" = field(default=None, repr=False)
    artifacts: "CircuitArtifacts | None" = field(default=None, repr=False)

    def compilation_budget(self) -> CompilationBudget | None:
        """The budget for knowledge compilation, deriving one from
        ``timeout`` when no explicit budget is given."""
        if self.budget is not None:
            return self.budget
        if self.timeout:
            return CompilationBudget(max_seconds=self.timeout)
        return None

    def hybrid_timeout(self) -> float | None:
        """The exact-attempt timeout of the hybrid strategy.

        Passed through verbatim so explicit values keep their direct
        :func:`~repro.core.hybrid.hybrid_shapley` semantics: ``0``
        skips the exact attempt (straight to the proxy fallback) and
        ``None`` attempts exactly without a time limit.  The paper's
        2.5 s is the field default.
        """
        if self.budget is not None and self.budget.max_seconds is not None:
            return self.budget.max_seconds
        return self.timeout

    def rng(self) -> random.Random:
        """A fresh RNG for the sampling engines."""
        return random.Random(self.seed)

    def with_(self, **changes) -> "EngineOptions":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


#: Default options used when a caller passes ``options=None``.
DEFAULT_OPTIONS = EngineOptions()


@dataclass
class EngineResult:
    """Outcome of one engine invocation on one lineage circuit.

    ``status`` is ``"ok"`` on success, ``"budget"`` / ``"timeout"`` when
    the exact pipeline exhausted its resources (the paper's OOM/timeout
    events; only the exact engine reports these — every other engine
    always answers).  ``exact`` tells whether ``values`` are true
    Shapley values (for the hybrid engine it depends on which branch
    answered).  ``detail`` carries the method-specific payload
    (:class:`~repro.core.pipeline.ExactOutcome`,
    :class:`~repro.core.hybrid.HybridResult`, ...).
    """

    method: str
    values: dict[Hashable, object] | None
    exact: bool
    status: str = "ok"
    seconds: float = 0.0
    detail: object = field(default=None, repr=False)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Engine(ABC):
    """A named strategy computing fact contributions from a lineage
    circuit.

    Subclasses set ``name`` (the registry key) and ``exact`` (whether a
    successful run yields true Shapley values) and implement
    :meth:`explain_circuit`.  Engines must be stateless: one shared
    instance is handed out by :func:`~repro.engine.registry.get_engine`
    and may be used from several threads at once by
    :class:`~repro.engine.session.ExplainSession`.
    """

    name: ClassVar[str]
    #: Whether a successful run returns exact Shapley values.
    exact: ClassVar[bool]
    #: Whether the engine reads :attr:`EngineOptions.cache`.  Sessions
    #: skip circuit deduplication for engines that never compile.
    uses_cache: ClassVar[bool] = False
    #: Whether :meth:`explain_batch` executes a same-shape answer group
    #: as one batched pass (sessions emit shape groups only for engines
    #: that do; the default implementation just loops).
    supports_batch: ClassVar[bool] = False

    @abstractmethod
    def explain_circuit(
        self,
        circuit: "Circuit",
        players: Sequence[Hashable],
        options: EngineOptions | None = None,
    ) -> EngineResult:
        """Compute contributions of ``players`` in ``circuit``."""

    def explain_batch(
        self,
        requests: Sequence[tuple["Circuit", Sequence[Hashable],
                                 EngineOptions | None]],
    ) -> list[EngineResult]:
        """Explain several circuits; one result per request, in order.

        The base implementation is a plain :meth:`explain_circuit`
        loop.  Engines with ``supports_batch`` override it to execute a
        *same-shape group* as one batched pass — results must stay
        byte-identical to the loop either way.
        """
        return [
            self.explain_circuit(circuit, players, options)
            for circuit, players, options in requests
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
