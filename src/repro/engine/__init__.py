"""Pluggable engine subsystem: every Shapley method behind one seam.

* :mod:`~repro.engine.base` — the :class:`Engine` interface,
  :class:`EngineOptions`, :class:`EngineResult`;
* :mod:`~repro.engine.registry` — ``get_engine(name)`` /
  ``register_engine`` / ``available_engines()``;
* :mod:`~repro.engine.adapters` — the paper's five methods as engines;
* :mod:`~repro.engine.cache` — the :class:`ArtifactCache` memoizing
  Tseytin CNFs and compiled d-DNNFs across isomorphic lineages;
* :mod:`~repro.engine.store` — the disk-backed
  :class:`PersistentArtifactStore`, the cache's second tier sharing
  canonical artifacts across processes and runs;
* :mod:`~repro.engine.scheduler` — pure planning logic: shape dedup,
  one representative per shape and the batch's distinct component
  compiles (:func:`plan_batch`);
* :mod:`~repro.engine.service` — the transport layer executing batch
  plans: in-process threads, a persistent process pool, and the socket
  coordinator/worker pair behind ``repro serve`` / ``repro worker``;
* :mod:`~repro.engine.session` — :class:`ExplainSession`, a thin
  context-managed facade binding a database, an engine, a cache, and a
  transport for batched :meth:`~ExplainSession.explain_many` calls.

See README.md ("Engine architecture" and "Running a shard service")
for the 30-second tour and the steps to register a new backend.
"""

from .base import (
    DEFAULT_OPTIONS,
    Engine,
    EngineOptions,
    EngineResult,
    derive_answer_seed,
)
from .cache import ArtifactCache, CacheStats, CircuitArtifacts
from .store import GcReport, PersistentArtifactStore, StoreEntry, StoreStats
from .registry import available_engines, get_engine, register_engine
from .scheduler import BatchPlan, Job, plan_batch
from .service import (
    Backoff,
    Coordinator,
    FaultPlan,
    FaultRule,
    FleetBusy,
    FleetUnavailable,
    InProcessTransport,
    ProcessPoolTransport,
    SocketTransport,
    Transport,
    TransportError,
    run_worker,
)
from .adapters import (
    CnfProxyEngine,
    ExactEngine,
    HybridEngine,
    KernelShapEngine,
    MonteCarloEngine,
)
from .session import ExplainSession

__all__ = [
    "DEFAULT_OPTIONS", "Engine", "EngineOptions", "EngineResult",
    "derive_answer_seed",
    "ArtifactCache", "CacheStats", "CircuitArtifacts",
    "PersistentArtifactStore", "StoreStats", "StoreEntry", "GcReport",
    "available_engines", "get_engine", "register_engine",
    "BatchPlan", "Job", "plan_batch",
    "Transport", "TransportError", "FleetBusy", "FleetUnavailable",
    "InProcessTransport",
    "ProcessPoolTransport", "SocketTransport", "Coordinator", "run_worker",
    "Backoff", "FaultPlan", "FaultRule",
    "CnfProxyEngine", "ExactEngine", "HybridEngine",
    "KernelShapEngine", "MonteCarloEngine",
    "ExplainSession",
]
