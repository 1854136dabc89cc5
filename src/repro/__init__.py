"""repro — Shapley values of database facts in query answering.

A from-scratch reproduction of:

    Daniel Deutch, Nave Frost, Benny Kimelfeld, Mikaël Monet.
    "Computing the Shapley Value of Facts in Query Answering",
    SIGMOD 2022 (arXiv:2112.08874).

The package contains the paper's contribution (:mod:`repro.core`) and
every substrate it relies on, reimplemented in pure Python:

* :mod:`repro.db` — an in-memory relational engine with semiring
  provenance (the ProvSQL role);
* :mod:`repro.circuits` — Boolean circuits, CNF, Tseytin, d-DNNF
  algorithms;
* :mod:`repro.compiler` — a top-down knowledge compiler (the c2d role);
* :mod:`repro.probdb` — tuple-independent probabilistic databases with
  naive, lifted, and intensional query evaluation;
* :mod:`repro.workloads` — TPC-H and IMDB/JOB-style data generators and
  the paper's query suites;
* :mod:`repro.bench` — the experiment harness reproducing every table
  and figure of the paper (driven by ``benchmarks/``).

Quick start
-----------
>>> from repro import attribute
>>> from repro.workloads.flights import flights_database, flights_query
>>> db = flights_database()
>>> result = attribute(db, flights_query(), answer=(), method="exact")
>>> result.top(3)
"""

from .core.attribution import Attribution, attribute
from .core.hybrid import HybridResult, hybrid_shapley
from .core.pipeline import ShapleyExplainer
from .engine import (
    ArtifactCache,
    EngineOptions,
    EngineResult,
    ExplainSession,
    PersistentArtifactStore,
    available_engines,
    get_engine,
    register_engine,
)

__version__ = "1.0.0"

__all__ = [
    "Attribution",
    "attribute",
    "HybridResult",
    "hybrid_shapley",
    "ShapleyExplainer",
    "ArtifactCache",
    "EngineOptions",
    "EngineResult",
    "ExplainSession",
    "PersistentArtifactStore",
    "available_engines",
    "get_engine",
    "register_engine",
    "__version__",
]
