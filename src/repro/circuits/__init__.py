"""Boolean circuit substrate: circuits, CNF, Tseytin, d-DNNF algorithms."""

from .circuit import Circuit, CircuitError, GateKind, circuit_from_nested
from .cnf import Cnf, CnfError
from .dnnf import (
    NotDecomposableError,
    NotDeterministicError,
    check_decision_form,
    check_decomposable,
    check_deterministic_exhaustive,
    complete_counts,
    count_models_by_size,
    eliminate_auxiliary,
    enumerate_models,
    from_nnf_text,
    model_count,
    probability,
    to_nnf_text,
    weighted_model_count,
)
from .tseytin import tseytin_transform

__all__ = [
    "Circuit",
    "CircuitError",
    "GateKind",
    "circuit_from_nested",
    "Cnf",
    "CnfError",
    "NotDecomposableError",
    "NotDeterministicError",
    "check_decision_form",
    "check_decomposable",
    "check_deterministic_exhaustive",
    "complete_counts",
    "count_models_by_size",
    "eliminate_auxiliary",
    "enumerate_models",
    "from_nnf_text",
    "model_count",
    "probability",
    "to_nnf_text",
    "weighted_model_count",
    "tseytin_transform",
]
