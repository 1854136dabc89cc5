"""The paper's contribution: Shapley values of facts in query answering."""

from .attribution import Attribution, attribute
from .causal_effect import causal_effects, responsibilities, responsibility
from .cnf_proxy import cnf_proxy_from_circuit, cnf_proxy_values, proxy_game
from .hybrid import HybridResult, hybrid_shapley
from .kernel_shap import kernel_shap_values
from .metrics import (
    kendall_tau,
    l1_error,
    l2_error,
    ndcg,
    precision_at_k,
    ranking,
    summarize,
)
from .monte_carlo import monte_carlo_shapley
from .naive import (
    game_from_circuit,
    game_from_query,
    shapley_naive,
    shapley_naive_permutations,
    shapley_naive_query,
)
from .pipeline import (
    ExactOutcome,
    ProvenanceStats,
    ShapleyExplainer,
    TupleExplanation,
    exact_shapley_of_circuit,
    run_exact,
    to_plan,
)
from .pqe_reduction import (
    count_slices,
    interpolate_coefficients,
    shapley_all_via_pqe,
    shapley_via_pqe,
)
from .shapley import (
    ShapleyTimeout,
    efficiency_gap,
    shapley_all_facts,
    shapley_coefficients,
    shapley_from_counts,
    shapley_of_fact,
)

__all__ = [
    "Attribution", "attribute",
    "causal_effects", "responsibilities", "responsibility",
    "cnf_proxy_from_circuit", "cnf_proxy_values", "proxy_game",
    "HybridResult", "hybrid_shapley",
    "kernel_shap_values",
    "kendall_tau", "l1_error", "l2_error", "ndcg", "precision_at_k",
    "ranking", "summarize",
    "monte_carlo_shapley",
    "game_from_circuit", "game_from_query", "shapley_naive",
    "shapley_naive_permutations", "shapley_naive_query",
    "ExactOutcome", "ProvenanceStats", "ShapleyExplainer",
    "TupleExplanation", "exact_shapley_of_circuit", "run_exact", "to_plan",
    "count_slices", "interpolate_coefficients", "shapley_all_via_pqe",
    "shapley_via_pqe",
    "ShapleyTimeout", "efficiency_gap", "shapley_all_facts",
    "shapley_coefficients", "shapley_from_counts", "shapley_of_fact",
]
