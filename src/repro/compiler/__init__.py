"""Knowledge compilation: CNF/circuit -> d-DNNF (the c2d role)."""

from .knowledge import (
    BudgetExceeded,
    CompilationBudget,
    CompilationResult,
    CompilationStats,
    compile_circuit,
    compile_cnf,
)

__all__ = [
    "BudgetExceeded",
    "CompilationBudget",
    "CompilationResult",
    "CompilationStats",
    "compile_circuit",
    "compile_cnf",
]
