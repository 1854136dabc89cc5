"""Pluggable numeric kernels for the circuit-Shapley hot path.

* :mod:`~repro.core.numerics.base` — the :class:`Kernel` primitives
  (poly mul/add, binomial completion, the Equation-3 combination), the
  registry (``get_kernel`` / ``register_kernel`` /
  ``available_kernels``), and the cached ``shapley_coefficients``;
* :mod:`~repro.core.numerics.exact` — the big-int reference backend
  (``"python"``);
* :mod:`~repro.core.numerics.vector` — the vectorized NumPy backend
  over object-dtype arrays (``"numpy"``, optional dependency with
  graceful fallback);
* :mod:`~repro.core.numerics.fixed` — the machine-width tier: the
  overflow-guarded native ``"int64"`` kernel and the level-scheduled
  tape fast path (float64 / int64 / CRT residue planes, per-shape
  fallback to the exact object kernels);
* :mod:`~repro.core.numerics.tape` — :class:`GateTape`, the compiled
  flat instruction form of a d-DNNF executing the smoothing-free
  forward/backward sweeps, now carrying its level schedule and
  a-priori magnitude bounds; persisted by the engine layer as a third
  artifact kind (payload format v2, v1 re-lowered on load).

Sweeps read only a tape's instruction arrays, never its labels, so
:func:`~repro.core.shapley.shapley_all_facts_batched` runs one sweep
per distinct tape shape of an answer group and shares its difference
vectors across every answer of that shape.

``get_kernel("auto")`` walks the ladder int64 → numpy → python.  See
README.md ("Choosing a numeric backend") for selection guidance and
overflow semantics.
"""

from .base import (
    Kernel,
    available_kernels,
    binomial_row,
    coefficients_cache_info,
    get_kernel,
    register_kernel,
    shapley_coefficients,
)
from .exact import PythonKernel
from .vector import HAS_NUMPY, NumpyKernel
from .fixed import (
    FastpathStats,
    Int64Kernel,
    LevelPlan,
    fastpath_diffs,
    plan_for,
    plan_with_reason,
)
from .tape import (
    GateTape,
    NonDecomposableTape,
    TapeError,
    compile_tape,
)

__all__ = [
    "Kernel", "PythonKernel", "NumpyKernel", "Int64Kernel", "HAS_NUMPY",
    "available_kernels", "get_kernel", "register_kernel",
    "binomial_row", "shapley_coefficients", "coefficients_cache_info",
    "FastpathStats", "LevelPlan", "fastpath_diffs", "plan_for",
    "plan_with_reason",
    "GateTape", "TapeError", "NonDecomposableTape", "compile_tape",
]
