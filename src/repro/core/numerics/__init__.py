"""Numerics of the circuit-Shapley hot path.

* :mod:`~repro.core.numerics.base` — the :class:`Kernel` primitives
  (poly mul/add, binomial completion, the Equation-3 combination), the
  registry (``get_kernel`` / ``register_kernel`` /
  ``available_kernels``), and the cached ``shapley_coefficients``;
* :mod:`~repro.core.numerics.exact` — the big-int reference kernel
  (``"python"``): the interpreted pass and the oracle;
* :mod:`~repro.core.numerics.fixed` — the machine-width tier, the
  default path of Algorithm 1: level-scheduled tape execution in
  float64, int64, or CRT residue planes run one prime at a time over
  int32 buffers, chosen per shape from a-priori bounds (NumPy
  optional; without it every shape runs the interpreted pass);
* :mod:`~repro.core.numerics.tape` — :class:`GateTape`, the compiled
  flat instruction form of a d-DNNF executing the smoothing-free
  forward/backward sweeps, carrying its level schedule and a-priori
  magnitude bounds; persisted by the engine layer as a third artifact
  kind (payload format v2, v1 re-lowered on load).

Sweeps read only a tape's instruction arrays, never its labels, so
:func:`~repro.core.shapley.shapley_all_facts_batched` runs one sweep
per distinct tape shape of an answer group and shares its difference
vectors across every answer of that shape.  See README.md ("Arithmetic
tiers").
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
from .fixed import (
    HAS_NUMPY,
    FastpathStats,
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
    "Kernel", "PythonKernel", "HAS_NUMPY",
    "available_kernels", "get_kernel", "register_kernel",
    "binomial_row", "shapley_coefficients", "coefficients_cache_info",
    "FastpathStats", "LevelPlan", "fastpath_diffs", "plan_for",
    "plan_with_reason",
    "GateTape", "TapeError", "NonDecomposableTape", "compile_tape",
]
