"""The reference numeric kernel: schoolbook big-int arithmetic.

This is the kernel the machine-width tier is parity-tested against,
and the one Algorithm 1's interpreted pass and Equation 3 run on.  It
is deliberately plain Python — unbounded ints, nested loops with
zero-skipping — because exactness and auditability matter more here
than speed; the machine-width tier wins on large shapes, this one on
tiny ones (lineage counts are often single digits wide).
"""

from __future__ import annotations

from typing import Sequence

from .base import Kernel, register_kernel


class PythonKernel(Kernel):
    """Exact big-int reference backend (always available)."""

    name = "python"

    def poly_mul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        if len(a) < len(b):  # skip zeros of the shorter operand
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, bj in enumerate(b):
            if bj:
                for i, ai in enumerate(a):
                    if ai:
                        out[i + j] += ai * bj
        return out


register_kernel(PythonKernel, aliases=("exact", "bigint"))
