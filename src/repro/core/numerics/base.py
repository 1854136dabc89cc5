"""The numeric-kernel seam of the exact Shapley engine.

Everything Algorithm 1 does after knowledge compilation is arithmetic
over size-indexed count vectors: polynomial multiplication (AND gates),
shifted additions (OR gates), binomial completion over free variables
(smoothing gaps and facts outside the circuit), and the Equation-3
combination of conditioned counts into a Shapley value.
:class:`Kernel` bundles those primitives, and its one shared instance
:data:`KERNEL` serves the traversal code
(:mod:`repro.core.numerics.tape`, :mod:`repro.core.shapley`).

The kernel is the exact big-int reference: the interpreted pass of
Algorithm 1 and the oracle every faster path is tested against.  It is
deliberately plain Python (unbounded ints, nested loops with
zero-skipping) because exactness and auditability matter more here
than speed.  The faster path is not a kernel: the machine-width tier
(:mod:`~repro.core.numerics.fixed`) runs whole sweeps in float64,
int64 or CRT residue planes, chosen per shape, and falls back to the
interpreted pass on this kernel.  Every result is an exact
:class:`~fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence


@lru_cache(maxsize=256)
def binomial_row(n: int) -> tuple[int, ...]:
    """``[C(n, 0), ..., C(n, n)]`` — Pascal row, cached across calls."""
    if n < 0:
        raise ValueError("binomial_row needs n >= 0")
    row = [1] * (n + 1)
    for k in range(1, n + 1):
        row[k] = row[k - 1] * (n - k + 1) // k
    return tuple(row)


@lru_cache(maxsize=128)
def _coefficients(n: int) -> tuple[Fraction, ...]:
    """Cached permutation weights ``k!(n-k-1)!/n!`` for ``k = 0..n-1``.

    Computed by the incremental recurrence ``w[k] = w[k-1] * k/(n-k)``
    from ``w[0] = 1/n`` instead of three factorials per ``k``; one
    batch's answers (which share ``n`` whenever they share a player
    count) therefore pay the product chain once.

    The cache is deliberately small: each entry holds ``n`` Fractions
    whose numerators/denominators grow with ``n!``, so an effectively
    unbounded cache in a long-lived coordinator process is a slow leak.
    128 distinct player counts cover any realistic working set;
    :func:`coefficients_cache_info` exposes the hit rate and size so
    ``session.stats`` can prove it.
    """
    if n <= 0:
        return ()
    weights = [Fraction(1, n)]
    for k in range(1, n):
        weights.append(weights[-1] * Fraction(k, n - k))
    return tuple(weights)


def shapley_coefficients(n: int) -> list[Fraction]:
    """The permutation weights ``k!(n-k-1)!/n!`` for ``k = 0..n-1``."""
    return list(_coefficients(n))


def coefficients_cache_info() -> dict[str, int]:
    """Hit/size counters of the bounded Equation-3 weight caches
    (merged into ``ExplainSession.stats``).

    Sums the Fraction-coefficient cache (``shapley_coefficients``) and
    the integer-weight cache the kernel's :meth:`Kernel.equation3`
    combination runs on — two representations of the same per-``n``
    permutation weights, both bounded at 128 player counts.
    """
    fraction_info = _coefficients.cache_info()
    integer_info = _integer_weights.cache_info()
    return {
        "shapley_coefficients_cache_hits":
            fraction_info.hits + integer_info.hits,
        "shapley_coefficients_cache_misses":
            fraction_info.misses + integer_info.misses,
        "shapley_coefficients_cache_size":
            fraction_info.currsize + integer_info.currsize,
        "shapley_coefficients_cache_maxsize":
            fraction_info.maxsize + integer_info.maxsize,
    }


@lru_cache(maxsize=128)
def _integer_weights(n: int) -> tuple[tuple[int, ...], int]:
    """``([k!(n-k-1)! for k = 0..n-1], n!)`` — the Equation-3 weights
    over their common denominator.

    Summing ``weight[k] * diff[k]`` in exact integer arithmetic and
    normalizing *once* replaces ``n`` Fraction additions (each a gcd)
    per fact with one, which is where the combination stage's time
    went.  ``Fraction(total, n!)`` canonicalizes to exactly the value
    the termwise Fraction sum produces.
    """
    if n <= 0:
        return (), 1
    weights = [1] * n  # w[k] = k! (n-k-1)!
    acc = 1
    for k in range(1, n):
        acc *= k
        weights[k] *= acc           # k!
        weights[n - 1 - k] *= acc   # (n-k-1)! at index n-1-k
    return tuple(weights), acc * n  # acc holds (n-1)! after the loop


class Kernel:
    """Exact numeric primitives of the size-generating-polynomial pass.

    Count vectors are plain Python lists of ints (``counts[k]`` =
    number of objects of size ``k``).  The class is stateless and
    thread-safe: every caller shares the one instance :data:`KERNEL`.
    """

    def poly_mul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Polynomial (convolution) product of two count vectors."""
        if len(a) < len(b):  # skip zeros of the shorter operand
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, bj in enumerate(b):
            if bj:
                for i, ai in enumerate(a):
                    if ai:
                        out[i + j] += ai * bj
        return out

    def poly_add(
        self, acc: list[int] | None, poly: Sequence[int]
    ) -> list[int]:
        """``acc + poly`` elementwise, extending ``acc`` as needed.

        ``acc is None`` starts a fresh accumulator.  The returned list
        may alias ``acc`` (in-place accumulation is allowed).
        """
        if acc is None:
            return list(poly)
        if len(acc) < len(poly):
            acc.extend([0] * (len(poly) - len(acc)))
        for i, p in enumerate(poly):
            if p:
                acc[i] += p
        return acc

    def complete(self, counts: Sequence[int], extra: int) -> list[int]:
        """Binomial completion over ``extra`` additional free variables:
        ``out[k] = sum_i counts[i] * C(extra, k - i)`` (line 1 of
        Algorithm 1, realized as a convolution with a Pascal row)."""
        if extra < 0:
            raise ValueError("extra must be non-negative")
        if extra == 0:
            return list(counts)
        return self.poly_mul(counts, binomial_row(extra))

    def or_accumulate(
        self,
        nvars: int,
        child_vals: Sequence[Sequence[int]],
        gaps: Sequence[int],
    ) -> list[int]:
        """Deterministic-OR combination without smoothing.

        ``child_vals[i]`` counts the *i*-th child's models over its own
        variable set; ``gaps[i]`` is the number of gate variables the
        child does not mention.  Each child contributes its counts
        completed over its gap (the binomial factors a smoothed circuit
        would realize as explicit ``(x v -x)`` padding gates); the
        result has length ``nvars + 1``.
        """
        acc = [0] * (nvars + 1)
        for vals, gap in zip(child_vals, gaps):
            completed = vals if gap == 0 else self.complete(vals, gap)
            for k, count in enumerate(completed):
                if count:
                    acc[k] += count
        return acc

    def equation3(
        self,
        counts_pos: Sequence[int],
        counts_neg: Sequence[int] | None,
        n: int,
    ) -> Fraction:
        """Combine conditioned counts into a Shapley value (Equation 3):
        ``sum_k k!(n-k-1)!/n! * (counts_pos[k] - counts_neg[k])``.

        This is the *single* implementation both
        :func:`~repro.core.shapley.shapley_from_counts` and the
        derivative passes delegate to.  ``counts_neg=None`` means
        ``counts_pos`` is already the difference vector.  Bounds are
        normalized here, once: vectors shorter than ``n`` are
        zero-padded, entries at ``k >= n`` (which a caller could only
        produce by over-completing) are ignored.

        The sum runs over the coefficients' common denominator ``n!``
        (integer weights ``k!(n-k-1)!``), paying one Fraction
        normalization per call instead of one gcd per term; the
        canonical result is identical to the termwise Fraction sum.
        """
        weights, denominator = _integer_weights(n)
        total = 0
        if counts_neg is None:
            for k in range(min(n, len(counts_pos))):
                diff = counts_pos[k]
                if diff:
                    total += weights[k] * diff
        else:
            for k in range(min(n, max(len(counts_pos), len(counts_neg)))):
                pos = counts_pos[k] if k < len(counts_pos) else 0
                neg = counts_neg[k] if k < len(counts_neg) else 0
                if pos != neg:
                    total += weights[k] * (pos - neg)
        if isinstance(total, int):
            return Fraction(total, denominator)
        return total / denominator  # exact: non-int count elements


#: The shared instance every sweep and combine runs on.
KERNEL = Kernel()
