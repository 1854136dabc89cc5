"""The machine-width execution tier: overflow-guarded int64/float64
kernels and level-scheduled tape execution.

The object-dtype NumPy backend (:mod:`~repro.core.numerics.vector`)
keeps Algorithm 1 exact by keeping Python big ints as array elements —
which means every multiply is still a Python-level operation and every
gate still a Python-level dispatch.  This module makes the warm,
post-compilation hot path *machine-cheap* instead, without ever giving
up exactness:

Per-call guarded kernel (``"int64"``)
    :class:`Int64Kernel` implements the generic :class:`~.base.Kernel`
    protocol over native ``int64`` arrays.  Every call first derives an
    a-priori product bound from its operands; if the result provably
    fits, the convolution/accumulation runs in native dtype, otherwise
    the call transparently delegates to the exact object/python kernels.
    Selection is per call, so mixed workloads (tiny lineages next to
    2^100-model monsters, ``Fraction`` expectation sums from the
    SHAP-score path) always get exact answers.

Level-scheduled tape execution
    :func:`fastpath_diffs` runs the smoothing-free forward/backward
    sweeps of a :class:`~.tape.GateTape` as a handful of whole-level
    array operations: the tape's instructions are grouped into
    topological levels (:meth:`~.tape.GateTape.level_schedule`), wide
    ANDs are decomposed into balanced binary trees, and each level's
    convolutions become one batched ``matmul`` over sliding-window
    views of a contiguous ``(planes, slots, width)`` SoA value buffer
    (OR gap completions are banded-matrix products).  Arithmetic is
    selected per *shape* from the tape's exact magnitude bounds
    (:meth:`~.tape.GateTape.bound_bits`):

    * ``float64`` when every bound fits 52 bits (integers below 2^53
      are exact in IEEE-754 doubles, and the matmuls hit BLAS);
    * ``int64`` when every bound fits 62 bits;
    * CRT residue planes otherwise — the same schedule evaluated
      modulo 2-5 machine-word primes with the exact integers recovered
      by the Chinese Remainder Theorem (sound because the a-priori
      bounds certify the values fit the prime product);
    * beyond CRT capacity the shape *falls back* to the interpreted
      per-gate pass over the exact object/python kernels.

    Either way the returned difference vectors — and therefore the
    final :class:`~fractions.Fraction` Shapley values — are
    byte-identical to the reference kernel's (asserted by the parity
    suite).  Runtime sentinels re-check the native tiers' magnitudes
    after each sweep as defense in depth; a tripped sentinel discards
    the run and falls back rather than trusting it.

NumPy is optional: without it the ``"int64"`` kernel registers but
resolves to the reference backend (same graceful-degradation contract
as ``"numpy"``), and the fast path reports itself unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .base import Kernel, binomial_row, register_kernel
from .exact import PythonKernel
from .tape import (
    OP_AND, OP_FALSE, OP_NOT, OP_NVAR, OP_OR, OP_TRUE, OP_VAR,
    GateTape,
)
from .vector import HAS_NUMPY, NumpyKernel

if HAS_NUMPY:  # pragma: no branch - module-level optional import
    import numpy as _np
    from numpy.lib.stride_tricks import sliding_window_view as _windows
else:  # pragma: no cover - exercised by the without-NumPy CI tier
    _np = None
    _windows = None

#: Magnitude budgets of the native tiers, in bits.  float64 keeps
#: integer arithmetic exact strictly below 2^53; int64 wraps at 2^63.
#: One bit of headroom each guards the sentinel comparisons themselves.
FLOAT64_BITS = 52
INT64_BITS = 62

#: CRT residue primes by bit width.  A plane's products must accumulate
#: without wrapping int64: with operands reduced below a ``b``-bit
#: prime, a length-``W`` convolution/matmul row sums ``W`` products of
#: at most ``2^(2b)``, so ``b``-bit primes are safe while
#: ``W * 2^(2b) < 2^63``.  Wider vectors step down to smaller primes.
#: (All values verified prime; largest primes below each power of two.)
_PRIME_TABLE = {
    28: (268435399, 268435367, 268435361, 268435337, 268435331),
    27: (134217689, 134217649, 134217617, 134217613, 134217593),
    26: (67108859, 67108837, 67108819, 67108777, 67108763),
    25: (33554393, 33554383, 33554371, 33554347, 33554341),
}

#: The maximum number of residue planes a shape may request; beyond
#: this the fast path declines and the interpreted exact pass runs.
MAX_PLANES = 5

#: Ceiling on ``planes * slots * width`` of one value buffer (8M int64
#: elements = 64 MiB).  Giant compiled shapes decline the fast path
#: rather than risk swapping a serving process — the interpreted pass
#: streams per gate and has no such footprint.
MAX_BUFFER_ELEMENTS = 1 << 23


@dataclass
class FastpathStats:
    """Counts of machine-width hits and per-shape fallbacks.

    One instance travels through a single exact computation; the engine
    layer merges the counts into its cache stats so sessions and remote
    workers report ``fastpath_hits`` / ``fastpath_fallbacks``.

    ``fallbacks`` is the total; the per-reason counters split it:
    ``overflow`` (a runtime sentinel tripped mid-execution),
    ``ineligible`` (the shape's magnitude bounds or structure rule the
    fast path out a priori), and ``budget`` (the SoA value buffers
    would exceed :data:`MAX_BUFFER_ELEMENTS`).  ``tier`` names the
    arithmetic tier of the most recent hit (``None`` until one).
    """

    hits: int = 0
    fallbacks: int = 0
    overflow: int = 0
    ineligible: int = 0
    budget: int = 0
    tier: str | None = None

    def count_fallback(self, reason: str, n: int = 1) -> None:
        """Record ``n`` fallbacks attributed to ``reason`` (one of
        ``"overflow"`` / ``"ineligible"`` / ``"budget"``)."""
        self.fallbacks += n
        if reason == "overflow":
            self.overflow += n
        elif reason == "budget":
            self.budget += n
        else:
            self.ineligible += n


# ----------------------------------------------------------------------
# Per-call guarded kernel
# ----------------------------------------------------------------------

def _int_magnitude(values: Sequence) -> int | None:
    """Largest absolute value if every element is a plain ``int``,
    ``None`` otherwise (Fractions, bools, and anything else must take
    the exact delegate path)."""
    bound = 0
    for value in values:
        if type(value) is not int:
            return None
        if value < 0:
            value = -value
        if value > bound:
            bound = value
    return bound


class Int64Kernel(Kernel):
    """Overflow-guarded native-``int64`` backend (optional dependency).

    Exactness contract: identical to the reference kernel on every
    input.  Each primitive proves, from its operands alone, that the
    result and all intermediate accumulations fit ``int64``; calls that
    cannot be proven safe delegate to the object-dtype NumPy kernel
    (or the reference kernel without NumPy).
    """

    name = "int64"

    def __init__(self) -> None:
        self._delegate = NumpyKernel() if HAS_NUMPY else PythonKernel()

    def poly_mul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        if not HAS_NUMPY or min(len(a), len(b)) < 2:
            return self._delegate.poly_mul(a, b)
        bound_a = _int_magnitude(a)
        bound_b = _int_magnitude(b)
        if (
            bound_a is None or bound_b is None
            or bound_a * bound_b * min(len(a), len(b)) >> INT64_BITS
        ):
            return self._delegate.poly_mul(a, b)
        product = _np.convolve(
            _np.array(a, dtype=_np.int64), _np.array(b, dtype=_np.int64)
        )
        return product.tolist()

    def poly_add(
        self, acc: list[int] | None, poly: Sequence[int]
    ) -> list[int]:
        if not HAS_NUMPY or acc is None or len(poly) < 16:
            return super().poly_add(acc, poly)
        bound_acc = _int_magnitude(acc)
        bound_poly = _int_magnitude(poly)
        if (
            bound_acc is None or bound_poly is None
            or (bound_acc + bound_poly) >> INT64_BITS
        ):
            return super().poly_add(acc, poly)
        if len(acc) < len(poly):
            acc.extend([0] * (len(poly) - len(acc)))
        head = _np.array(acc[: len(poly)], dtype=_np.int64)
        head += _np.array(poly, dtype=_np.int64)
        acc[: len(poly)] = head.tolist()
        return acc

    def or_accumulate(
        self,
        nvars: int,
        child_vals: Sequence[Sequence[int]],
        gaps: Sequence[int],
    ) -> list[int]:
        if not HAS_NUMPY or nvars < 2:
            return self._delegate.or_accumulate(nvars, child_vals, gaps)
        # Bound the accumulated result: each child contributes its own
        # magnitude times its largest completion binomial, summed.
        total = 0
        for vals, gap in zip(child_vals, gaps):
            bound = _int_magnitude(vals)
            if bound is None:
                total = None
                break
            width = min(len(vals), gap + 1)
            total += bound * binomial_row(gap)[gap // 2] * max(width, 1)
        if total is None or total >> INT64_BITS:
            return self._delegate.or_accumulate(nvars, child_vals, gaps)
        acc = _np.zeros(nvars + 1, dtype=_np.int64)
        for vals, gap in zip(child_vals, gaps):
            arr = _np.array(vals, dtype=_np.int64)
            if gap:
                arr = _np.convolve(
                    arr, _np.array(binomial_row(gap), dtype=_np.int64)
                )
            acc[: len(arr)] += arr
        return acc.tolist()


register_kernel(Int64Kernel, aliases=("fixed",))


# ----------------------------------------------------------------------
# Level-scheduled execution
# ----------------------------------------------------------------------

class _Ineligible(Exception):
    """Internal: this shape cannot take the machine-width fast path.

    ``reason`` attributes the refusal for the per-reason fallback
    counters: ``"ineligible"`` (magnitude bounds / structure) or
    ``"budget"`` (SoA buffers exceed :data:`MAX_BUFFER_ELEMENTS`).
    """

    def __init__(self, message: str, reason: str = "ineligible") -> None:
        super().__init__(message)
        self.reason = reason


def _select_arithmetic(bits: int, width: int) -> tuple[Any, tuple[int, ...] | None]:
    """Pick the cheapest sound arithmetic for a shape whose magnitudes
    fit ``bits`` bits and whose vectors are ``width`` long.

    Returns ``(dtype, moduli)`` — ``moduli`` is ``None`` for the native
    tiers and the CRT prime tuple otherwise.  Raises :class:`_Ineligible`
    when even the largest prime set cannot certify the bounds.
    """
    if bits <= FLOAT64_BITS:
        return _np.float64, None
    if bits <= INT64_BITS:
        return _np.int64, None
    for prime_bits in sorted(_PRIME_TABLE, reverse=True):
        primes = _PRIME_TABLE[prime_bits]
        if width * primes[0] * primes[0] < (1 << 63):
            capacity = 1
            chosen = []
            for prime in primes[:MAX_PLANES]:
                chosen.append(prime)
                capacity *= prime
                # Sign recovery needs 2 * bound < product of primes.
                if capacity >> (bits + 1):
                    return _np.int64, tuple(chosen)
            raise _Ineligible(f"bounds of {bits} bits exceed CRT capacity")
    raise _Ineligible(f"vectors of width {width} exceed CRT plane safety")


class LevelPlan:
    """One tape shape compiled to whole-level array operations.

    Construction groups the tape's instructions into topological levels,
    decomposes wide ANDs into balanced binary trees over auxiliary
    partial-product slots, drops OR edges from unsatisfiable children,
    and precomputes per-level gather/scatter index arrays plus the
    arithmetic tier.  Execution then touches only NumPy: a contiguous
    ``(planes, slots, width)`` value buffer, one batched sliding-window
    ``matmul`` per level of AND convolutions (both sweeps), and one
    banded-matrix product per distinct OR gap per level.

    Plans are label-agnostic and cached on the tape's shared analysis
    box, so isomorphic warm hits across a session build the plan once.
    """

    def __init__(self, tape: GateTape) -> None:
        if not HAS_NUMPY:
            raise _Ineligible("NumPy is not available")
        ops = tape.ops
        if any(op == OP_NOT for op in ops):
            # The derivative pass requires NNF; the interpreted pass
            # owns the error message.
            raise _Ineligible("tape contains general negation")
        self.n_instructions = len(ops)
        self.width = tape.root_nvars + 1
        forward_bounds = tape.forward_bounds()
        slot_nvars = list(tape.nvars)

        # --- binarize wide ANDs over auxiliary slots -----------------
        # ``one_slot`` holds the constant polynomial 1: unary (and
        # empty) ANDs reduce to it, which keeps every AND strictly
        # binary.  Scheduling keys extend the tape's serialized level
        # schedule: original instructions keep ``(level, 0)`` and each
        # binarization round within a gate adds a sub-level, so a v2
        # payload's levels are consumed as-is.
        tape_levels = tape.level_schedule()
        and_nodes: list[tuple[int, int, int]] = []   # (out, left, right)
        or_edges: list[tuple[int, int, int]] = []    # (parent, child, gap)
        slot_keys: list[tuple[int, int]] = [
            (level, 0) for level in tape_levels]

        def new_aux(nv: int, key: tuple[int, int]) -> int:
            slot_nvars.append(nv)
            slot_keys.append(key)
            return len(slot_nvars) - 1

        self.one_slot = new_aux(0, (0, 0))
        constant_one_rows: list[int] = []
        for i, op in enumerate(ops):
            if op == OP_AND:
                expected = sum(slot_nvars[c] for c in tape.args[i])
                if expected != tape.nvars[i]:
                    raise _Ineligible("AND children variable sets overlap")
                work = sorted(tape.args[i], key=lambda c: slot_nvars[c])
                if not work:
                    constant_one_rows.append(i)  # empty product: [1]
                    continue
                if len(work) == 1:
                    and_nodes.append((i, work[0], self.one_slot))
                    continue
                gate_level = tape_levels[i]
                rounds = 0
                while len(work) > 2:
                    rounds += 1
                    paired = []
                    for j in range(0, len(work) - 1, 2):
                        a, b = work[j], work[j + 1]
                        aux = new_aux(
                            slot_nvars[a] + slot_nvars[b],
                            (gate_level, rounds),
                        )
                        and_nodes.append((aux, a, b))
                        paired.append(aux)
                    if len(work) % 2:
                        paired.append(work[-1])
                    work = paired
                if rounds:
                    slot_keys[i] = (gate_level, rounds + 1)
                left, right = work
                if slot_nvars[left] > slot_nvars[right]:
                    left, right = right, left
                and_nodes.append((i, left, right))
            elif op == OP_OR:
                for child, gap in zip(tape.args[i], tape.gaps[i]):
                    if forward_bounds[child] == 0:
                        continue  # unsatisfiable child: contributes zeros
                    or_edges.append((i, child, gap))
        self.n_slots = len(slot_nvars)

        # --- compact the schedule keys into execution levels ---------
        # The keys give a valid topological *order* (children sort
        # strictly before parents); one linear pass over it computes
        # minimal longest-path levels, so independent work from
        # different gates and tape levels shares an execution level
        # (fewer, fatter whole-level array ops).
        children: list[tuple[int, ...]] = [()] * self.n_slots
        for out, left, right in and_nodes:
            children[out] = (left, right)
        for parent, child, _ in or_edges:
            children[parent] += (child,)
        level = [0] * self.n_slots
        for slot in sorted(range(self.n_slots), key=slot_keys.__getitem__):
            deps = children[slot]
            if deps:
                level[slot] = 1 + max(level[dep] for dep in deps)
        self.n_levels = max(level) + 1

        # --- leaf initialisation indices -----------------------------
        intp = _np.intp
        self.var_rows = _np.array(
            [i for i, op in enumerate(ops) if op == OP_VAR], dtype=intp)
        self.nvar_rows = _np.array(
            [i for i, op in enumerate(ops) if op == OP_NVAR], dtype=intp)
        self.true_rows = _np.array(
            [i for i, op in enumerate(ops) if op == OP_TRUE]
            + constant_one_rows + [self.one_slot],
            dtype=intp)
        self.n_var_slots = len(tape.var_labels)

        # --- per-level operation groups ------------------------------
        width = self.width
        by_level_and: list[list[tuple[int, int, int]]] = [
            [] for _ in range(self.n_levels)]
        by_level_or: list[dict[int, list[tuple[int, int]]]] = [
            {} for _ in range(self.n_levels)]
        for out, left, right in and_nodes:
            by_level_and[level[out]].append((out, left, right))
        for parent, child, gap in or_edges:
            by_level_or[level[parent]].setdefault(gap, []).append(
                (parent, child))

        def index(rows: Sequence[int]) -> Any:
            return _np.array(rows, dtype=intp)

        def scatter(rows: Sequence[int]) -> tuple:
            """A precompiled scatter-add plan for target ``rows``:
            ``(targets, None)`` when they are distinct (fancy ``+=``
            suffices), else ``(unique_targets, order, starts)`` for a
            sort + ``add.reduceat`` + fancy ``+=`` (ufunc.at is an
            order of magnitude slower than either)."""
            arr = index(rows)
            if len(set(rows)) == len(rows):
                return (arr, None)
            order = _np.argsort(arr, kind="stable")
            sorted_targets = arr[order]
            firsts = _np.ones(len(rows), dtype=bool)
            firsts[1:] = sorted_targets[1:] != sorted_targets[:-1]
            starts = _np.flatnonzero(firsts)
            return (sorted_targets[starts], order, starts)

        self.and_groups: list[tuple | None] = []
        for lv in range(self.n_levels):
            group = by_level_and[lv]
            if not group:
                self.and_groups.append(None)
                continue
            out = [g[0] for g in group]
            left = [g[1] for g in group]
            right = [g[2] for g in group]
            max_left = min(max(slot_nvars[s] + 1 for s in left), width)
            max_right = min(max(slot_nvars[s] + 1 for s in right), width)
            max_der = min(max(width - slot_nvars[s] for s in out), width)
            self.and_groups.append((
                index(out), index(left), index(right),
                max_left, max_right, max_der,
                scatter(left), scatter(right),
            ))
        self.or_groups: list[list[tuple]] = []
        for lv in range(self.n_levels):
            groups = []
            for gap, edges in sorted(by_level_or[lv].items()):
                parents = [e[0] for e in edges]
                children = [e[1] for e in edges]
                groups.append((
                    gap, index(parents), index(children),
                    scatter(parents), scatter(children),
                ))
            self.or_groups.append(groups)
        self.scatter_levels = [
            _np.unique(_np.concatenate(
                [grp[1] for grp in self.or_groups[lv]]))
            if self.or_groups[lv] else None
            for lv in range(self.n_levels)
        ]
        self.var_scatter = scatter(
            [tape.args[i][0] for i in self.var_rows])
        self.nvar_scatter = scatter(
            [tape.args[i][0] for i in self.nvar_rows])

        # --- arithmetic tier -----------------------------------------
        forward_bits, backward_bits, diff_bits = tape.bound_bits()
        self.bound_bits = max(forward_bits, backward_bits, diff_bits)
        self.dtype, self.moduli = _select_arithmetic(self.bound_bits, width)
        if self.n_planes * self.n_slots * width > MAX_BUFFER_ELEMENTS:
            raise _Ineligible(
                "value buffers exceed MAX_BUFFER_ELEMENTS", reason="budget")
        self._gap_matrices: dict[tuple, object] = {}

    # -- execution helpers ---------------------------------------------

    @property
    def n_planes(self) -> int:
        return len(self.moduli) if self.moduli else 1

    @property
    def tier_name(self) -> str:
        """The arithmetic tier this shape runs in: ``"float64"``,
        ``"int64"``, or ``"crt"``."""
        if self.moduli:
            return "crt"
        if self.dtype == _np.float64:
            return "float64"
        return "int64"

    def _moduli_column(self) -> Any:
        if self.moduli is None:
            return None
        return _np.array(self.moduli, dtype=_np.int64)[:, None, None]

    def _gap_matrix(self, gap: int, plane: int) -> Any:
        """The banded completion matrix ``M[i, i+j] = C(gap, j)`` (one
        per residue plane in CRT mode), cached on the plan."""
        modulus = self.moduli[plane] if self.moduli else None
        key = (gap, modulus)
        matrix = self._gap_matrices.get(key)
        if matrix is None:
            row = binomial_row(gap)
            width = self.width
            matrix = _np.zeros((width, width), dtype=self.dtype)
            for i in range(width):
                for j in range(min(len(row), width - i)):
                    entry = row[j] if modulus is None else row[j] % modulus
                    matrix[i, i + j] = entry
            self._gap_matrices[key] = matrix
        return matrix

    @staticmethod
    def _scatter_add(buffer: Any, plan: tuple, contribution: Any) -> None:
        """``buffer[:, targets] += contribution`` under a scatter plan
        from ``__init__``: plain fancy add for distinct targets, sort +
        ``add.reduceat`` for duplicated ones."""
        if plan[1] is None:
            buffer[:, plan[0]] += contribution
            return
        targets, order, starts = plan
        reduced = _np.add.reduceat(contribution[:, order], starts, axis=1)
        buffer[:, targets] += reduced

    @staticmethod
    def _conv(short: Any, long: Any, n_terms: int) -> Any:
        """Batched truncated convolution along the last axis, summing
        over ``short``'s first ``n_terms`` coefficients: one matmul
        over a sliding-window view of the zero-padded ``long``."""
        planes, rows, width = long.shape
        padded = _np.zeros(
            (planes, rows, width + n_terms - 1), dtype=long.dtype)
        padded[:, :, n_terms - 1:] = long
        wins = _windows(padded, width, axis=2)        # (P, E, n_terms, W)
        coeffs = short[:, :, n_terms - 1::-1]          # reversed prefix
        return _np.matmul(coeffs[:, :, None, :], wins)[:, :, 0, :]

    def _gap_coefficients(self, gap: int) -> Any:
        """Pascal row of ``gap`` as a ``(planes, 1, 1, n_terms)``-able
        array (reduced per residue plane in CRT mode), cached."""
        key = ("row", gap)
        coeffs = self._gap_matrices.get(key)
        if coeffs is None:
            row = binomial_row(gap)[: self.width]
            if self.moduli is None:
                coeffs = _np.array(row, dtype=self.dtype)
            else:
                coeffs = _np.array(
                    [[value % modulus for value in row]
                     for modulus in self.moduli],
                    dtype=_np.int64,
                )
            self._gap_matrices[key] = coeffs
        return coeffs

    def _completed(self, gathered: Any, gap: int) -> Any:
        """``gathered`` convolved with the Pascal row of ``gap``, per
        plane (identity when ``gap == 0``).

        Small gaps — the common case, since a gap counts variables an
        OR child misses — run as ``gap + 1`` whole-level shifted adds;
        wide gaps use the banded completion matrix (one matmul), whose
        dense product only pays off once the band covers a decent
        fraction of the width.
        """
        if gap == 0:
            return gathered
        width = self.width
        n_terms = min(gap + 1, width)
        if n_terms * 4 > width:
            if self.moduli is None:
                return gathered @ self._gap_matrix(gap, 0)
            out = _np.empty_like(gathered)
            for plane in range(self.n_planes):
                out[plane] = gathered[plane] @ self._gap_matrix(gap, plane)
            out %= self._moduli_column()
            return out
        coeffs = self._gap_coefficients(gap)
        out = _np.zeros_like(gathered)
        if self.moduli is None:
            for j in range(n_terms):
                out[:, :, j:] += coeffs[j] * gathered[:, :, :width - j]
            return out
        for j in range(n_terms):
            out[:, :, j:] += (
                coeffs[:, j, None, None] * gathered[:, :, :width - j])
        out %= self._moduli_column()
        return out

    def forward(self, check: Callable[[], None] | None = None) -> Any:
        """The level-scheduled ``ComputeAll#SATk`` sweep: one value
        buffer, a handful of array ops per level."""
        width = self.width
        vals = _np.zeros((self.n_planes, self.n_slots, width),
                         dtype=self.dtype)
        if len(self.var_rows):
            vals[:, self.var_rows, 1] = 1
        if len(self.nvar_rows):
            vals[:, self.nvar_rows, 0] = 1
        vals[:, self.true_rows, 0] = 1
        moduli = self._moduli_column()
        for lv in range(1, self.n_levels):
            if check is not None:
                check()
            group = self.and_groups[lv]
            if group is not None:
                out, left, right, max_left = group[:4]
                product = self._conv(vals[:, left], vals[:, right], max_left)
                if moduli is not None:
                    product %= moduli
                vals[:, out] = product
            for gap, parents, children, p_plan, _ in self.or_groups[lv]:
                completed = self._completed(vals[:, children], gap)
                self._scatter_add(vals, p_plan, completed)
            if moduli is not None and self.scatter_levels[lv] is not None:
                vals[:, self.scatter_levels[lv]] %= moduli
        return vals

    def backward(self, vals: Any, check: Callable[[], None] | None = None) -> Any:
        """The level-scheduled derivative sweep over ``vals``."""
        width = self.width
        ders = _np.zeros_like(vals)
        ders[:, self.n_instructions - 1, 0] = 1
        moduli = self._moduli_column()
        for lv in range(self.n_levels - 1, 0, -1):
            if check is not None:
                check()
            group = self.and_groups[lv]
            if group is not None:
                (out, left, right, max_left, max_right, max_der,
                 left_plan, right_plan) = group
                derivative = ders[:, out]
                if moduli is not None:
                    derivative %= moduli
                # The contribution to each child convolves the parent's
                # derivative with the *other* child's value polynomial;
                # each direction loops over its narrower operand.
                for sources, tgt_plan, max_sib in (
                    (right, left_plan, max_right),
                    (left, right_plan, max_left),
                ):
                    siblings = vals[:, sources]
                    if max_der < max_sib:
                        contribution = self._conv(
                            derivative, siblings, max_der)
                    else:
                        contribution = self._conv(
                            siblings, derivative, max_sib)
                    if moduli is not None:
                        contribution %= moduli
                    self._scatter_add(ders, tgt_plan, contribution)
            for gap, parents, children, _, c_plan in self.or_groups[lv]:
                derivative = ders[:, parents]
                if moduli is not None:
                    derivative %= moduli
                contribution = self._completed(derivative, gap)
                self._scatter_add(ders, c_plan, contribution)
        return ders

    def diffs(self, ders: Any) -> dict[int, list[int]]:
        """Per-variable difference vectors from the leaf derivatives,
        as exact Python ints (CRT-reconstructed in residue mode)."""
        width = self.width
        positive = _np.zeros(
            (self.n_planes, self.n_var_slots, width), dtype=self.dtype)
        negative = _np.zeros_like(positive)
        if len(self.var_rows):
            self._scatter_add(positive, self.var_scatter,
                              ders[:, self.var_rows])
        if len(self.nvar_rows):
            self._scatter_add(negative, self.nvar_scatter,
                              ders[:, self.nvar_rows])
        if self.moduli is None:
            combined = (positive - negative)[0]
            if self.dtype == _np.float64:
                combined = _np.rint(combined).astype(_np.int64)
            rows = combined.tolist()
            return {
                slot: [int(value) for value in row]
                for slot, row in enumerate(rows)
                if any(row)
            }
        residues = (positive - negative) % self._moduli_column()
        product = 1
        for prime in self.moduli:
            product *= prime
        reconstructed = None
        for plane, prime in enumerate(self.moduli):
            quotient = product // prime
            factor = quotient * pow(quotient, -1, prime)
            term = residues[plane].astype(object) * factor
            reconstructed = (
                term if reconstructed is None else reconstructed + term)
        reconstructed %= product
        half = product >> 1
        diffs: dict[int, list[int]] = {}
        for slot in range(self.n_var_slots):
            row = [
                int(value) if value <= half else int(value) - product
                for value in reconstructed[slot]
            ]
            if any(row):
                diffs[slot] = row
        return diffs

    def _sentinel_ok(self, array: Any) -> bool:
        """Runtime overflow sentinel for the native tiers: magnitudes
        must sit inside the certified budget.  (``not <=`` rather than
        ``>`` so float NaNs also fail closed.)"""
        limit = 1 << (FLOAT64_BITS if self.dtype == _np.float64
                      else INT64_BITS)
        peak = _np.abs(array).max() if array.size else 0
        return bool(peak <= limit)

    def execute(
        self, check: Callable[[], None] | None = None
    ) -> dict[int, list[int]] | None:
        """Both sweeps plus diff extraction; ``None`` when a runtime
        sentinel trips (callers fall back to the interpreted pass)."""
        vals = self.forward(check)
        if self.moduli is None and not self._sentinel_ok(vals):
            return None
        ders = self.backward(vals, check)
        if self.moduli is None and not self._sentinel_ok(ders):
            return None
        return self.diffs(ders)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tier = (
            f"crt[{len(self.moduli)}]" if self.moduli
            else _np.dtype(self.dtype).name
        )
        return (
            f"LevelPlan(slots={self.n_slots}, levels={self.n_levels}, "
            f"bits={self.bound_bits}, tier={tier})"
        )


def plan_with_reason(
    tape: GateTape,
) -> tuple[LevelPlan | None, str | None]:
    """The cached :class:`LevelPlan` of a tape shape plus the refusal
    reason (``None`` on success, ``"ineligible"`` / ``"budget"``
    otherwise).

    The result — including the negative one — is cached on the tape's
    shared analysis box, so isomorphic re-targets of a warm shape never
    re-plan.
    """
    cached = tape._analysis.get("plan", False)
    if cached is not False:
        return cached
    try:
        entry = (LevelPlan(tape), None)
    except _Ineligible as refusal:
        entry = (None, refusal.reason)
    tape._analysis["plan"] = entry
    return entry


def plan_for(tape: GateTape) -> LevelPlan | None:
    """The cached :class:`LevelPlan` of a tape shape, or ``None`` when
    the shape is ineligible (no NumPy, general negation, bounds beyond
    CRT capacity, non-decomposable AND, buffers over
    :data:`MAX_BUFFER_ELEMENTS`).
    """
    return plan_with_reason(tape)[0]


def fastpath_diffs(
    tape: GateTape,
    stats: FastpathStats | None = None,
    check: Callable[[], None] | None = None,
    answers: int = 1,
) -> dict[int, list[int]] | None:
    """Machine-width difference vectors of ``tape``, or ``None`` when
    the shape must take the interpreted exact path.

    A non-``None`` result is byte-identical to
    :meth:`GateTape.backward_diffs` over the reference kernel (up to
    trailing zeros, which Equation 3 ignores).  ``answers`` is the
    number of answers sharing this sweep; ``stats`` receives that many
    hits or fallbacks (attributed per reason).
    """
    plan, reason = plan_with_reason(tape)
    diffs = plan.execute(check) if plan is not None else None
    if stats is not None:
        if diffs is None:
            stats.count_fallback(
                "overflow" if plan is not None else reason, answers)
        else:
            stats.hits += answers
            stats.tier = plan.tier_name
    return diffs
