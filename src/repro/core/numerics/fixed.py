"""The machine-width execution tier of Algorithm 1: level-scheduled
tape execution in float64, int64, or CRT residue planes.

The reference kernel (:class:`~repro.core.numerics.base.Kernel`) keeps
Algorithm 1 exact with Python big ints, so every multiply is a
Python-level operation and every gate a Python-level dispatch.  This
module runs the same smoothing-free forward/backward sweeps of a
:class:`~.tape.GateTape` as a handful of whole-level NumPy operations
instead, without giving up exactness.

:func:`fastpath_diffs` groups the tape's instructions into topological
levels (:meth:`~.tape.GateTape.level_schedule`), decomposes wide ANDs
into balanced binary trees, and turns each level's convolutions into
one batched ``matmul`` over sliding-window views of a contiguous
``(slots, width)`` value buffer (OR gap completions are shifted adds or
banded-matrix products).  The arithmetic is chosen per *shape* from the
tape's exact magnitude bounds (:meth:`~.tape.GateTape.bound_bits`):

* ``float64`` when every bound fits 52 bits (integers below 2^53 are
  exact in IEEE-754 doubles, and the matmuls hit BLAS);
* ``int64`` when every bound fits 62 bits;
* CRT residue planes otherwise: the same sweep runs once per prime,
  modulo that prime, over ``int32`` buffers, and the exact integers
  are recovered by the Chinese Remainder Theorem.  The primes are
  generated from the bounds (as many as ``2 * bound < prod(p)``
  needs), so there is no capacity limit; planes run one at a time, so
  only one plane's ``slots x width`` buffers are ever resident.

A shape takes the interpreted per-gate pass on the reference kernel
instead when NumPy is missing, when the tape is not a decomposable NNF
circuit, when one plane's buffer would exceed
:data:`MAX_BUFFER_ELEMENTS`, or when it is too small for the tier to
pay off (:data:`LEVEL_COST`).  Either way the returned difference
vectors, and so the final :class:`~fractions.Fraction` Shapley values,
are byte-identical to the reference kernel's.  Runtime sentinels
re-check the native tiers' magnitudes after each sweep as defense in
depth; a tripped sentinel discards the run and falls back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from typing import Any, Callable, Sequence

from .base import binomial_row
from .tape import (
    OP_AND, OP_NOT, OP_NVAR, OP_OR, OP_TRUE, OP_VAR,
    GateTape,
)

try:  # pragma: no cover - exercised by both CI tiers
    import numpy as _np
    from numpy.lib.stride_tricks import as_strided as _as_strided
except ImportError:  # pragma: no cover - the without-NumPy CI tier
    _np = None
    _as_strided = None

#: Whether the machine-width tier can run at all.
HAS_NUMPY = _np is not None

#: Magnitude budgets of the native tiers, in bits.  float64 keeps
#: integer arithmetic exact strictly below 2^53; int64 wraps at 2^63.
#: One bit of headroom each guards the sentinel comparisons themselves.
FLOAT64_BITS = 52
INT64_BITS = 62

#: Ceiling on ``slots * width`` of one plane's value buffer (8M
#: elements: 64 MiB in the native tiers, 32 MiB of int32 residues).
#: Giant compiled shapes decline the fast path rather than risk
#: swapping a serving process; the interpreted pass streams per gate
#: and has no such footprint.
MAX_BUFFER_ELEMENTS = 1 << 23

#: The per-shape cost choice: one execution level of both machine-width
#: sweeps, per residue plane, costs about as much as this many
#: multiply-adds of the interpreted pass (:func:`interpreted_cost`);
#: smaller shapes run interpreted, because per-level NumPy dispatch
#: outweighs their arithmetic.  On TPC-H lineage shapes on a 2-vCPU
#: host the two passes break even near 70 in one thread; in a pool of
#: 2-6 threads NumPy's interpreter-lock hand-offs next to interpreted
#: sweeps move the break-even to about 150 (TPC-H Q16 at scale 0.0005
#: is slower at 130 than with no fast path, faster at 160).
LEVEL_COST = 160


@dataclass
class FastpathStats:
    """Counts of machine-width hits and fallbacks, and the tier that
    served each answer.

    One instance travels through a single exact computation; the engine
    layer merges the counts into its cache stats so sessions and remote
    workers report ``fastpath_hits`` / ``fastpath_fallbacks``.

    ``fallbacks`` is the total; the per-reason counters split it:
    ``overflow`` (a runtime sentinel tripped mid-execution),
    ``ineligible`` (no NumPy, or the tape's structure rules the fast
    path out), ``budget`` (one plane's value buffer would exceed
    :data:`MAX_BUFFER_ELEMENTS`), and ``small`` (the shape is too small
    for the tier to pay off, see :data:`LEVEL_COST`).  ``tiers`` maps
    the position of each answer a machine-width sweep served to that
    sweep's tier (``"float64"``, ``"int64"`` or ``"crt"``); answers
    that ran the interpreted pass, or no sweep at all, are absent.
    """

    hits: int = 0
    fallbacks: int = 0
    overflow: int = 0
    ineligible: int = 0
    budget: int = 0
    small: int = 0
    tiers: dict[int, str] = field(default_factory=dict)

    def count_hit(self, tier: str, answers: Sequence[int]) -> None:
        """Record one sweep in ``tier`` serving ``answers``."""
        self.hits += len(answers)
        for answer in answers:
            self.tiers[answer] = tier

    def count_fallback(self, reason: str, n: int = 1) -> None:
        """Record ``n`` fallbacks attributed to ``reason`` (one of
        ``"overflow"`` / ``"ineligible"`` / ``"budget"`` / ``"small"``)."""
        self.fallbacks += n
        if reason == "overflow":
            self.overflow += n
        elif reason == "budget":
            self.budget += n
        elif reason == "small":
            self.small += n
        else:
            self.ineligible += n


class _Ineligible(Exception):
    """Internal: this shape cannot take the machine-width fast path.

    ``reason`` attributes the refusal for the per-reason fallback
    counters: ``"ineligible"`` (structure) or ``"budget"`` (one plane's
    buffer exceeds :data:`MAX_BUFFER_ELEMENTS`).
    """

    def __init__(self, message: str, reason: str = "ineligible") -> None:
        super().__init__(message)
        self.reason = reason


# ----------------------------------------------------------------------
# CRT residue primes
# ----------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin; bases 2, 3, 5, 7 decide every
    ``n < 3,215,031,751``, which covers all primes below 2^31."""
    if n < 2:
        return False
    for base in (2, 3, 5, 7):
        if n % base == 0:
            return n == base
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_limit(width: int) -> int:
    """Exclusive upper bound on a residue prime for vectors ``width``
    long.  A convolution row sums at most ``width`` products of two
    residues, so ``width * p^2`` must stay below 2^63; residues must
    also fit ``int32`` storage, so ``p < 2^31``."""
    return min(1 << 31, isqrt(((1 << 63) - 1) // width))


@lru_cache(maxsize=4096)
def _prime_below(n: int) -> int:
    """The largest prime below ``n``."""
    candidate = n - 1
    while not _is_prime(candidate):
        candidate -= 1
    return candidate


def crt_moduli(bits: int, width: int) -> tuple[int, ...]:
    """The largest primes below :func:`_prime_limit` of ``width``,
    as many as it takes for their product to exceed ``2^(bits + 1)``:
    twice any magnitude of ``bits`` bits, so signed values are
    recoverable."""
    primes: list[int] = []
    product = 1
    prime = _prime_limit(width)
    while not product >> (bits + 1):
        prime = _prime_below(prime)
        primes.append(prime)
        product *= prime
    return tuple(primes)


def interpreted_cost(tape: GateTape, limit: int | None = None) -> int:
    """Big-int multiply-adds of one interpreted forward sweep of
    ``tape``: AND products grow one child at a time, OR children are
    completed over their gaps.  The backward sweep mirrors it, so this
    ranks shapes by the cost of the whole interpreted pass.  With a
    ``limit``, counting stops at the first instruction that takes the
    cost past it."""
    cost = 0
    for i, op in enumerate(tape.ops):
        if op == OP_AND:
            width = 1
            for child in tape.args[i]:
                cost += width * (tape.nvars[child] + 1)
                width += tape.nvars[child]
        elif op == OP_OR:
            for child, gap in zip(tape.args[i], tape.gaps[i]):
                cost += (tape.nvars[child] + 1) * (gap + 1)
        if limit is not None and cost > limit:
            break
    return cost


def _check_decomposable_nnf(tape: GateTape) -> None:
    """Raise :class:`_Ineligible` unless ``tape`` is an NNF circuit
    whose ANDs have disjoint children (the structure
    :class:`LevelPlan` requires)."""
    ops = tape.ops
    if any(op == OP_NOT for op in ops):
        # The derivative pass requires NNF; the interpreted pass
        # owns the error message.
        raise _Ineligible("tape contains general negation")
    nvars = tape.nvars
    for i, op in enumerate(ops):
        if op == OP_AND and sum(nvars[c] for c in tape.args[i]) != nvars[i]:
            raise _Ineligible("AND children variable sets overlap")


def _min_levels(tape: GateTape) -> int:
    """A lower bound on :attr:`LevelPlan.n_levels` of ``tape``: one
    more than the longest path over the edges a plan keeps.

    A plan keeps every AND edge (binarization only lengthens the path
    from a gate to each of its children) and every OR edge from a child
    whose forward bound is nonzero, and its levels are longest-path
    levels over what it keeps, so each instruction's level is at least
    its depth here.
    """
    forward = tape.forward_bounds()
    depth = [0] * len(tape.ops)
    for i, op in enumerate(tape.ops):
        if op == OP_AND:
            children = tape.args[i]
        elif op == OP_OR:
            children = [c for c in tape.args[i] if forward[c]]
        else:
            continue
        if children:
            depth[i] = 1 + max(depth[c] for c in children)
    return max(depth, default=0) + 1


def _small_without_plan(tape: GateTape) -> bool:
    """Whether :class:`LevelPlan` would accept ``tape`` and then find
    it too small to pay off, decided without building the plan.

    ``pays_off`` compares the interpreted cost with ``LEVEL_COST *
    n_levels * planes``; a plan has at least :func:`_min_levels` levels
    and one plane, so a cost at most ``LEVEL_COST`` times that never
    pays off.  The plan would not be refused either: the structure
    checks are the plan's own, and its buffer has at most one slot per
    instruction, one for the constant 1 and fewer than one auxiliary
    slot per AND child, each :attr:`~.tape.GateTape.root_nvars` + 1
    wide.  A shape this test does not settle builds its plan as before,
    so every shape gets the refusal reason it would get from the plan.
    """
    try:
        _check_decomposable_nnf(tape)
    except _Ineligible:
        return False
    limit = LEVEL_COST * _min_levels(tape)
    if interpreted_cost(tape, limit=limit) > limit:
        return False
    and_children = sum(
        len(args) for op, args in zip(tape.ops, tape.args) if op == OP_AND)
    slots = len(tape.ops) + 1 + and_children
    return slots * (tape.root_nvars + 1) <= MAX_BUFFER_ELEMENTS


# ----------------------------------------------------------------------
# Level-scheduled execution
# ----------------------------------------------------------------------

class LevelPlan:
    """One tape shape compiled to whole-level array operations.

    Construction groups the tape's instructions into topological levels,
    decomposes wide ANDs into balanced binary trees over auxiliary
    partial-product slots, drops OR edges from unsatisfiable children,
    and precomputes per-level gather/scatter index arrays plus the
    arithmetic tier.  Execution then touches only NumPy: a contiguous
    ``(slots, width)`` value buffer per sweep, one batched
    sliding-window ``matmul`` per level of AND convolutions (both
    sweeps), and one completion per distinct OR gap per level.

    Plans are label-agnostic and cached on the tape's shared analysis
    box, so isomorphic warm hits across a session build the plan once.
    """

    def __init__(self, tape: GateTape) -> None:
        _check_decomposable_nnf(tape)
        ops = tape.ops
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
            ``(targets, None, None)`` when they are distinct (fancy
            ``+=`` suffices), else ``(unique_targets, order, starts)``
            for a sort + ``add.reduceat`` + fancy ``+=`` (ufunc.at is
            an order of magnitude slower than either)."""
            arr = index(rows)
            if len(set(rows)) == len(rows):
                return (arr, None, None)
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
        self.var_scatter = scatter(
            [tape.args[i][0] for i in self.var_rows])
        self.nvar_scatter = scatter(
            [tape.args[i][0] for i in self.nvar_rows])

        # --- arithmetic tier -----------------------------------------
        forward_bits, backward_bits, diff_bits = tape.bound_bits()
        self.bound_bits = max(forward_bits, backward_bits, diff_bits)
        if self.bound_bits <= FLOAT64_BITS:
            self.dtype, self.moduli = _np.float64, None
        elif self.bound_bits <= INT64_BITS:
            self.dtype, self.moduli = _np.int64, None
        else:
            self.dtype = _np.int32
            self.moduli = crt_moduli(self.bound_bits, width)
        if self.n_slots * width > MAX_BUFFER_ELEMENTS:
            raise _Ineligible(
                "value buffer exceeds MAX_BUFFER_ELEMENTS", reason="budget")
        #: Whether the machine-width sweeps are estimated cheaper than
        #: the interpreted pass on this shape (:data:`LEVEL_COST`).
        planes = len(self.moduli) if self.moduli else 1
        self.pays_off = (
            interpreted_cost(tape) > LEVEL_COST * self.n_levels * planes)
        self._gap_cache: dict[tuple, Any] = {}

    @property
    def tier_name(self) -> str:
        """The arithmetic tier this shape runs in: ``"float64"``,
        ``"int64"``, or ``"crt"``."""
        if self.moduli:
            return "crt"
        if self.dtype == _np.float64:
            return "float64"
        return "int64"

    # -- execution helpers ---------------------------------------------

    def _gap_matrix(self, gap: int, modulus: int | None) -> Any:
        """The banded completion matrix ``M[i, i+j] = C(gap, j)``
        (reduced modulo ``modulus`` in CRT mode), cached on the plan."""
        key = ("matrix", gap, modulus)
        matrix = self._gap_cache.get(key)
        if matrix is None:
            coeffs = self._gap_coefficients(gap, modulus)
            width = self.width
            matrix = _np.zeros((width, width), dtype=coeffs.dtype)
            for j, entry in enumerate(coeffs):
                rows = _np.arange(width - j)
                matrix[rows, rows + j] = entry
            self._gap_cache[key] = matrix
        return matrix

    def _gap_coefficients(self, gap: int, modulus: int | None) -> Any:
        """The first ``width`` entries of the Pascal row of ``gap``
        (reduced modulo ``modulus`` in CRT mode), cached."""
        key = ("row", gap, modulus)
        coeffs = self._gap_cache.get(key)
        if coeffs is None:
            row = binomial_row(gap)[: self.width]
            if modulus is None:
                coeffs = _np.array(row, dtype=self.dtype)
            else:
                coeffs = _np.array(
                    [value % modulus for value in row], dtype=_np.int64)
            self._gap_cache[key] = coeffs
        return coeffs

    @staticmethod
    def _gather(buffer: Any, rows: Any) -> Any:
        """``buffer[rows]``, upcast from int32 residue storage to int64
        so products of two residues cannot wrap."""
        gathered = buffer[rows]
        if gathered.dtype == _np.int32:
            return gathered.astype(_np.int64)
        return gathered

    @staticmethod
    def _scatter_add(
        buffer: Any, plan: tuple, contribution: Any, modulus: int | None,
    ) -> None:
        """``buffer[targets] += contribution`` under a scatter plan from
        ``__init__``, duplicates summed by ``add.reduceat``.  In CRT
        mode the sum is reduced modulo the prime before it is written
        back, so an int32 slot never holds an unreduced value."""
        targets, order, starts = plan
        if order is not None:
            contribution = _np.add.reduceat(
                contribution[order], starts, axis=0)
        if modulus is None:
            buffer[targets] += contribution
        else:
            buffer[targets] = (buffer[targets] + contribution) % modulus

    @staticmethod
    def _conv(short: Any, long: Any, n_terms: int) -> Any:
        """Batched truncated convolution along the last axis, summing
        over ``short``'s first ``n_terms`` coefficients: one matmul
        over a sliding-window view of the zero-padded ``long``."""
        rows, width = long.shape
        padded = _np.zeros((rows, width + n_terms - 1), dtype=long.dtype)
        padded[:, n_terms - 1:] = long
        # wins[e, k, w] = padded[e, k + w]: a read-only sliding window
        row_stride, step = padded.strides
        wins = _as_strided(padded, (rows, n_terms, width),
                           (row_stride, step, step), writeable=False)
        coeffs = short[:, n_terms - 1::-1]             # reversed prefix
        return _np.matmul(coeffs[:, None, :], wins)[:, 0, :]

    def _completed(self, gathered: Any, gap: int, modulus: int | None) -> Any:
        """``gathered`` convolved with the Pascal row of ``gap``
        (identity when ``gap == 0``), reduced modulo ``modulus``.

        Small gaps (the common case, since a gap counts variables an
        OR child misses) run as ``gap + 1`` whole-level shifted adds;
        wide gaps use the banded completion matrix (one matmul), whose
        dense product only pays off once the band covers a decent
        fraction of the width.
        """
        if gap == 0:
            return gathered
        width = self.width
        n_terms = min(gap + 1, width)
        if n_terms * 4 > width:
            out = gathered @ self._gap_matrix(gap, modulus)
        else:
            coeffs = self._gap_coefficients(gap, modulus)
            out = _np.zeros_like(gathered)
            for j in range(n_terms):
                out[:, j:] += coeffs[j] * gathered[:, :width - j]
        if modulus is not None:
            out %= modulus
        return out

    def forward(
        self,
        modulus: int | None = None,
        check: Callable[[], None] | None = None,
    ) -> Any:
        """The level-scheduled ``ComputeAll#SATk`` sweep: one
        ``(slots, width)`` value buffer, a handful of array ops per
        level; residues modulo ``modulus`` in CRT mode."""
        vals = _np.zeros((self.n_slots, self.width), dtype=self.dtype)
        if len(self.var_rows):
            vals[self.var_rows, 1] = 1
        vals[self.nvar_rows, 0] = 1
        vals[self.true_rows, 0] = 1
        for lv in range(1, self.n_levels):
            if check is not None:
                check()
            group = self.and_groups[lv]
            if group is not None:
                out, left, right, max_left = group[:4]
                product = self._conv(
                    self._gather(vals, left), self._gather(vals, right),
                    max_left)
                if modulus is not None:
                    product %= modulus
                vals[out] = product
            for gap, _, children, p_plan, _ in self.or_groups[lv]:
                completed = self._completed(
                    self._gather(vals, children), gap, modulus)
                self._scatter_add(vals, p_plan, completed, modulus)
        return vals

    def backward(
        self,
        vals: Any,
        modulus: int | None = None,
        check: Callable[[], None] | None = None,
    ) -> Any:
        """The level-scheduled derivative sweep over ``vals``."""
        ders = _np.zeros_like(vals)
        ders[self.n_instructions - 1, 0] = 1
        for lv in range(self.n_levels - 1, 0, -1):
            if check is not None:
                check()
            group = self.and_groups[lv]
            if group is not None:
                (out, left, right, max_left, max_right, max_der,
                 left_plan, right_plan) = group
                derivative = self._gather(ders, out)
                # The contribution to each child convolves the parent's
                # derivative with the *other* child's value polynomial;
                # each direction loops over its narrower operand.
                for sources, tgt_plan, max_sib in (
                    (right, left_plan, max_right),
                    (left, right_plan, max_left),
                ):
                    siblings = self._gather(vals, sources)
                    if max_der < max_sib:
                        contribution = self._conv(
                            derivative, siblings, max_der)
                    else:
                        contribution = self._conv(
                            siblings, derivative, max_sib)
                    if modulus is not None:
                        contribution %= modulus
                    self._scatter_add(ders, tgt_plan, contribution, modulus)
            for gap, parents, _, _, c_plan in self.or_groups[lv]:
                contribution = self._completed(
                    self._gather(ders, parents), gap, modulus)
                self._scatter_add(ders, c_plan, contribution, modulus)
        return ders

    def _leaf_differences(self, ders: Any, modulus: int | None) -> Any:
        """Per-variable-slot difference rows (positive-literal minus
        negated-literal derivatives); int32 residues in CRT mode."""
        rows = _np.zeros((self.n_var_slots, self.width), dtype=self.dtype)
        if len(self.var_rows):
            self._scatter_add(rows, self.var_scatter,
                              self._gather(ders, self.var_rows), modulus)
        if len(self.nvar_rows):
            self._scatter_add(rows, self.nvar_scatter,
                              -self._gather(ders, self.nvar_rows), modulus)
        return rows

    def _sweep(
        self, modulus: int | None, check: Callable[[], None] | None,
    ) -> Any | None:
        """Both sweeps in one arithmetic; the leaf difference rows, or
        ``None`` when a native tier's runtime sentinel trips.  Only this
        call's two buffers are live, and they are freed on return."""
        vals = self.forward(modulus, check)
        if modulus is None and not self._sentinel_ok(vals):
            return None
        ders = self.backward(vals, modulus, check)
        del vals
        if modulus is None and not self._sentinel_ok(ders):
            return None
        return self._leaf_differences(ders, modulus)

    def diffs(self, planes: Sequence[Any]) -> dict[int, list[int]]:
        """Per-variable difference vectors as exact Python ints: the
        single native sweep's rows, or the CRT reconstruction of one
        residue row set per prime in :attr:`moduli`."""
        if self.moduli is None:
            combined = planes[0]
            if self.dtype == _np.float64:
                combined = _np.rint(combined).astype(_np.int64)
            return {
                slot: row
                for slot, row in enumerate(combined.tolist())
                if any(row)
            }
        # Garner's algorithm: mixed-radix digits d_i < p_i in int64
        # arithmetic, so that x = d_0 + p_0 (d_1 + p_1 (d_2 + ...)).
        moduli = self.moduli
        digits: list[Any] = []
        for residues, prime in zip(planes, moduli):
            digit = residues.astype(_np.int64)
            for previous, previous_prime in zip(digits, moduli):
                digit -= previous
                digit %= prime
                digit *= pow(previous_prime, -1, prime)
                digit %= prime
            digits.append(digit)
        value = digits.pop().astype(object)
        for digit, prime in zip(reversed(digits), reversed(moduli[:-1])):
            value *= prime
            value += digit
        product = 1
        for prime in moduli:
            product *= prime
        # Residues of a negative x read as x + product.
        value[value > product >> 1] -= product
        return {
            slot: row
            for slot, row in enumerate(value.tolist())
            if any(row)
        }

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
        """Both sweeps plus diff extraction, one residue plane at a time
        in CRT mode; ``None`` when a runtime sentinel trips (callers
        fall back to the interpreted pass)."""
        if self.moduli is None:
            rows = self._sweep(None, check)
            return None if rows is None else self.diffs([rows])
        return self.diffs([self._sweep(prime, check) for prime in self.moduli])

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
    otherwise, or ``"small"`` once :func:`fastpath_diffs` has refused
    the shape without a plan).

    The result, including the negative one, is cached on the tape's
    shared analysis box, so isomorphic re-targets of a warm shape never
    re-plan.  Without NumPy every shape is ineligible (and nothing is
    cached).
    """
    if not HAS_NUMPY:
        return None, "ineligible"
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
    the shape must take the interpreted pass (no NumPy, general
    negation, non-decomposable AND, one plane's buffer over
    :data:`MAX_BUFFER_ELEMENTS`).
    """
    return plan_with_reason(tape)[0]


def fastpath_diffs(
    tape: GateTape,
    stats: FastpathStats | None = None,
    check: Callable[[], None] | None = None,
    answers: Sequence[int] = (0,),
) -> dict[int, list[int]] | None:
    """Machine-width difference vectors of ``tape``, or ``None`` when
    the shape takes the interpreted exact pass: the plan refuses it,
    or the shape is too small for the tier to pay off
    (``plan.pays_off``).  A shape that is small by a bound needing no
    plan (:func:`_small_without_plan`) never builds one: its refusal
    is cached in the plan's place.

    A non-``None`` result is byte-identical to
    :meth:`GateTape.backward_diffs` over the reference kernel (up to
    trailing zeros, which Equation 3 ignores).  ``answers`` are the
    positions of the answers sharing this sweep; ``stats`` records a
    hit in the plan's tier for each, or one fallback each (attributed
    per reason).
    """
    if (HAS_NUMPY and "plan" not in tape._analysis
            and _small_without_plan(tape)):
        tape._analysis["plan"] = (None, "small")
    plan, reason = plan_with_reason(tape)
    if plan is not None and not plan.pays_off:
        plan, reason = None, "small"
    diffs = plan.execute(check) if plan is not None else None
    if stats is not None:
        if diffs is None:
            stats.count_fallback(
                "overflow" if plan is not None else reason, len(answers))
        else:
            stats.count_hit(plan.tier_name, answers)
    return diffs
