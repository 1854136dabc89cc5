"""Compiled gate tapes: d-DNNF traversal lowered to a flat instruction
list.

The counting passes of Algorithm 1 repeatedly walk a
:class:`~repro.circuits.circuit.Circuit`: reachability, per-gate
variable-set union-finds (``gate_var_sets``), kind dispatch, and — in
the textbook formulation — an explicitly smoothed copy whose
``(x v -x)`` padding gates can dwarf the circuit.  A
:class:`GateTape` pays all of that once per circuit *shape*: it is a
topologically ordered list of instructions carrying exactly what the
numeric passes need — the opcode, the child instruction indices, each
OR child's *gap size* (how many gate variables the child misses), and
the variable slot of each literal leaf.  Executing a tape is pure
kernel arithmetic; no circuit object is touched.

Smoothing-free counting
-----------------------
Instead of padding OR children to the gate's variable set, the tape
records the per-child gap and the kernel applies the binomial
completion factors ``C(gap, j)`` during the sweeps:

* forward — a child's counts are convolved with the Pascal row of its
  gap (exactly what the padding gates would have contributed);
* backward — the derivative flowing from an OR gate to a child is
  convolved with the same row (the padding sub-circuits' value
  polynomials);
* leaves — a positive literal's derivative adds to its variable's
  difference vector, a negated literal's subtracts.  Models in which a
  variable is *free* (the reason smoothing exists) contribute equally
  to both conditionings and cancel in the difference, so they are
  never materialized at all.

Tapes are label-agnostic up to the ``var_labels`` table, which makes
them cheap to re-target at isomorphic lineages (:meth:`with_labels` is
O(#vars) — no gate is copied) and let isomorphic answers share one
sweep (:meth:`same_shape`), and JSON-serializable
(:meth:`to_payload` / :meth:`from_payload`) so the engine layer stores
them as a third artifact kind next to canonical CNFs and d-DNNFs.

Level schedule and magnitude bounds (payload v2)
------------------------------------------------
:meth:`level_schedule` groups the instructions into topological levels
(every instruction's children sit at strictly smaller levels), and
:meth:`bound_bits` computes a-priori magnitude bounds for both sweeps:
the forward bound of a gate is its worst-case model count (children
bounds multiply through decomposable ANDs and gap-shift-add through
ORs), and the backward bound propagates derivative magnitudes down the
same structure.  Both are what the machine-width execution tier
(:mod:`~repro.core.numerics.fixed`) needs to prove, before running, that
an entire shape fits native ``float64``/``int64`` arithmetic — or how
many CRT residue planes it needs when it does not.  The analysis is
label-agnostic and cached in a box shared across :meth:`with_labels`
re-targets, so warm cache hits never repeat it; tape payloads carry the
levels and bound bits as a *version-2* format, and version-1 payloads
(from stores written before the machine-width tier existed) are
transparently re-lowered on load.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Sequence

from ...circuits.circuit import (
    AND, FALSE, NOT, OR, TRUE, VAR, Circuit, CircuitError,
)
from .base import KERNEL, binomial_row

#: Tape opcodes.  ``NVAR`` is a negated variable leaf (NNF literal);
#: ``NOT`` is the general complement over the child's variable count
#: (forward pass only — the derivative pass requires NNF).
OP_VAR, OP_NVAR, OP_TRUE, OP_FALSE, OP_AND, OP_OR, OP_NOT = range(7)

_LEAF_OPS = (OP_VAR, OP_NVAR, OP_TRUE, OP_FALSE)


class TapeError(CircuitError):
    """Raised on malformed tape payloads or invalid tape execution."""


class NonDecomposableTape(TapeError):
    """An AND instruction's children have overlapping variable sets."""


class GateTape:
    """One circuit shape, lowered to flat parallel instruction arrays.

    Instructions are in topological order (children strictly before
    parents); the last instruction is the root.  ``args[i]`` holds the
    variable slot for leaf ops and child instruction indices otherwise;
    ``gaps[i]`` (OR only) holds one gap size per child; ``nvars[i]`` is
    ``|Vars(g)|``; ``var_labels[slot]`` maps slots back to variable
    labels.  ``source_gates`` records the gate count of the circuit the
    tape was compiled from (benchmark/provenance stats).
    """

    __slots__ = (
        "ops", "args", "gaps", "nvars", "var_labels", "source_gates",
        "_analysis",
    )

    def __init__(
        self,
        ops: list[int],
        args: list[tuple[int, ...]],
        gaps: list[tuple[int, ...] | None],
        nvars: list[int],
        var_labels: list[Hashable],
        source_gates: int,
        analysis: dict | None = None,
    ) -> None:
        self.ops = ops
        self.args = args
        self.gaps = gaps
        self.nvars = nvars
        self.var_labels = var_labels
        self.source_gates = source_gates
        #: Label-agnostic derived data (level schedule, magnitude
        #: bounds, the compiled level plan), computed lazily and shared
        #: across :meth:`with_labels` re-targets of the same shape.
        self._analysis = analysis if analysis is not None else {}

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def root_nvars(self) -> int:
        """Number of variables mentioned by the root."""
        return self.nvars[-1] if self.ops else 0

    @property
    def is_constant(self) -> bool:
        """True when the root is a TRUE/FALSE instruction."""
        return bool(self.ops) and self.ops[-1] in (OP_TRUE, OP_FALSE)

    def labels(self) -> set[Hashable]:
        """The set of variable labels the tape mentions."""
        return set(self.var_labels)

    def with_labels(
        self, mapping: Mapping[Hashable, Hashable]
    ) -> "GateTape":
        """A re-targeted tape: same instructions, renamed variables.

        The instruction arrays are *shared* with ``self`` — this is the
        tape analogue of :meth:`~repro.circuits.circuit.Circuit.rename`
        but O(#variables) instead of O(#gates), which is what lets warm
        cache hits skip circuit traversal entirely.
        """
        return GateTape(
            self.ops,
            self.args,
            self.gaps,
            self.nvars,
            [mapping.get(label, label) for label in self.var_labels],
            self.source_gates,
            analysis=self._analysis,
        )

    def same_shape(self, other: "GateTape") -> bool:
        """Whether both tapes run the same sweeps (labels aside).

        Re-targets of one shape share the analysis box outright;
        independently compiled isomorphic tapes compare their
        instruction arrays instead.
        """
        return self._analysis is other._analysis or (
            self.ops == other.ops
            and self.args == other.args
            and self.gaps == other.gaps
            and self.nvars == other.nvars
        )

    # ------------------------------------------------------------------
    # Level schedule and magnitude bounds (the machine-width analysis)
    # ------------------------------------------------------------------

    def level_schedule(self) -> list[int]:
        """Topological level of every instruction (leaves are level 0;
        each instruction sits strictly above all of its children).

        Instructions sharing a level are mutually independent, which is
        what lets the machine-width tier execute a level as a handful of
        whole-level array operations instead of per-gate dispatches.
        Cached (and shared across :meth:`with_labels` re-targets).
        """
        levels = self._analysis.get("levels")
        if levels is None:
            levels = [0] * len(self.ops)
            for i, op in enumerate(self.ops):
                if op not in _LEAF_OPS:
                    args = self.args[i]
                    if args:
                        levels[i] = 1 + max(levels[c] for c in args)
            self._analysis["levels"] = levels
        return levels

    def bound_bits(self) -> tuple[int, int, int]:
        """A-priori magnitude bounds ``(forward, backward, diff)`` in
        bits, from gate fan-in structure alone.

        * *forward*: ``fb[g]`` bounds every ``#SAT_k`` entry of gate
          ``g`` — children bounds multiply through ANDs (decomposable
          products) and sum with their ``2^gap`` completion factors
          through ORs, so ``fb[g]`` is exactly the worst-case model
          count of ``g`` over ``Vars(g)``;
        * *backward*: ``db[g]`` bounds the derivative entries — the
          root starts at 1, OR edges multiply by ``2^gap``, AND edges by
          the sibling product of forward bounds;
        * *diff*: per-variable difference vectors sum the backward
          bounds of the variable's literal leaves.

        All partial sums in both sweeps are non-negative and bounded by
        these final values (the diff accumulation by the *sum* of its
        contributions' bounds), so the maximum of the three is a sound
        bit-width certificate for the whole computation.  Cached and
        label-agnostic — and always *computed* from the instruction
        arrays, never read back from a stored payload: a tape artifact
        with understated bounds must not be able to arm native
        arithmetic it cannot certify.
        """
        cached = self._analysis.get("bound_bits")
        if cached is not None:
            return cached
        forward = self.forward_bounds()
        backward = [0] * len(self.ops)
        diff: dict[int, int] = {}
        if self.ops:
            backward[-1] = 1
        for i in range(len(self.ops) - 1, -1, -1):
            op = self.ops[i]
            d = backward[i]
            if not d:
                continue
            if op == OP_OR:
                for child, gap in zip(self.args[i], self.gaps[i]):
                    backward[child] += d << gap
            elif op in (OP_AND, OP_NOT):
                children = self.args[i]
                prefix = [1]
                for child in children[:-1]:
                    prefix.append(prefix[-1] * forward[child])
                suffix = 1
                for index in range(len(children) - 1, -1, -1):
                    child = children[index]
                    backward[child] += d * prefix[index] * suffix
                    suffix *= forward[child]
            elif op in (OP_VAR, OP_NVAR):
                slot = self.args[i][0]
                diff[slot] = diff.get(slot, 0) + d
        bits = (
            max((b.bit_length() for b in forward), default=0),
            max((b.bit_length() for b in backward), default=0),
            max((b.bit_length() for b in diff.values()), default=0),
        )
        self._analysis["bound_bits"] = bits
        return bits

    def forward_bounds(self) -> list[int]:
        """Worst-case model count of every instruction (exact big
        ints); entry ``i`` bounds each coefficient of ``vals[i]`` in
        :meth:`forward`.  Cached and label-agnostic."""
        forward = self._analysis.get("forward_bounds")
        if forward is None:
            forward = [0] * len(self.ops)
            for i, op in enumerate(self.ops):
                if op in (OP_VAR, OP_NVAR, OP_TRUE):
                    forward[i] = 1
                elif op == OP_FALSE:
                    forward[i] = 0
                elif op == OP_AND:
                    product = 1
                    for child in self.args[i]:
                        product *= forward[child]
                    forward[i] = product
                elif op == OP_OR:
                    forward[i] = sum(
                        forward[child] << gap
                        for child, gap in zip(self.args[i], self.gaps[i])
                    )
                else:  # OP_NOT: complement over the gate's variable set
                    forward[i] = 1 << self.nvars[i]
            self._analysis["forward_bounds"] = forward
        return forward

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def forward(
        self, check: Callable[[], None] | None = None,
    ) -> list[list[int]]:
        """The ``ComputeAll#SATk`` induction (Lemma 4.5) over the tape.

        Returns one count vector per instruction; ``check`` (if given)
        is invoked periodically so long sweeps can honour deadlines.
        """
        kernel = KERNEL
        vals: list[list[int]] = [None] * len(self.ops)  # type: ignore[list-item]
        for i, op in enumerate(self.ops):
            if check is not None and not i & 0x1FF:
                check()
            if op == OP_VAR:
                vals[i] = [0, 1]
            elif op == OP_NVAR:
                vals[i] = [1, 0]
            elif op == OP_TRUE:
                vals[i] = [1]
            elif op == OP_FALSE:
                vals[i] = [0]
            elif op == OP_AND:
                acc = [1]
                for child in self.args[i]:
                    acc = kernel.poly_mul(acc, vals[child])
                if len(acc) != self.nvars[i] + 1:
                    raise NonDecomposableTape(
                        f"AND instruction {i}: children variable sets overlap"
                    )
                vals[i] = acc
            elif op == OP_OR:
                vals[i] = kernel.or_accumulate(
                    self.nvars[i],
                    [vals[child] for child in self.args[i]],
                    self.gaps[i],
                )
            else:  # OP_NOT: complement over the gate's variable count
                child_vals = vals[self.args[i][0]]
                row = binomial_row(self.nvars[i])
                vals[i] = [row[l] - child_vals[l] for l in range(len(row))]
        return vals

    def root_counts(self) -> tuple[list[int], int]:
        """``(#SAT_k vector of the root, |Vars(root)|)``."""
        if not self.ops:
            raise TapeError("empty tape has no root")
        return self.forward()[-1], self.root_nvars

    def backward_diffs(
        self,
        vals: Sequence[Sequence[int]],
        check: Callable[[], None] | None = None,
    ) -> dict[int, list[int]]:
        """The circuit-derivative sweep, accumulated per variable slot.

        Returns ``diffs[slot][m]`` = ``#SAT_m(C[x->1]) -
        #SAT_m(C[x->0])`` over ``Vars(C) \\ {x}`` — exactly the
        difference vector Equation 3 consumes, with free-variable
        (padding) contributions already cancelled.
        """
        kernel = KERNEL
        ders: list[list[int] | None] = [None] * len(self.ops)
        ders[-1] = [1]
        diffs: dict[int, list[int]] = {}
        for i in range(len(self.ops) - 1, -1, -1):
            if check is not None and not i & 0x1FF:
                check()
            d = ders[i]
            if d is None or not any(d):
                continue
            op = self.ops[i]
            if op == OP_OR:
                for child, gap in zip(self.args[i], self.gaps[i]):
                    contribution = (
                        d if gap == 0
                        else kernel.poly_mul(d, binomial_row(gap))
                    )
                    ders[child] = kernel.poly_add(ders[child], contribution)
            elif op == OP_AND:
                children = self.args[i]
                # prefix/suffix products of sibling value polynomials
                prefix: list[Sequence[int]] = [[1]]
                for child in children[:-1]:
                    prefix.append(kernel.poly_mul(prefix[-1], vals[child]))
                suffix: Sequence[int] = [1]
                for index in range(len(children) - 1, -1, -1):
                    sibling_product = kernel.poly_mul(prefix[index], suffix)
                    contribution = kernel.poly_mul(d, sibling_product)
                    child = children[index]
                    ders[child] = kernel.poly_add(ders[child], contribution)
                    if index:
                        suffix = kernel.poly_mul(suffix, vals[child])
            elif op == OP_VAR:
                slot = self.args[i][0]
                diffs[slot] = kernel.poly_add(diffs.get(slot), d)
            elif op == OP_NVAR:
                slot = self.args[i][0]
                diffs[slot] = kernel.poly_add(
                    diffs.get(slot), [-value for value in d]
                )
            elif op == OP_NOT:
                raise TapeError(
                    "derivative pass requires NNF circuits "
                    "(negation above variables only)"
                )
            # TRUE/FALSE: constants absorb their derivative.
        return diffs

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    #: Tape payload format written by :meth:`to_payload`.  Version 2
    #: added the level schedule and magnitude-bound bits; version-1
    #: payloads are still accepted and re-lowered on load.
    PAYLOAD_FORMAT = 2

    def to_payload(self) -> dict:
        """A JSON-serializable rendering (labels must be serializable;
        the engine layer only stores *canonical* tapes, whose labels
        are small ints).

        Writes format version 2: alongside the instruction arrays, the
        payload carries the topological ``levels`` (consumed by the
        machine-width execution schedule, so warm processes skip that
        pass) and the a-priori magnitude bounds in bits (advisory
        metadata — arithmetic selection always recomputes its own
        certificate from the instructions).
        """
        forward_bits, backward_bits, diff_bits = self.bound_bits()
        return {
            "format": self.PAYLOAD_FORMAT,
            "ops": list(self.ops),
            "args": [list(arg) for arg in self.args],
            "gaps": [list(gap) if gap is not None else None
                     for gap in self.gaps],
            "nvars": list(self.nvars),
            "var_labels": list(self.var_labels),
            "source_gates": self.source_gates,
            "levels": list(self.level_schedule()),
            "bounds": {
                "forward_bits": forward_bits,
                "backward_bits": backward_bits,
                "diff_bits": diff_bits,
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "GateTape":
        """Rebuild a tape written by :meth:`to_payload`, raising
        :class:`TapeError` on any malformation so callers can treat
        truncated/corrupt artifacts as cache misses.

        Both payload formats load: a version-1 payload (no ``levels`` /
        ``bounds``) is *re-lowered* — the level schedule and bounds are
        recomputed from the instruction arrays — so stores written
        before the machine-width tier existed keep serving hits instead
        of recompiling.
        """
        try:
            ops = list(payload["ops"])
            args = list(payload["args"])
            gaps = list(payload["gaps"])
            nvars = list(payload["nvars"])
            var_labels = list(payload["var_labels"])
            source_gates = payload["source_gates"]
        except (KeyError, TypeError) as exc:
            raise TapeError(f"malformed tape payload: {exc}") from None
        if not (len(ops) == len(args) == len(gaps) == len(nvars)):
            raise TapeError("malformed tape payload: ragged instruction arrays")
        if not ops:
            raise TapeError("malformed tape payload: empty tape")
        if not isinstance(source_gates, int) or source_gates < 0:
            raise TapeError("malformed tape payload: bad source_gates")
        checked_args: list[tuple[int, ...]] = []
        checked_gaps: list[tuple[int, ...] | None] = []
        n_slots = len(var_labels)
        try:
            cls._validate_instructions(
                ops, args, gaps, nvars, n_slots, checked_args, checked_gaps
            )
        except TypeError as exc:
            # Schema-invalid entries (a non-list args row, a scalar gap
            # list, ...) must read as corruption, never crash a load.
            raise TapeError(f"malformed tape payload: {exc}") from None
        tape = cls(ops, checked_args, checked_gaps, nvars, var_labels,
                   source_gates)
        if "levels" in payload or "bounds" in payload:
            tape._load_analysis(payload, checked_args)
        return tape

    def _load_analysis(
        self, payload: Mapping, args: Sequence[tuple[int, ...]]
    ) -> None:
        """Validate and adopt a v2 payload's levels/bounds.

        The levels must be a consistent topological schedule and the
        bound bits well-formed, else the artifact reads as corrupt.
        Any valid topological leveling yields correct execution, so the
        loaded schedule is adopted as-is; the *bounds* are kept as
        advisory metadata only (``payload_bound_bits``) — the
        machine-width tier's arithmetic-selection certificate is always
        re-derived from the instruction arrays by exact big-int
        analysis (:meth:`bound_bits`), so a stale or understated
        ``bounds`` entry can never cause overflowing arithmetic to be
        chosen.
        """
        try:
            levels = list(payload["levels"])
            bounds = payload["bounds"]
            bits = tuple(
                bounds[key]
                for key in ("forward_bits", "backward_bits", "diff_bits")
            )
        except (KeyError, TypeError) as exc:
            raise TapeError(f"malformed tape payload: {exc}") from None
        if len(levels) != len(self.ops):
            raise TapeError("malformed tape payload: ragged level array")
        if any(not isinstance(b, int) or b < 0 for b in bits):
            raise TapeError("malformed tape payload: bad bound bits")
        for i, (op, level) in enumerate(zip(self.ops, levels)):
            if not isinstance(level, int) or level < 0:
                raise TapeError(f"malformed tape payload: level[{i}]")
            if op not in _LEAF_OPS and any(
                levels[c] >= level for c in args[i]
            ):
                raise TapeError(
                    f"malformed tape payload: level[{i}] not topological"
                )
        self._analysis["levels"] = levels
        self._analysis["payload_bound_bits"] = bits

    @staticmethod
    def _validate_instructions(
        ops: Sequence[int],
        args: Sequence[Sequence[int]],
        gaps: Sequence[Sequence[int] | None],
        nvars: Sequence[int],
        n_slots: int,
        checked_args: list[tuple[int, ...]],
        checked_gaps: list[tuple[int, ...] | None],
    ) -> None:
        for i, (op, arg, gap, nv) in enumerate(zip(ops, args, gaps, nvars)):
            if op not in range(7):
                raise TapeError(f"malformed tape payload: opcode {op!r}")
            if not isinstance(nv, int) or nv < 0:
                raise TapeError(f"malformed tape payload: nvars[{i}]")
            arg = tuple(arg)
            if op in (OP_VAR, OP_NVAR):
                ok = (len(arg) == 1 and isinstance(arg[0], int)
                      and 0 <= arg[0] < n_slots)
            elif op in (OP_TRUE, OP_FALSE):
                ok = not arg
            elif op == OP_NOT:
                ok = len(arg) == 1
            else:
                ok = True
            if op in (OP_AND, OP_OR, OP_NOT):
                ok = ok and all(
                    isinstance(c, int) and 0 <= c < i for c in arg
                )
            if not ok:
                raise TapeError(
                    f"malformed tape payload: instruction {i} has bad args"
                )
            if op == OP_OR:
                if gap is None or len(gap) != len(arg) or any(
                    not isinstance(g, int) or g < 0 for g in gap
                ):
                    raise TapeError(
                        f"malformed tape payload: instruction {i} has bad gaps"
                    )
                checked_gaps.append(tuple(gap))
            else:
                if gap is not None:
                    raise TapeError(
                        f"malformed tape payload: instruction {i} has gaps"
                    )
                checked_gaps.append(None)
            checked_args.append(arg)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GateTape(instructions={len(self.ops)}, "
            f"vars={len(self.var_labels)}, root_nvars={self.root_nvars})"
        )


def compile_tape(circuit: Circuit, root: int | None = None) -> GateTape:
    """Lower the gates reachable from ``root`` into a :class:`GateTape`.

    One full circuit traversal (reachability + variable sets) happens
    here, once; every later execution of the tape touches only the flat
    arrays.  The circuit is assumed deterministic and decomposable —
    the same contract as
    :func:`~repro.circuits.dnnf.count_models_by_size`, whose dynamic
    program this lowers.
    """
    if root is None:
        root = circuit.output_gate()
    var_sets = circuit.gate_var_sets(root)
    ops: list[int] = []
    args: list[tuple[int, ...]] = []
    gaps: list[tuple[int, ...] | None] = []
    nvars: list[int] = []
    var_labels: list[Hashable] = []
    slot_of: dict[Hashable, int] = {}
    index: dict[int, int] = {}

    def emit(op: int, arg: tuple[int, ...], gap: tuple[int, ...] | None,
             nv: int) -> int:
        ops.append(op)
        args.append(arg)
        gaps.append(gap)
        nvars.append(nv)
        return len(ops) - 1

    kinds = circuit.kind_codes()
    for gate in sorted(var_sets):
        kind = kinds[gate]
        vset = var_sets[gate]
        if kind == VAR:
            label = circuit.label(gate)
            slot = slot_of.get(label)
            if slot is None:
                slot = slot_of[label] = len(var_labels)
                var_labels.append(label)
            index[gate] = emit(OP_VAR, (slot,), None, 1)
        elif kind == TRUE:
            index[gate] = emit(OP_TRUE, (), None, 0)
        elif kind == FALSE:
            index[gate] = emit(OP_FALSE, (), None, 0)
        elif kind == NOT:
            child = circuit.children(gate)[0]
            if kinds[child] == VAR:
                label = circuit.label(child)
                slot = slot_of.get(label)
                if slot is None:
                    slot = slot_of[label] = len(var_labels)
                    var_labels.append(label)
                index[gate] = emit(OP_NVAR, (slot,), None, 1)
            else:
                index[gate] = emit(
                    OP_NOT, (index[child],), None, len(vset)
                )
        elif kind == AND:
            index[gate] = emit(
                OP_AND,
                tuple(index[c] for c in circuit.children(gate)),
                None,
                len(vset),
            )
        else:  # OR
            children = circuit.children(gate)
            index[gate] = emit(
                OP_OR,
                tuple(index[c] for c in children),
                tuple(len(vset) - len(var_sets[c]) for c in children),
                len(vset),
            )
    return GateTape(ops, args, gaps, nvars, var_labels, len(var_sets))
