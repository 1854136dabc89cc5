"""Top-down knowledge compiler: CNF -> decision-DNNF.

This is the library's stand-in for the c2d compiler used in the paper.
It performs exhaustive DPLL search with the three classic ingredients of
model-counting compilers (c2d, Dsharp, sharpSAT):

* unit propagation at every node;
* decomposition into connected components, compiled independently and
  conjoined (such AND gates are decomposable by construction);
* caching of residual components so shared subproblems compile once.

Branching on a variable ``v`` produces the gate
``(v AND C|v=1) OR (not v AND C|v=0)``, which is deterministic by
construction.  The output is therefore a d-DNNF — exactly the circuit
class required by Algorithm 1 of the paper.

The search works on bitsets, never on rebuilt clauses.  Each
compilation scope indexes its clauses once (:class:`_Index`): clause
ids in input order, variable ids ranked by value, per variable the
masks of the clauses it occurs in positively and negatively, per clause
the masks of its variables and of its positive ones.  A *residual* —
what is left to compile at a search node — is then a pair of Python
ints, ``(clause mask, variable mask)``: the clauses not yet satisfied
and the variables not yet assigned.  Assigning a literal clears the
clauses it satisfies with one AND-NOT and visits only the active
clauses holding the falsified literal; the popcount of a visited
clause's free variables tells a conflict (0) from a unit (1), and units
are propagated in FIFO order.  Connected components grow from the
lowest active clause id by alternating clause and variable masks, and
the residual cache is keyed on a component's ``(clause mask, variable
mask)`` pair, as sharpSAT keys its component cache.

On top of the run-local residual cache, *top-level* components are
memoized **across** compilations: every connected component of the
unit-propagated input with at least :data:`MEMO_MIN_COMPONENT_VARS`
variables is renamed into a canonical, rename-invariant form
(:func:`canonical_component`), compiled standalone over the canonical
variables, and published to a :class:`ComponentMemo`.  A later compile
— of the same shape or of a *different* shape that happens to contain
an isomorphic sub-circuit — looks the component up and stitches the
memoized circuit into its output instead of recompiling.  The stitching
import is deterministic (a bottom-up sweep in gate-id order), so fresh
and memoized compilations produce byte-identical circuits.
Memoization deliberately stops at the top level: residual
components deeper in the search reuse the run-local cache instead —
canonicalizing every nested residual costs more than it saves and
fragments the residual cache that makes inline compilation fast.

Compilation of an arbitrary CNF into d-DNNF is FP^#P-hard, so the
compiler supports *budgets* (node count and wall clock).  Exceeding a
budget raises :class:`BudgetExceeded`; the benchmark harness records
those events as the paper's out-of-memory / timeout failures.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..circuits.circuit import AND, FALSE, NOT, TRUE, VAR, Circuit
from ..circuits.cnf import Cnf

Clause = tuple[int, ...]
ClauseSet = tuple[Clause, ...]
#: A deadline poll: raises :class:`BudgetExceeded` once a run's
#: wall-clock budget is spent.
Poll = Callable[[], None]

#: Components with fewer variables than this are compiled inline: for
#: tiny subproblems the canonicalization + stitching overhead exceeds
#: the cost of just recompiling them.
MEMO_MIN_COMPONENT_VARS = 8

#: Version tag embedded in persisted component circuits.  Any change to
#: the compiler that alters the *structure* of compiled components must
#: bump this so stale ``.comp`` artifacts become clean misses instead of
#: breaking cross-run signature parity.
COMPONENT_SCHEME = 2

#: Color-refinement rounds for :func:`canonical_component`.  Refinement
#: also stops early once the variable partition is discrete or stable.
_REFINEMENT_ROUNDS = 12


class BudgetExceeded(RuntimeError):
    """The compilation exceeded its node or time budget.

    Plays the role of the OOM/timeout failures reported in the paper's
    experiments (Section 6.1).
    """


@dataclass(frozen=True)
class CompilationBudget:
    """Resource limits for a compilation run.

    ``max_nodes`` bounds the number of circuit gates created (a memory
    proxy); ``max_seconds`` bounds wall-clock time.  ``None`` disables a
    limit.  Frozen, so options that carry a budget hash and can be
    shared.
    """

    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass
class CompilationStats:
    """Counters reported after a compilation.

    The ``component_*`` counters describe the cross-run memoization
    layer: ``component_hits`` sub-circuits were stitched from the memo,
    ``component_misses`` were not found, and ``component_compilations``
    standalone canonical compiles ran (at most one per distinct
    canonical form per run).  ``component_seconds`` is the wall-clock
    spent inside outermost canonical compiles and ``stitch_seconds``
    the time spent importing memoized circuits into the caller — both
    are attributed once (never double-counted across nesting levels).
    """

    decisions: int = 0
    cache_hits: int = 0
    cache_entries: int = 0
    components_split: int = 0
    component_hits: int = 0
    component_misses: int = 0
    component_compilations: int = 0
    component_seconds: float = 0.0
    stitch_seconds: float = 0.0
    seconds: float = 0.0
    nodes: int = 0


@dataclass
class CompilationResult:
    """A compiled d-DNNF circuit together with run statistics."""

    circuit: Circuit
    stats: CompilationStats = field(default_factory=CompilationStats)


class ComponentMemo:
    """Interface of the cross-run component-circuit memo.

    Implementations must be safe to call from multiple threads.  Keys
    are canonical clause sets (:func:`canonical_component`); values are
    compiled d-DNNF circuits over the canonical variables ``1..k``
    (labels are the plain ints).  ``publish`` may be called twice for
    the same key by concurrent compilers — the compile is deterministic,
    so both circuits are identical and either write may win.
    """

    def lookup(self, key: ClauseSet) -> Circuit | None:
        raise NotImplementedError

    def publish(self, key: ClauseSet, circuit: Circuit) -> None:
        raise NotImplementedError


class _DictMemo(ComponentMemo):
    """Run-local fallback memo (no persistence, no bound)."""

    def __init__(self) -> None:
        self._entries: dict[ClauseSet, Circuit] = {}

    def lookup(self, key: ClauseSet) -> Circuit | None:
        return self._entries.get(key)

    def publish(self, key: ClauseSet, circuit: Circuit) -> None:
        self._entries[key] = circuit


def _ids(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


class _Index:
    """Bitset index of one compilation scope's clauses, built once.

    Clause ids follow input order and variable ids rank the variables
    by value, so "lowest id" agrees with "first clause" and "smallest
    variable".  Per variable id it holds the masks of the clauses the
    variable occurs in positively (:attr:`pos`), negatively
    (:attr:`neg`) and either way (:attr:`occ`); per clause id the mask
    of its variables (:attr:`clause_vars`) and of those occurring
    positively (:attr:`clause_pos`).  Repeated literals are merged and
    tautologies dropped, so a clause's width under an assignment is the
    popcount of its free variables.

    Setting a bit ``c`` copies a mask of ``c`` bits, so the build is
    quadratic in the clause count; ``poll``, when given, is called every
    1,024 clauses.
    """

    __slots__ = (
        "variables", "pos", "neg", "occ", "clause_vars", "clause_pos",
        "all_clauses", "all_vars",
    )

    def __init__(
        self, clauses: Iterable[Clause], poll: Poll | None = None
    ) -> None:
        kept: list[Clause] = []
        for clause in clauses:
            lits = tuple(dict.fromkeys(clause))
            if not any(-lit in lits for lit in lits):
                kept.append(lits)
        self.variables = sorted({abs(lit) for clause in kept for lit in clause})
        var_id = {var: i for i, var in enumerate(self.variables)}
        self.pos = pos = [0] * len(var_id)
        self.neg = neg = [0] * len(var_id)
        self.clause_vars: list[int] = []
        self.clause_pos: list[int] = []
        for c, clause in enumerate(kept):
            if poll is not None and not c & 1023:
                poll()
            here = 1 << c
            variables = positive = 0
            for lit in clause:
                i = var_id[abs(lit)]
                variables |= 1 << i
                if lit > 0:
                    positive |= 1 << i
                    pos[i] |= here
                else:
                    neg[i] |= here
            self.clause_vars.append(variables)
            self.clause_pos.append(positive)
        self.occ = [p | n for p, n in zip(pos, neg)]
        self.all_clauses = (1 << len(kept)) - 1
        self.all_vars = (1 << len(var_id)) - 1

    def assign(self, clauses: int, free: int, var: int, value: bool,
               trail: list[tuple[int, bool]]) -> tuple[int, int] | None:
        """Assign ``var`` and unit-propagate in FIFO order.

        Every literal assigned is appended to ``trail`` as ``(variable
        id, value)``.  Returns the residual ``(clauses, free)`` or
        ``None`` on a conflict.  Only the active clauses containing a
        falsified literal are visited: with no free variable left such
        a clause is a conflict, with one it is a unit.
        """
        pos, neg = self.pos, self.neg
        clause_vars, clause_pos = self.clause_vars, self.clause_pos
        clauses &= ~(pos[var] if value else neg[var])
        free &= ~(1 << var)
        head = len(trail)
        trail.append((var, value))
        while head < len(trail):
            var, value = trail[head]
            head += 1
            touched = (neg[var] if value else pos[var]) & clauses
            while touched:
                low = touched & -touched
                touched ^= low
                if not clauses & low:
                    continue  # satisfied by a unit found meanwhile
                rest = clause_vars[low.bit_length() - 1] & free
                if not rest:
                    return None
                if not rest & (rest - 1):
                    unit = rest.bit_length() - 1
                    positive = bool(clause_pos[low.bit_length() - 1] & rest)
                    clauses &= ~(pos[unit] if positive else neg[unit])
                    free ^= rest
                    trail.append((unit, positive))
        return clauses, free

    def components(self, clauses: int, free: int) -> list[tuple[int, int]]:
        """Split a residual into connected ``(clauses, free)`` components.

        Each component grows from the lowest remaining clause id,
        alternately by the clauses its new variables occur in and the
        free variables of its new clauses, so components come out in
        order of their first clause.
        """
        occ, clause_vars = self.occ, self.clause_vars
        found = []
        remaining = clauses
        while remaining:
            seed = remaining & -remaining
            remaining ^= seed
            comp_clauses = seed
            comp_vars = frontier = clause_vars[seed.bit_length() - 1] & free
            while frontier:
                grown = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    grown |= occ[low.bit_length() - 1]
                grown &= remaining
                remaining ^= grown
                comp_clauses |= grown
                reached = 0
                while grown:
                    low = grown & -grown
                    grown ^= low
                    reached |= clause_vars[low.bit_length() - 1]
                frontier = reached & free & ~comp_vars
                comp_vars |= frontier
            found.append((comp_clauses, comp_vars))
        return found

    def select(self, clauses: int, free: int) -> int:
        """Branch on a variable of the widest clause.

        Crucial for lineage-shaped CNFs: a projected answer yields one
        wide disjunction clause over per-derivation auxiliaries.
        Branching inside that clause either satisfies it (decomposing
        the residual into independent derivation blocks) or shrinks it
        deterministically, keeping the number of distinct cached
        residuals linear.  Generic SAT heuristics branch elsewhere and
        generate exponentially many long-clause remnants.

        Among the first widest clause's variables, the one occurring in
        the most active clauses is chosen, the smallest on ties; this
        also favours decomposition.  Residuals are unit-free, so when no
        clause is wider than two all of them are binary and MOMS (most
        occurrences in minimum-width clauses) picks the most frequent
        free variable instead, again the smallest on ties.
        """
        clause_vars = self.clause_vars
        best = 0
        rest = clauses
        while rest:
            low = rest & -rest
            rest ^= low
            width = (clause_vars[low.bit_length() - 1] & free).bit_count()
            if width > best:
                best, widest = width, low.bit_length() - 1
        candidates = clause_vars[widest] & free if best > 2 else free
        occ = self.occ
        return max(
            _ids(candidates), key=lambda v: ((occ[v] & clauses).bit_count(), -v)
        )

    def residual(self, clauses: int, free: int) -> ClauseSet:
        """A residual as clause tuples over its free variables, sorted
        into the form :func:`canonical_component` consumes."""
        variables, clause_pos = self.variables, self.clause_pos
        return _canonical(tuple(
            tuple(variables[i] if clause_pos[c] >> i & 1 else -variables[i]
                  for i in _ids(self.clause_vars[c] & free))
            for c in _ids(clauses)
        ))


def _top_level_split(
    index: _Index, min_vars: int | None, poll: Poll | None = None
) -> tuple[list[tuple[int, bool]], list[tuple[int, int, tuple | None]]] | None:
    """Unit-propagate a whole clause list and split what is left.

    Returns ``None`` on a conflict, else ``(trail, components)``: the
    forced literals, and per connected component (in order of its first
    clause) its ``(clauses, free, form)``.  ``form`` is the
    :func:`canonical_component` of the component when it has at least
    ``min_vars`` variables, else (and always when ``min_vars`` is
    ``None``) ``None``.  :meth:`_Compiler.run` and
    :func:`plan_components` both split through here, so a plan names
    exactly the components a compile will look up.  ``poll`` is called
    per unit propagated and per component, and handed to
    :func:`canonical_component`.
    """
    clauses, free = index.all_clauses, index.all_vars
    trail: list[tuple[int, bool]] = []
    for c, variables in enumerate(index.clause_vars):
        if variables & (variables - 1) or not clauses >> c & 1:
            continue  # wider than one literal, or satisfied already
        rest = variables & free
        if not rest:
            return None
        if poll is not None:
            poll()
        state = index.assign(
            clauses, free, rest.bit_length() - 1,
            bool(index.clause_pos[c]), trail,
        )
        if state is None:
            return None
        clauses, free = state
    components = []
    for comp_clauses, comp_vars in index.components(clauses, free):
        if poll is not None:
            poll()
        form = None
        if min_vars is not None and comp_vars.bit_count() >= min_vars:
            form = canonical_component(
                index.residual(comp_clauses, comp_vars), poll)
        components.append((comp_clauses, comp_vars, form))
    return trail, components


class _IdentityLabels:
    """Label table of canonical compiles: variable ``v`` is labelled
    by the plain int ``v``."""

    def get(self, var: int, default: object = None) -> int:
        return var


_IDENTITY_LABELS = _IdentityLabels()


class _RunContext:
    """State shared by every (possibly nested) compiler of one run.

    Budget, deadline, memo, and stats are all per-*run*: a canonical
    component compile spawned three levels deep still counts against the
    same node budget and reports into the same
    :class:`CompilationStats`.  A run is one thread's call of
    :func:`compile_cnf` or :func:`compile_component`, each of which
    builds its own context, so nothing here is locked.
    """

    def __init__(
        self,
        budget: CompilationBudget | None,
        memo: ComponentMemo | None,
        memoize: bool,
        min_vars: int,
    ) -> None:
        self.budget = budget or CompilationBudget()
        self.memo = memo if memo is not None else _DictMemo()
        self.memoize = memoize
        self.min_vars = min_vars
        self.stats = CompilationStats()
        self.start = time.perf_counter()
        self.deadline = (
            self.start + self.budget.max_seconds
            if self.budget.max_seconds is not None
            else None
        )
        #: Gates living in *finished* canonical sub-circuits of this
        #: run; the in-flight compiler adds its own ``len(circuit)`` on
        #: top when checking the node budget.
        self.foreign_nodes = 0
        #: Shared budget-check tick.  Must be run-wide, not
        #: per-compiler: nested canonical compiles are often tiny, and
        #: a per-compiler tick would let deep recursions dodge the
        #: every-64th deadline check forever.
        self.tick = 0
        #: Nesting depth of canonical compiles, so their time is
        #: attributed once, to the outermost.
        self.depth = 0
        #: The deadline poll handed to the index build, the top-level
        #: split and its canonicalization, which run long stretches
        #: without a budget check; ``None`` when the run has no
        #: deadline.
        self.poll: Poll | None = (
            self.check_deadline if self.deadline is not None else None)

    def check_deadline(self) -> None:
        """Raise :class:`BudgetExceeded` once the deadline has passed."""
        if time.perf_counter() > self.deadline:
            raise BudgetExceeded(
                f"time budget exceeded ({self.budget.max_seconds}s)"
            )


class _Compiler:
    """One compilation scope (internal).

    The user-facing run and every canonical component compile each get
    their own ``_Compiler`` (own clause index, circuit and residual
    cache) over a shared :class:`_RunContext`.
    """

    def __init__(
        self,
        clauses: Iterable[Clause],
        labels,
        context: _RunContext,
    ) -> None:
        self.index = _Index(clauses, context.poll)
        self.labels = labels
        self.context = context
        self.stats = context.stats
        self.circuit = Circuit()
        #: (clause mask, variable mask) of a residual -> its gate.
        self.cache: dict[tuple[int, int], int] = {}
        #: (variable id, value) -> literal gate.
        self._literals: dict[tuple[int, bool], int] = {}

    # -- bookkeeping ---------------------------------------------------

    def _check_budget(self) -> None:
        context = self.context
        context.tick += 1
        budget = context.budget
        if budget.max_nodes is not None:
            total = len(self.circuit) + context.foreign_nodes
            if total > budget.max_nodes:
                raise BudgetExceeded(
                    f"node budget exceeded ({total} > {budget.max_nodes})"
                )
        if context.poll is not None and context.tick % 64 == 0:
            context.poll()

    def _lit_gate(self, var: int, value: bool) -> int:
        gate = self._literals.get((var, value))
        if gate is None:
            var_label = self.index.variables[var]
            label = self.labels.get(var_label, ("z", var_label))
            gate = self._literals[var, value] = self.circuit.literal(label, value)
        return gate

    # -- core recursion ------------------------------------------------

    def run(self) -> int:
        ctx = self.context
        split = _top_level_split(
            self.index, ctx.min_vars if ctx.memoize else None, ctx.poll
        )
        if split is None:
            return self.circuit.false()
        trail, comps = split
        gates = [self._lit_gate(var, value) for var, value in trail]
        if len(comps) > 1:
            self.stats.components_split += 1
        gates.extend(
            self._compile_component(clauses, free, form)
            for clauses, free, form in comps
        )
        return self.circuit.and_(gates)

    def _compile_component(self, clauses: int, free: int, form=None) -> int:
        """The gate of one connected residual; a top-level component
        with a canonical ``form`` is stitched from the memo."""
        self._check_budget()
        key = (clauses, free)
        cached = self.cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        if form is not None:
            gate = self._stitch(*form)
        else:
            gate = self._branch(clauses, free)
        self.cache[key] = gate
        self.stats.cache_entries += 1
        return gate

    def _branch(self, clauses: int, free: int) -> int:
        index = self.index
        var = index.select(clauses, free)
        self.stats.decisions += 1
        branches = []
        for value in (True, False):
            trail: list[tuple[int, bool]] = []
            residual = index.assign(clauses, free, var, value, trail)
            if residual is None:
                continue
            gates = [self._lit_gate(v, val) for v, val in trail]
            if residual[0]:
                comps = index.components(*residual)
                if len(comps) > 1:
                    self.stats.components_split += 1
                for comp in comps:
                    gates.append(self._compile_component(*comp))
            branches.append(self.circuit.and_(gates))
        # A branch gate always conjoins its decision literal, so it is
        # never constant-TRUE; or_ only strips impossible (FALSE)
        # branches, which preserves determinism.
        return self.circuit.or_(branches)

    # -- cross-run memoization -----------------------------------------

    def _stitch(self, canon: ClauseSet, order: tuple[int, ...]) -> int:
        """Compile (or fetch) a component's canonical form ``canon`` and
        import the resulting sub-circuit, renaming canonical variables
        back through ``order``."""
        ctx = self.context
        sub = ctx.memo.lookup(canon)
        if sub is not None:
            self.stats.component_hits += 1
        else:
            self.stats.component_misses += 1
            sub = _compile_canonical(canon, ctx)
        outermost = ctx.depth == 0
        started = time.perf_counter()
        gate = self._import_component(sub, order)
        if outermost:
            self.stats.stitch_seconds += time.perf_counter() - started
        return gate

    def _import_component(self, sub: Circuit, order: tuple[int, ...]) -> int:
        """Deterministic bottom-up import of ``sub`` into this circuit.

        Gates are visited in ``sub``'s gate-id order (stable across
        serialization round trips, whose dense renumbering is monotone),
        so the ids created here — and therefore the final circuit — are
        byte-identical no matter where ``sub`` came from: a fresh
        compile, the in-memory memo, or disk.
        """
        circuit = self.circuit
        labels = self.labels
        root = sub.output_gate()
        flags = sub.reachable(root)
        kinds = sub.kind_codes()
        mapping: dict[int, int] = {}
        for gate in range(root + 1):
            if not flags[gate]:
                continue
            kind = kinds[gate]
            if kind == VAR:
                var = order[sub.label(gate) - 1]
                mapping[gate] = circuit.var(labels.get(var, ("z", var)))
            elif kind == TRUE:
                mapping[gate] = circuit.true()
            elif kind == FALSE:
                mapping[gate] = circuit.false()
            elif kind == NOT:
                mapping[gate] = circuit.not_(mapping[sub.children(gate)[0]])
            elif kind == AND:
                mapping[gate] = circuit.and_(
                    mapping[c] for c in sub.children(gate)
                )
            else:
                mapping[gate] = circuit.or_(
                    mapping[c] for c in sub.children(gate)
                )
        return mapping[root]


def _compile_canonical(canon: ClauseSet, context: _RunContext) -> Circuit:
    """Compile a canonical component standalone and publish it.

    The sub-compiler gets its own circuit and residual cache but shares
    the run context (budget, deadline, memo, stats).  The component is
    connected and unit-free by construction, so compilation starts
    directly at the branching step.
    """
    outermost = context.depth == 0
    context.depth += 1
    started = time.perf_counter()
    try:
        sub = _Compiler(canon, _IDENTITY_LABELS, context)
        index = sub.index
        sub.circuit.output = sub._branch(index.all_clauses, index.all_vars)
        context.foreign_nodes += len(sub.circuit)
    finally:
        elapsed = time.perf_counter() - started
        context.depth -= 1
    context.stats.component_compilations += 1
    if outermost:
        context.stats.component_seconds += elapsed
    context.memo.publish(canon, sub.circuit)
    return sub.circuit


def plan_components(
    cnf: Cnf, min_vars: int = MEMO_MIN_COMPONENT_VARS
) -> list[ClauseSet]:
    """The distinct canonical top-level components a compile of ``cnf``
    will request from its :class:`ComponentMemo`.

    Splits ``cnf`` through the same helper as :meth:`_Compiler.run`, so
    a *component pass* that compiles every returned key into a shared
    memo guarantees the later full compile of ``cnf`` is pure stitching
    (every memo lookup hits).  Keys are returned once each, in
    first-occurrence order.  An unsatisfiable or fully unit-propagated
    CNF has no components.
    """
    split = _top_level_split(_Index(cnf.clauses), min_vars)
    if split is None:
        return []
    return list(dict.fromkeys(form[0] for _, _, form in split[1] if form))


def compile_component(
    canon: ClauseSet,
    memo: ComponentMemo,
    budget: CompilationBudget | None = None,
) -> bool:
    """Ensure one canonical component is available in ``memo``.

    The unit of the pipelined component-compile pass: looks ``canon``
    up and — on a miss — compiles it standalone and publishes it, just
    as a full compile's :meth:`_Compiler._stitch` would.  Returns
    ``True`` when a standalone compile actually ran, ``False`` on a
    memo (or store) hit.  The compile is byte-identical to the one the
    stitching path would have produced, so running the pass ahead of
    time cannot perturb any downstream circuit.  Budget and failure
    semantics match the inline path: :class:`BudgetExceeded` (or any
    compile error) propagates and nothing is published.
    """
    if memo.lookup(canon) is not None:
        return False
    context = _RunContext(budget, memo, True, MEMO_MIN_COMPONENT_VARS)
    num_vars = max((abs(lit) for clause in canon for lit in clause), default=0)
    with _recursion_headroom(num_vars):
        _compile_canonical(canon, context)
    return True


def canonical_component(
    clauses: ClauseSet, poll: Poll | None = None
) -> tuple[ClauseSet, tuple[int, ...]]:
    """Rename-invariant canonical form of a component clause set.

    Returns ``(canonical_clauses, order)`` where ``order[i]`` is the
    original variable renamed to canonical variable ``i + 1``.  Two
    clause sets that differ only by a variable bijection map to the same
    canonical clauses whenever bounded color refinement separates the
    variables (ties may yield different canonical forms — a missed memo
    hit, never a wrong one: equal canonical forms are by construction
    literally isomorphic clause sets).

    Variables are colored by iterated Weisfeiler–Leman refinement over
    the clause incidence structure: the initial color is the multiset of
    ``(clause width, sign)`` occurrences, and each round re-colors a
    variable by the multiset of its clauses' colors (a clause's color
    being the multiset of its variables' colors with signs).  Colors are
    re-ranked to small ints every round, so nothing here depends on
    Python's randomized string hashing.

    A round costs more than linear time when a variable occurs in many
    clauses (every occurrence hashes its color, which grows with its
    occurrences), so ``poll``, when given, is called per clause of
    every round.
    """
    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    index = {var: i for i, var in enumerate(variables)}
    occurrences: list[list] = [[] for _ in variables]
    for clause in clauses:
        width = len(clause)
        for lit in clause:
            occurrences[index[abs(lit)]].append((width, lit > 0))
    colors: list = [tuple(sorted(occ)) for occ in occurrences]
    for _ in range(_REFINEMENT_ROUNDS):
        rank = {color: r for r, color in enumerate(sorted(set(colors)))}
        if len(rank) == len(variables):
            break  # discrete partition: every variable distinguished
        refined: list[list] = [[] for _ in variables]
        for clause in clauses:
            if poll is not None:
                poll()
            clause_color = tuple(
                sorted((rank[colors[index[abs(lit)]]], lit > 0) for lit in clause)
            )
            for lit in clause:
                refined[index[abs(lit)]].append((clause_color, lit > 0))
        new_colors = [
            (rank[colors[i]], tuple(sorted(refined[i])))
            for i in range(len(variables))
        ]
        if len(set(new_colors)) == len(rank):
            break  # stable partition: further rounds change nothing
        colors = new_colors
    rank = {color: r for r, color in enumerate(sorted(set(colors)))}
    order = tuple(
        sorted(variables, key=lambda v: (rank[colors[index[v]]], v))
    )
    renumber = {var: i + 1 for i, var in enumerate(order)}
    renamed = tuple(
        tuple(renumber[abs(lit)] if lit > 0 else -renumber[abs(lit)] for lit in clause)
        for clause in clauses
    )
    return _canonical(renamed), order


def _canonical(clauses: ClauseSet) -> ClauseSet:
    """Canonical cache key: sorted clauses of sorted literals."""
    return tuple(sorted(tuple(sorted(c, key=abs)) for c in clauses))


_headroom_lock = threading.Lock()
_headroom_users = 0
_headroom_saved = 0


@contextmanager
def _recursion_headroom(num_vars: int):
    """Raise the recursion limit for a compile over ``num_vars``
    variables.  The limit is process-global and compiles run in pool
    threads, so entries are reference-counted: the limit only grows
    while any compile is inside, and the one found by the first compile
    in is restored when the last one leaves."""
    global _headroom_users, _headroom_saved
    limit = max(10_000, 8 * num_vars + 1000)
    with _headroom_lock:
        if _headroom_users == 0:
            _headroom_saved = sys.getrecursionlimit()
        _headroom_users += 1
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        with _headroom_lock:
            _headroom_users -= 1
            if _headroom_users == 0:
                sys.setrecursionlimit(_headroom_saved)


def compile_cnf(
    cnf: Cnf,
    budget: CompilationBudget | None = None,
    *,
    memo: ComponentMemo | None = None,
    memoize_components: bool = True,
    component_min_vars: int = MEMO_MIN_COMPONENT_VARS,
) -> CompilationResult:
    """Compile a CNF into a d-DNNF circuit.

    Parameters
    ----------
    cnf:
        The input formula.  Variable labels are carried over to circuit
        variable labels; unlabelled variables become ``("z", index)``.
    budget:
        Optional :class:`CompilationBudget`; raises
        :class:`BudgetExceeded` when exhausted.
    memo:
        Cross-run :class:`ComponentMemo`.  ``None`` uses a run-local
        dict, which still dedupes isomorphic components *within* this
        compile; pass the engine cache's memo to share compiled
        components across shapes, runs, and (with a persistent store)
        processes.
    memoize_components:
        ``False`` restores the purely inline compiler (no
        canonicalization, no memo traffic) — the baseline the benchmarks
        compare against.
    component_min_vars:
        Minimum component size (in variables) worth memoizing.

    Returns a :class:`CompilationResult` whose circuit is deterministic
    and decomposable by construction.
    """
    with _recursion_headroom(cnf.num_vars):
        context = _RunContext(
            budget, memo, memoize_components, component_min_vars
        )
        run = _Compiler(cnf.clauses, cnf.labels, context)
        run.circuit.output = run.run()
        context.stats.seconds = time.perf_counter() - context.start
        context.stats.nodes = len(run.circuit)
        return CompilationResult(run.circuit, context.stats)


def compile_circuit(
    circuit: Circuit,
    budget: CompilationBudget | None = None,
    *,
    memo: ComponentMemo | None = None,
) -> CompilationResult:
    """Compile an arbitrary Boolean circuit into a d-DNNF over the *same*
    variables.

    Implements the full middle path of the paper's Figure 3: Tseytin
    transformation, CNF compilation, then elimination of the auxiliary
    variables with Lemma 4.6.
    """
    from ..circuits.dnnf import eliminate_auxiliary
    from ..circuits.tseytin import tseytin_transform

    cnf = tseytin_transform(circuit)
    result = compile_cnf(cnf, budget=budget, memo=memo)
    keep = set(cnf.labels.values())
    cleaned = eliminate_auxiliary(result.circuit, keep)
    result_stats = result.stats
    result_stats.nodes = len(cleaned)
    return CompilationResult(cleaned, result_stats)
