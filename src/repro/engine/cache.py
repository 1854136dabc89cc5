"""Artifact cache: compile each distinct lineage *shape* once.

Answer tuples of the same query typically have isomorphic lineages —
the same circuit with different fact labels.  The exact pipeline spends
almost all of its time in knowledge compilation, which branches on the
CNF's integer literals and never looks at labels, so the compiled
d-DNNF of two isomorphic lineages differs only by a variable renaming.

:class:`ArtifactCache` exploits this: artifacts (Tseytin CNFs,
auxiliary-eliminated d-DNNFs, and their compiled
:class:`~repro.core.numerics.tape.GateTape`s) are stored under the
circuit's canonical
:meth:`~repro.circuits.circuit.Circuit.structural_signature` with
variable labels replaced by canonical indices, and renamed back to the
request's actual labels on every hit.  Isomorphic lineages across
answer tuples — and across methods sharing one cache — therefore
compile once.  The renamed d-DNNF represents exactly the same Boolean
function over the requested labels, so Algorithm 1 returns Shapley
values identical to the uncached path.

With a :class:`~repro.engine.store.PersistentArtifactStore` attached,
the cache becomes the first tier of a two-tier hierarchy: in-memory
misses consult the disk store before compiling, and fresh compilations
are written back, extending compile-once across processes and runs.

Each entry also keeps, in memory only, its shape's Shapley values,
published by :class:`~repro.engine.session.ExplainSession` after a
batch: a later batch relabels them instead of dispatching the shape
again (see :meth:`CircuitArtifacts.shapley_values`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Hashable, Mapping

from ..circuits.circuit import VAR, Circuit
from ..circuits.cnf import Cnf
from ..circuits.dnnf import eliminate_auxiliary
from ..circuits.tseytin import tseytin_transform
from ..compiler.knowledge import (
    BudgetExceeded,
    CompilationBudget,
    CompilationStats,
    ComponentMemo,
    compile_cnf,
    plan_components,
)
from ..core.numerics.tape import GateTape, compile_tape
from ..core.shapley import efficiency_gap
from .store import PersistentArtifactStore, signature_digest

if TYPE_CHECKING:  # pragma: no cover - the pipeline imports this module
    from ..core.pipeline import ProvenanceStats


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ArtifactCache`.

    ``compile_calls`` counts actual invocations of the knowledge
    compiler — the acceptance metric for lineage reuse: on a workload
    with repeated lineage shapes it stays well below the number of
    answers explained.
    """

    cnf_hits: int = 0
    cnf_misses: int = 0
    ddnnf_misses: int = 0
    tape_hits: int = 0
    tape_misses: int = 0
    compile_calls: int = 0
    compile_failures: int = 0
    #: Gate-tape lowerings actually performed (the tape analogue of
    #: ``compile_calls``): zero on a warm store means every shape's
    #: traversal was skipped entirely.
    tape_compilations: int = 0
    evictions: int = 0
    #: Answers served by the machine-width tier (level-scheduled
    #: float64/int64/CRT execution) vs. answers whose shape fell back
    #: to the interpreted reference pass.  ``fastpath_fallbacks`` is
    #: the total; the four reason counters split it: a runtime
    #: overflow sentinel tripped, the tier was ineligible (no NumPy, or
    #: the tape's structure), one plane's value buffer exceeded the
    #: fast path's size ceiling, or the shape was too small for the
    #: tier to pay off.
    fastpath_hits: int = 0
    fastpath_fallbacks: int = 0
    fastpath_overflow_fallbacks: int = 0
    fastpath_ineligible_fallbacks: int = 0
    fastpath_budget_fallbacks: int = 0
    fastpath_small_fallbacks: int = 0
    #: Same-shape answer groups that shared one Algorithm-1 sweep per
    #: shape, and the answers they covered.
    batched_groups: int = 0
    batched_answers: int = 0
    #: Answers a session served from their shape's published canonical
    #: Shapley values (a relabel on the client: no dispatch, no sweep).
    shapley_reuse_hits: int = 0
    #: Shapley values refused at publication because they break the
    #: efficiency axiom (``sum == q(D) - q(Dx)``); never reused.
    invariant_violations: int = 0
    #: Cross-shape sub-circuit memoization (the PR 6 cold-path tier):
    #: connected components looked up by canonical clause-set signature.
    #: ``component_hits`` were stitched from memory or disk instead of
    #: recompiled; ``component_compilations`` counts standalone
    #: canonical compiles actually performed fleet-wide through this
    #: cache.
    component_hits: int = 0
    component_misses: int = 0
    component_compilations: int = 0
    component_evictions: int = 0
    #: Store-loaded artifacts rejected by ``verify_on_load`` spot
    #: checks (each one is recompiled instead of trusted); non-zero
    #: values flow into ``session.stats`` / socket ``remote_*``
    #: aggregates, flagging a poisoned store fleet-wide.
    verifier_violations: int = 0
    #: Batch-schedule counters.
    #: ``component_pass_compiles`` counts standalone compiles performed
    #: by the fleet-wide one-pass component phase (a subset of
    #: ``component_compilations``); ``stitch_jobs`` the per-shape stitch
    #: jobs dispatched once their components landed;
    #: ``pipeline_overlap_seconds`` the wall-clock during which compile
    #: and execute work genuinely overlapped (union-interval
    #: intersection).
    component_pass_compiles: int = 0
    stitch_jobs: int = 0
    pipeline_overlap_seconds: float = 0.0

    @property
    def hits(self) -> int:
        return self.cnf_hits + self.tape_hits

    @property
    def misses(self) -> int:
        return self.cnf_misses + self.ddnnf_misses + self.tape_misses

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class _Entry:
    """Canonical artifacts of one lineage shape (labels = 0..k-1)."""

    __slots__ = ("cnf", "plan", "ddnnf", "tape", "values")

    def __init__(self) -> None:
        self.cnf: Cnf | None = None
        #: :func:`plan_components` of ``cnf``, a pure function of it.
        self.plan: list | None = None
        self.ddnnf: Circuit | None = None
        self.tape: GateTape | None = None
        #: The shape's Shapley values indexed by canonical label, with
        #: the sizes of the answer that published them (see
        #: :meth:`CircuitArtifacts.shapley_values`).  Memory only, never
        #: stored on disk.
        self.values: tuple[tuple[Fraction, ...], ProvenanceStats] | None = None


def _relabel_cnf(cnf: Cnf, mapping: Mapping[Hashable, Hashable]) -> Cnf:
    """A copy of ``cnf`` with labels translated through ``mapping``.

    Clause tuples are shared (immutable); only the label dictionaries
    are rebuilt, so relabelling is O(#labelled vars), not O(formula).
    """
    clone = Cnf.__new__(Cnf)
    clone.num_vars = cnf.num_vars
    clone.clauses = list(cnf.clauses)
    clone.labels = {var: mapping[lbl] for var, lbl in cnf.labels.items()}
    clone._by_label = {lbl: var for var, lbl in clone.labels.items()}
    return clone


class _CacheComponentMemo(ComponentMemo):
    """The cache-backed :class:`ComponentMemo` handed to the compiler.

    Two tiers mirror the whole-shape artifacts: a bounded in-memory
    LRU of component circuits (``component_cache_size`` slots) over the
    cache's persistent store (``.comp`` artifacts), if attached.  A
    disk hit is promoted into memory; a publish lands in both.  All
    traffic is counted in the cache's ``component_*`` stats, which is
    how the counters reach ``session.stats`` and socket-worker
    ``remote_*`` aggregates without any extra plumbing.
    """

    def __init__(self, cache: "ArtifactCache") -> None:
        self._cache = cache
        self._entries: OrderedDict[tuple, Circuit] = OrderedDict()

    def __len__(self) -> int:
        with self._cache._lock:
            return len(self._entries)

    def lookup(self, key: tuple) -> Circuit | None:
        cache = self._cache
        with cache._lock:
            circuit = self._entries.get(key)
            if circuit is not None:
                self._entries.move_to_end(key)
                cache.stats.component_hits += 1
                return circuit
        store = cache.store
        if store is not None:
            circuit = store.load_component(key)
            if (
                circuit is not None
                and _valid_component(circuit, key)
                and cache.verify_loaded("comp", circuit)
            ):
                with cache._lock:
                    cache.stats.component_hits += 1
                self._insert(key, circuit)
                return circuit
        with cache._lock:
            cache.stats.component_misses += 1
        return None

    def publish(self, key: tuple, circuit: Circuit) -> None:
        cache = self._cache
        with cache._lock:
            cache.stats.component_compilations += 1
        self._insert(key, circuit)
        store = cache.store
        if store is not None:
            store.store_component(key, circuit)

    def _insert(self, key: tuple, circuit: Circuit) -> None:
        cache = self._cache
        bound = cache.component_cache_size
        if bound == 0:
            return
        with cache._lock:
            self._entries[key] = circuit
            self._entries.move_to_end(key)
            if bound is not None:
                while len(self._entries) > bound:
                    self._entries.popitem(last=False)
                    cache.stats.component_evictions += 1

    def clear(self) -> None:
        with self._cache._lock:
            self._entries.clear()


def _valid_component(circuit: Circuit, key: tuple) -> bool:
    """Sanity-check a store-loaded component circuit before stitching.

    The circuit's variable labels must be canonical ints within the
    key's variable range — anything else would crash (or silently
    corrupt) the import.  Structural validity is already guaranteed by
    ``Circuit.from_payload``; a bad label table here means the file was
    forged or damaged in a way the checksum missed, so treat it as a
    miss and let the caller recompile.
    """
    num_vars = max(
        (abs(lit) for clause in key for lit in clause), default=0
    )
    for gate in range(len(circuit)):
        if circuit.kind(gate) == VAR:
            label = circuit.label(gate)
            if not isinstance(label, int) or not 1 <= label <= num_vars:
                return False
    return True


class CircuitArtifacts:
    """Handle binding one circuit to its cache slot.

    Obtained from :meth:`ArtifactCache.open` (or :meth:`ArtifactCache.bind`
    of a remembered :attr:`canonical` form); computes the canonical
    signature once and serves both artifacts from it.  The handle can
    be threaded to an engine through
    :attr:`~repro.engine.base.EngineOptions.artifacts` so the (single)
    canonicalization pass it already paid is never repeated downstream.
    """

    __slots__ = (
        "_cache", "_entry", "signature", "labels", "_flat", "source_size",
        "compile_stats", "tape_lower_seconds", "_digest",
    )

    def __init__(
        self,
        cache: "ArtifactCache",
        entry: _Entry,
        signature: tuple,
        labels: tuple,
        flat: Circuit,
        source_size: int,
    ) -> None:
        self._cache = cache
        self._entry = entry
        self.signature = signature
        self.labels = labels
        #: the flattened circuit; superseded nested gates stay in it,
        #: unreachable from its output
        self._flat = flat
        #: gate count of the constant-propagated (pre-flatten) circuit,
        #: mirroring what the uncached pipeline reports as circuit_size
        self.source_size = source_size
        #: :class:`CompilationStats` of the d-DNNF compile this handle
        #: performed (``None`` when every request hit a cache tier) —
        #: the profile split reads component/stitch seconds from here.
        self.compile_stats: CompilationStats | None = None
        #: Wall-clock of the tape lowering this handle performed.
        self.tape_lower_seconds: float = 0.0
        self._digest: str | None = None

    @property
    def cache(self) -> "ArtifactCache":
        """The cache this handle is bound to (the exact pipeline
        reports its fast-path counters through it)."""
        return self._cache

    @property
    def canonical(self) -> tuple[Circuit, tuple, tuple, int]:
        """``(flat, signature, labels, source_size)``: the canonical
        form this handle was bound from.  :meth:`ArtifactCache.bind` of
        it is a fresh handle of the same circuit, with no per-call
        state."""
        return self._flat, self.signature, self.labels, self.source_size

    @property
    def digest(self) -> str:
        """The store digest of :attr:`signature`, hashed once per handle
        however many store files the handle reads, writes or probes."""
        if self._digest is None:
            self._digest = signature_digest(self.signature)
        return self._digest

    def shapley_values(
        self,
    ) -> tuple[tuple[Fraction, ...], ProvenanceStats] | None:
        """The Shapley values published for this shape — entry ``k`` is
        the value of ``labels[k]`` — with the publishing answer's
        sizes, or ``None``.

        By the null-player axiom a circuit's facts have the same values
        whatever players lie outside it, so the shape alone keys them.
        """
        return self._entry.values

    def publish_shapley_values(
        self, values: Mapping[Hashable, Fraction], stats: ProvenanceStats
    ) -> None:
        """Record one answer's Shapley values (keyed by this handle's
        labels) as the shape's canonical values; the first publish
        wins.

        Values that break the efficiency axiom on the handle's circuit
        are refused and counted in ``invariant_violations``; a cache
        that stores nothing (``max_entries=0``) keeps no values.
        """
        entry = self._entry
        cache = self._cache
        if entry.values is not None or cache.max_entries == 0:
            return
        if efficiency_gap(values, self._flat, self.labels):
            with cache._lock:
                cache.stats.invariant_violations += 1
            return
        canonical = tuple(values[label] for label in self.labels)
        with cache._lock:
            if entry.values is None:
                entry.values = (canonical, stats)

    def _to_canonical(self) -> dict[Hashable, int]:
        return {label: index for index, label in enumerate(self.labels)}

    def _to_actual(self) -> dict[int, Hashable]:
        return dict(enumerate(self.labels))

    def _canonical_cnf(self) -> tuple[Cnf, bool]:
        """The canonical CNF of this shape, plus whether it was a hit."""
        with self._cache._lock:
            canonical = self._entry.cnf
        if canonical is not None:
            return canonical, True
        store = self._cache.store
        if store is not None:
            canonical = store.load_cnf(self.signature, self.digest)
            if canonical is not None:
                return self._publish_cnf(canonical), False
        # Tseytin numbers CNF variables by gate order, which is
        # label-independent, so transforming the actual-labelled circuit
        # and canonicalizing its label map is equivalent to (and cheaper
        # than) transforming a canonically renamed copy.
        real = tseytin_transform(self._flat)
        canonical = self._publish_cnf(
            _relabel_cnf(real, self._to_canonical())
        )
        if store is not None:
            store.store_cnf(self.signature, canonical, self.digest)
        return canonical, False

    def _publish_cnf(self, canonical: Cnf) -> Cnf:
        """Install a freshly built/loaded CNF, losing races gracefully."""
        with self._cache._lock:
            if self._entry.cnf is None:
                self._entry.cnf = canonical
            return self._entry.cnf

    def _counted_cnf(self) -> Cnf:
        """The canonical CNF, counted as one CNF hit or miss."""
        canonical, hit = self._canonical_cnf()
        stats = self._cache.stats
        with self._cache._lock:
            if hit:
                stats.cnf_hits += 1
            else:
                stats.cnf_misses += 1
        return canonical

    def cnf(self) -> Cnf:
        """The Tseytin CNF of the circuit, labelled with its facts."""
        return _relabel_cnf(self._counted_cnf(), self._to_actual())

    def cnf_size(self) -> tuple[int, int]:
        """``(num_vars, num_clauses)`` of :meth:`cnf`, read from the
        canonical CNF without relabelling a copy; counted like
        :meth:`cnf`."""
        canonical = self._counted_cnf()
        return canonical.num_vars, canonical.num_clauses

    def _canonical_ddnnf(self, budget: CompilationBudget | None) -> Circuit:
        """The canonical (index-labelled) d-DNNF of this shape.

        On a miss, compilation runs under ``budget`` and
        :class:`~repro.compiler.knowledge.BudgetExceeded` propagates;
        failures are not cached, so a later call with a larger budget
        retries."""
        with self._cache._lock:
            canonical = self._entry.ddnnf
        if canonical is None:
            return self._miss_ddnnf(budget)
        return canonical

    def tape(self, budget: CompilationBudget | None = None) -> GateTape:
        """The compiled gate tape of the d-DNNF, re-targeted at the
        circuit's facts.

        On a hit (memory or store) no circuit is traversed at all: the
        canonical tape's instruction arrays are shared and only its
        O(#vars) label table is rebuilt — this is what lets warm shapes
        skip straight to kernel arithmetic, across processes and socket
        workers.  On a miss the canonical d-DNNF is obtained first
        (compiling under ``budget`` if needed, with
        :class:`~repro.compiler.knowledge.BudgetExceeded` propagating)
        and lowered once; the result is published to both tiers.
        """
        cache = self._cache
        with cache._lock:
            canonical = self._entry.tape
        if canonical is None:
            canonical = self._miss_tape(budget)
        else:
            with cache._lock:
                cache.stats.tape_hits += 1
        return canonical.with_labels(self._to_actual())

    def _miss_tape(self, budget: CompilationBudget | None) -> GateTape:
        """Memory-tier miss: consult the persistent store, then lower
        the (cached or freshly compiled) canonical d-DNNF."""
        cache = self._cache
        store = cache.store
        if store is not None:
            loaded = store.load_tape(self.signature, self.digest)
            if loaded is not None and cache.verify_loaded("tape", loaded):
                with cache._lock:
                    if self._entry.tape is None:
                        self._entry.tape = loaded
                    cache.stats.tape_misses += 1
                    return self._entry.tape
        ddnnf = self._canonical_ddnnf(budget)
        with cache._lock:
            cache.stats.tape_compilations += 1
        lower_started = time.perf_counter()
        tape = compile_tape(ddnnf)
        self.tape_lower_seconds += time.perf_counter() - lower_started
        with cache._lock:
            if self._entry.tape is None:
                self._entry.tape = tape
            else:
                tape = self._entry.tape
            cache.stats.tape_misses += 1
        if store is not None:
            store.store_tape(self.signature, tape, self.digest)
        return tape

    def _miss_ddnnf(self, budget: CompilationBudget | None) -> Circuit:
        """Memory-tier miss: consult the persistent store, then compile
        — stitching memoized sub-circuits through the cache's component
        memo wherever the shape contains a known component."""
        cache = self._cache
        store = cache.store
        if store is not None:
            loaded = store.load_ddnnf(self.signature, self.digest)
            if loaded is not None and cache.verify_loaded("dnnf", loaded):
                with cache._lock:
                    if self._entry.ddnnf is None:
                        self._entry.ddnnf = loaded
                    cache.stats.ddnnf_misses += 1
                    return self._entry.ddnnf
        cnf, _ = self._canonical_cnf()
        with cache._lock:
            cache.stats.compile_calls += 1
        try:
            compiled = compile_cnf(
                cnf, budget=budget, memo=cache.component_memo()
            )
        except BudgetExceeded:
            with cache._lock:
                cache.stats.compile_failures += 1
                cache.stats.ddnnf_misses += 1
            raise
        self.compile_stats = compiled.stats
        canonical = eliminate_auxiliary(
            compiled.circuit, set(cnf.labels.values())
        )
        with cache._lock:
            if self._entry.ddnnf is None:
                self._entry.ddnnf = canonical
            else:
                canonical = self._entry.ddnnf
            cache.stats.ddnnf_misses += 1
        if store is not None:
            store.store_ddnnf(self.signature, canonical, self.digest)
        return canonical

    def is_warm(self) -> bool:
        """Whether serving this shape's tape needs no compile.

        A shape is warm when its d-DNNF or its tape is already in
        memory or on disk (the tape then costs at most a lowering).
        The pipeline planner uses this as its cold/warm cut: warm
        shapes contribute no component-compile jobs, which is what
        keeps the warm-store zero-compiles invariant intact under
        pipelining.  A probe only: no artifact is loaded and no stats
        are touched.
        """
        with self._cache._lock:
            if self._entry.ddnnf is not None or self._entry.tape is not None:
                return True
        store = self._cache.store
        if store is None:
            return False
        if store.path_for(self.signature, "dnnf", self.digest).exists():
            return True
        return store.path_for(self.signature, "tape", self.digest).exists()

    def component_plan(self) -> list:
        """The distinct canonical components a cold compile of this
        shape would request — the shape's contribution to the pipelined
        batch's fleet-wide component-compile pass (see
        :func:`~repro.compiler.knowledge.plan_components`).  Computes
        (and caches/stores) the canonical CNF as a side effect, which a
        cold shape pays anyway.  The plan is kept on the cache entry (a
        racing second caller merely computes the same list again).
        """
        plan = self._entry.plan
        if plan is None:
            plan = plan_components(self._canonical_cnf()[0])
            self._entry.plan = plan
        return plan


class ArtifactCache:
    """Memoizes Tseytin CNFs and compiled d-DNNFs across lineages.

    Keys are canonical structural signatures, so any two isomorphic
    circuits (same shape, different fact labels) share one slot.  The
    cache is safe to share across threads — a
    :class:`~repro.engine.session.ExplainSession` hands one instance to
    every worker — and across engines: the exact, hybrid, and CNF-proxy
    paths all reuse the same CNF artifact.

    ``max_entries`` bounds the number of cached shapes with LRU
    eviction; ``None`` means unbounded, ``0`` disables storage while
    keeping the accounting (useful to measure the uncached baseline).

    ``store`` optionally attaches a
    :class:`~repro.engine.store.PersistentArtifactStore` as a second,
    disk-backed tier: in-memory misses consult the store before
    compiling, and freshly compiled artifacts are written back, so the
    compile-once property extends across processes and across runs.
    The store keeps its own hit/miss/corruption stats, merged into
    :meth:`stats_dict`.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        store: PersistentArtifactStore | None = None,
        component_cache_size: int | None = 256,
        verify_on_load: bool = False,
    ) -> None:
        if component_cache_size is not None and component_cache_size < 0:
            raise ValueError(
                "component_cache_size must be non-negative, "
                f"got {component_cache_size}"
            )
        self.max_entries = max_entries
        self.store = store
        #: When set, every artifact loaded from the persistent store is
        #: spot-checked against the static d-DNNF/tape invariants (see
        #: :mod:`repro.analysis.verify`) before being trusted; a failed
        #: check counts in ``stats.verifier_violations`` and the
        #: artifact is recompiled instead.  Checksums already catch
        #: bit-rot — this catches *semantically* invalid artifacts
        #: (e.g. written by a buggy or adversarial producer).
        self.verify_on_load = verify_on_load
        #: Slots of the in-memory component-circuit LRU (``None`` =
        #: unbounded, ``0`` = store tier only).  Unlike ``max_entries``,
        #: ``0`` does not disable the memo — disk-backed component hits
        #: still flow.
        self.component_cache_size = component_cache_size
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._memo = _CacheComponentMemo(self)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def open(self, circuit: Circuit) -> CircuitArtifacts:
        """Bind ``circuit`` to its cache slot and return the handle.

        Two walks of the circuit's cone canonicalize it: one flattens it
        (:meth:`~repro.circuits.circuit.Circuit.conditioned_flatten`),
        one takes the flat circuit's signature.  Then :meth:`bind`.
        """
        flat, source_size = circuit.conditioned_flatten()
        signature, labels = flat.structural_signature()
        return self.bind(flat, signature, labels, source_size)

    def bind(
        self, flat: Circuit, signature: tuple, labels: tuple, source_size: int
    ) -> CircuitArtifacts:
        """A fresh handle for an already canonicalized circuit (a
        handle's :attr:`~CircuitArtifacts.canonical` form), bound to its
        shape's slot: the slot lookup, LRU touch and eviction accounting
        of :meth:`open`, without walking the circuit again."""
        if self.max_entries == 0:
            # Storage disabled: hand out an unstored slot instead of
            # inserting and immediately evicting it, so ``evictions``
            # only counts real capacity evictions.  A persistent store,
            # if attached, still serves the handle's misses.
            return CircuitArtifacts(
                self, _Entry(), signature, labels, flat, source_size
            )
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                entry = _Entry()
                self._entries[signature] = entry
                if self.max_entries is not None:
                    while len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)
                        self.stats.evictions += 1
            else:
                self._entries.move_to_end(signature)
        return CircuitArtifacts(self, entry, signature, labels, flat, source_size)

    def verify_loaded(self, kind: str, artifact: object) -> bool:
        """Spot-check a store-loaded artifact when ``verify_on_load``
        is set; returns False (and counts a violation) when the caller
        must discard it and recompile."""
        if not self.verify_on_load:
            return True
        from ..analysis.verify import (
            LOAD_DETERMINISM_LIMIT,
            check_circuit,
            check_loaded_tape,
        )

        if kind == "tape":
            problems = check_loaded_tape(artifact)
        else:
            problems, _ = check_circuit(artifact, LOAD_DETERMINISM_LIMIT)
        if not problems:
            return True
        with self._lock:
            self.stats.verifier_violations += 1
        return False

    def component_memo(self) -> ComponentMemo:
        """The cache-backed cross-shape component memo.

        Hand it to :func:`~repro.compiler.knowledge.compile_cnf` (the
        handle's ``ddnnf``/``tape`` paths do so automatically) to stitch
        previously compiled sub-circuits into cold compiles.
        """
        return self._memo

    def record_fastpath(self, fastpath) -> None:
        """Merge one computation's machine-width counters — a
        :class:`~repro.core.numerics.fixed.FastpathStats` — including
        the per-reason fallback split (thread-safe; called by the exact
        pipeline after each derivative pass)."""
        if fastpath.hits or fastpath.fallbacks:
            with self._lock:
                self.stats.fastpath_hits += fastpath.hits
                self.stats.fastpath_fallbacks += fastpath.fallbacks
                self.stats.fastpath_overflow_fallbacks += fastpath.overflow
                self.stats.fastpath_ineligible_fallbacks += (
                    fastpath.ineligible)
                self.stats.fastpath_budget_fallbacks += fastpath.budget
                self.stats.fastpath_small_fallbacks += fastpath.small

    def record_reuse(self, answers: int) -> None:
        """Count ``answers`` answers served from published Shapley
        values (thread-safe)."""
        if answers:
            with self._lock:
                self.stats.shapley_reuse_hits += answers

    def record_batch(self, groups: int, answers: int) -> None:
        """Count one same-shape group pass covering ``answers``
        answers (thread-safe)."""
        with self._lock:
            self.stats.batched_groups += groups
            self.stats.batched_answers += answers

    def record_pipeline(
        self,
        overlap_seconds: float = 0.0,
        compiles: int = 0,
        stitches: int = 0,
    ) -> None:
        """Account one pipelined cold batch (thread-safe): seconds of
        genuine compile/execute overlap, standalone compiles performed
        by the component pass, and stitch jobs dispatched."""
        with self._lock:
            self.stats.pipeline_overlap_seconds += float(overlap_seconds)
            self.stats.component_pass_compiles += int(compiles)
            self.stats.stitch_jobs += int(stitches)

    def merge_stats(self, changes: Mapping[str, float]) -> None:
        """Add the counter changes another cache made (a process-pool
        child's, during one task) to this cache's :class:`CacheStats`,
        under the same keys (thread-safe)."""
        with self._lock:
            for key, value in changes.items():
                setattr(self.stats, key, getattr(self.stats, key) + value)

    def stats_dict(self) -> dict[str, int]:
        """Hit/miss stats of both tiers as one flat dict.

        The in-memory tier's counters come first; when a persistent
        store is attached its ``store_*`` counters are appended.
        """
        merged = self.stats.as_dict()
        if self.store is not None:
            merged.update(self.store.stats.as_dict())
        return merged

    def clear(self) -> None:
        """Drop every cached in-memory artifact, including memoized
        component circuits (statistics and the persistent store, if
        any, are kept)."""
        with self._lock:
            self._entries.clear()
            self._memo.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"ArtifactCache(entries={len(self)}, "
            f"hits={s.hits}, misses={s.misses}, "
            f"compiles={s.compile_calls})"
        )
