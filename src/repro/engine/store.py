"""Disk-backed artifact store: compiled artifacts shared across processes.

Knowledge compilation dominates the exact pipeline, and the in-memory
:class:`~repro.engine.cache.ArtifactCache` already makes isomorphic
lineages compile once — but only within one process.
:class:`PersistentArtifactStore` is the second tier underneath it: the
*canonical* artifacts (Tseytin CNFs, auxiliary-eliminated d-DNNFs, and
their compiled :class:`~repro.core.numerics.tape.GateTape`s, labels
replaced by canonical indices 0..k-1) are serialized to a
directory keyed by the circuit's structural signature, so every later
process — another benchmark run, a CLI invocation, a worker of a
:class:`~concurrent.futures.ProcessPoolExecutor` — reloads them instead
of recompiling.  Because the stored circuit is reconstructed gate for
gate, the Shapley values computed from a reloaded d-DNNF are *exactly*
(as :class:`~fractions.Fraction` objects) the values of the cold run.

A fourth artifact kind, ``.comp``, holds *component* d-DNNFs: circuits
compiled from a canonical connected-component clause set
(:func:`~repro.compiler.knowledge.canonical_component`), keyed by the
digest of that clause set instead of a whole-circuit signature.  They
make cold compiles of brand-new shapes cheap whenever the shape shares
isomorphic sub-circuits with anything compiled before.  Component
payloads carry the compiler's
:data:`~repro.compiler.knowledge.COMPONENT_SCHEME` tag; a scheme bump
turns stale files into clean misses so cross-run signature parity is
never violated by circuits from an older compiler generation.

File format (version 1)
-----------------------
One file per artifact, named ``<sha256(signature)>.<cnf|dnnf|tape|comp>``::

    repro-artifact <format-version> <kind> <sha256(payload)>\\n
    <payload JSON>

Writes go through a temp file in the same directory followed by
:func:`os.replace`, so concurrent readers never observe a torn
artifact.  Readers verify the header and the payload checksum; any
mismatch (truncation, partial disk write, bad JSON) counts as a
*corruption*, the file is discarded, and the caller falls back to
recompilation.  A format-version bump simply turns old files into
misses.

Artifact kinds may additionally version their *payloads* without
bumping the store format: gate tapes write payload v2 (level schedule
and magnitude bounds for the machine-width execution tier) while
:meth:`~repro.core.numerics.tape.GateTape.from_payload` re-lowers
stored v1 payloads transparently, so pre-PR-5 stores keep serving
tape hits instead of recompiling.

Bounded disk usage (GC)
-----------------------
A store constructed with ``max_bytes`` keeps the directory under that
budget: every successful read refreshes the artifact's mtime (the LRU
clock), and :meth:`gc` evicts least-recently-used artifacts until the
total size fits.  Two finer knobs exist for fleets where ``.comp``
artifacts multiply: ``kind_budgets`` caps each artifact kind's bytes
separately (LRU within the kind), and ``max_age_seconds`` evicts
anything not read or written for that long, regardless of budget.  A
:meth:`gc` pass applies TTL first, then per-kind budgets, then the
total budget.  Eviction is *generation-safe* — each candidate is
re-checked immediately before deletion and skipped if a concurrent
writer or reader refreshed it since the scan — and always safe against
concurrent use: a reader that loses the race simply sees a miss and
recompiles (the store is an accelerator, never a correctness
dependency), while an in-flight write (temp file) is never a GC
candidate and republishes atomically even if its target was just
evicted.  ``StoreStats`` counts ``evictions`` and ``reclaimed_bytes``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

from ..circuits.circuit import Circuit, CircuitError
from ..circuits.cnf import Cnf, CnfError
from ..compiler.knowledge import COMPONENT_SCHEME
from ..core.numerics.tape import GateTape, TapeError

#: Bump when the header or payload layout changes; older files are then
#: treated as misses and rewritten on the next compile.
FORMAT_VERSION = 1

_MAGIC = "repro-artifact"
_KINDS = ("cnf", "dnnf", "tape", "comp")
_SUFFIXES = tuple(f".{kind}" for kind in _KINDS)

#: Public aliases for read-only consumers (the artifact verifier must
#: parse files with exactly the store's header discipline).
ARTIFACT_MAGIC = _MAGIC
ARTIFACT_KINDS = _KINDS

#: An in-flight temp file older than this is an orphan: a writer died
#: between ``mkstemp`` and ``os.replace``.  Live writers publish within
#: milliseconds, so ten minutes is generously conservative.
ORPHAN_TTL_SECONDS = 600.0


@dataclass
class StoreStats:
    """Hit/miss/corruption accounting of one store instance.

    ``corruptions`` counts artifacts that existed on disk but failed
    validation (truncated file, checksum mismatch, malformed payload);
    each one is removed and recompiled, never silently trusted.
    """

    hits: int = 0
    misses: int = 0
    corruptions: int = 0
    writes: int = 0
    write_failures: int = 0
    evictions: int = 0
    reclaimed_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "store_hits": self.hits,
            "store_misses": self.misses,
            "store_corruptions": self.corruptions,
            "store_writes": self.writes,
            "store_write_failures": self.write_failures,
            "store_evictions": self.evictions,
            "store_reclaimed_bytes": self.reclaimed_bytes,
        }


class _CorruptArtifact(Exception):
    """Internal: the on-disk artifact failed validation."""


@dataclass(frozen=True)
class StoreEntry:
    """One artifact file as seen by a directory scan."""

    path: Path
    kind: str
    size: int
    mtime_ns: int

    @property
    def digest(self) -> str:
        """The signature digest the artifact is filed under."""
        return self.path.stem


@dataclass(frozen=True)
class GcReport:
    """Outcome of one :meth:`PersistentArtifactStore.gc` pass."""

    evicted: int
    reclaimed_bytes: int
    remaining_files: int
    remaining_bytes: int
    orphans_removed: int = 0
    orphan_bytes_reclaimed: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "evicted": self.evicted,
            "reclaimed_bytes": self.reclaimed_bytes,
            "remaining_files": self.remaining_files,
            "remaining_bytes": self.remaining_bytes,
            "orphans_removed": self.orphans_removed,
            "orphan_bytes_reclaimed": self.orphan_bytes_reclaimed,
        }


def _validate_kind_budgets(kind_budgets: dict[str, int] | None) -> None:
    if not kind_budgets:
        return
    for kind, budget in kind_budgets.items():
        if kind not in _KINDS:
            raise ValueError(
                f"unknown artifact kind {kind!r}; choose from {_KINDS}"
            )
        if budget <= 0:
            raise ValueError(
                f"kind budget must be positive, got {kind}={budget}"
            )


def signature_digest(signature: tuple) -> str:
    """Stable hex digest of a canonical structural signature.

    Signature entries may mix plain ints and :class:`~enum.IntEnum`
    gate kinds depending on how the circuit was built; both compare
    equal but repr differently, so every entry is normalized to ``int``
    before hashing.  The digest is therefore identical across processes
    and Python versions for equal signatures.
    """
    normalized = repr(
        tuple(tuple(int(part) for part in gate) for gate in signature)
    )
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


class PersistentArtifactStore:
    """A directory of canonical compiled artifacts, safe to share across
    processes.

    Hand one (or several instances pointing at the same directory) to
    :class:`~repro.engine.cache.ArtifactCache` via its ``store``
    parameter; the cache consults it on every in-memory miss and writes
    back whatever it compiles.  All methods are thread-safe, and the
    atomic-rename write protocol makes concurrent *processes* safe too:
    the worst case is two processes compiling the same shape and one
    overwriting the other's identical artifact.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        max_bytes: int | None = None,
        kind_budgets: dict[str, int] | None = None,
        max_age_seconds: float | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        _validate_kind_budgets(kind_budgets)
        if max_age_seconds is not None and max_age_seconds < 0:
            raise ValueError(
                f"max_age_seconds must be non-negative, got {max_age_seconds}"
            )
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.kind_budgets = dict(kind_budgets) if kind_budgets else None
        self.max_age_seconds = max_age_seconds
        self.stats = StoreStats()
        self._lock = threading.Lock()
        #: Running estimate of the directory size, maintained on writes
        #: so the budget check does not re-scan the directory each time;
        #: ``None`` until the first budgeted write (or GC) measures it.
        self._estimated_bytes: int | None = None

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @staticmethod
    def kinds() -> tuple[str, ...]:
        """Every artifact kind the store knows about."""
        return _KINDS

    def path_for(
        self, signature: tuple, kind: str, digest: str | None = None
    ) -> Path:
        """The on-disk path of one artifact (``kind``: cnf / dnnf /
        tape / comp).

        ``digest``, when given, must be ``signature_digest(signature)``;
        callers that touch one signature repeatedly pass it to skip
        re-hashing the signature on every load, store and probe.
        """
        if kind not in _KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        if digest is None:
            digest = signature_digest(signature)
        return self.directory / f"{digest}.{kind}"

    def __len__(self) -> int:
        """Number of artifact files currently in the directory."""
        return len(self.entries())

    def entries(self) -> list[StoreEntry]:
        """A snapshot of every artifact file (in-flight temp files and
        foreign files are skipped; files vanishing mid-scan are
        tolerated)."""
        found: list[StoreEntry] = []
        try:
            candidates = list(self.directory.iterdir())
        except OSError:
            return found
        for path in candidates:
            if path.suffix not in _SUFFIXES:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # evicted or replaced by a concurrent process
            found.append(
                StoreEntry(path, path.suffix[1:], stat.st_size, stat.st_mtime_ns)
            )
        return found

    def total_bytes(self) -> int:
        """Total size of every artifact file currently in the store."""
        return sum(entry.size for entry in self.entries())

    def orphan_entries(self) -> list[StoreEntry]:
        """In-flight/orphaned ``*.tmp`` files from atomic writes.

        A live writer's temp file appears here for milliseconds; one
        whose writer died mid-publish stays until :meth:`gc` sweeps it
        (after :data:`ORPHAN_TTL_SECONDS`).  These files are invisible
        to :meth:`entries` / :meth:`kind_summary` — they are not
        artifacts — but are reported by ``repro cache stats`` and
        ``repro verify`` so interrupted writes cannot silently leak
        disk."""
        found: list[StoreEntry] = []
        try:
            candidates = list(self.directory.iterdir())
        except OSError:
            return found
        for path in candidates:
            if path.suffix != ".tmp":
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append(StoreEntry(path, "tmp", stat.st_size, stat.st_mtime_ns))
        return found

    def orphan_summary(self) -> dict[str, int]:
        """File count and byte total of orphaned temp files."""
        entries = self.orphan_entries()
        return {
            "files": len(entries),
            "bytes": sum(entry.size for entry in entries),
        }

    def kind_summary(self) -> dict[str, dict[str, int]]:
        """File count and byte total per artifact kind (all kinds are
        present in the result, zeroed when absent on disk)."""
        summary = {kind: {"files": 0, "bytes": 0} for kind in _KINDS}
        for entry in self.entries():
            bucket = summary[entry.kind]
            bucket["files"] += 1
            bucket["bytes"] += entry.size
        return summary

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def load_cnf(
        self, signature: tuple, digest: str | None = None
    ) -> Cnf | None:
        """The stored canonical CNF of ``signature``, or ``None``."""
        path = self.path_for(signature, "cnf", digest)
        payload = self._load(path, "cnf")
        if payload is None:
            return None
        try:
            cnf = Cnf.from_payload(payload)
        except CnfError:
            return self._corrupt(path)
        self._hit(path)
        return cnf

    def load_ddnnf(
        self, signature: tuple, digest: str | None = None
    ) -> Circuit | None:
        """The stored canonical d-DNNF of ``signature``, or ``None``."""
        path = self.path_for(signature, "dnnf", digest)
        payload = self._load(path, "dnnf")
        if payload is None:
            return None
        try:
            circuit = Circuit.from_payload(payload)
        except CircuitError:
            return self._corrupt(path)
        self._hit(path)
        return circuit

    def load_tape(
        self, signature: tuple, digest: str | None = None
    ) -> GateTape | None:
        """The stored canonical gate tape of ``signature``, or ``None``."""
        path = self.path_for(signature, "tape", digest)
        payload = self._load(path, "tape")
        if payload is None:
            return None
        try:
            tape = GateTape.from_payload(payload)
        except TapeError:
            return self._corrupt(path)
        self._hit(path)
        return tape

    def load_component(self, key: tuple) -> Circuit | None:
        """The memoized component d-DNNF of canonical clause set
        ``key``, or ``None``.

        A payload written by a different compiler generation (scheme
        tag mismatch) is a clean miss, not a corruption: it was valid
        for the compiler that wrote it, but stitching it in could break
        byte-identical signature parity with fresh compiles.
        """
        path = self.path_for(key, "comp")
        payload = self._load(path, "comp")
        if payload is None:
            return None
        if not isinstance(payload, dict) or payload.get("scheme") != COMPONENT_SCHEME:
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            circuit = Circuit.from_payload(payload.get("circuit") or {})
        except CircuitError:
            return self._corrupt(path)
        self._hit(path)
        return circuit

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def gc(
        self,
        max_bytes: int | None = None,
        kind_budgets: dict[str, int] | None = None,
        max_age_seconds: float | None = None,
    ) -> GcReport:
        """Evict artifacts until the directory satisfies every
        configured budget (arguments default to the store's own knobs).

        Orphaned temp files from interrupted atomic writes (older than
        :data:`ORPHAN_TTL_SECONDS`) are always swept first.  Then three
        passes run in order, each least-recently-used first: an
        age pass dropping artifacts older than ``max_age_seconds``, a
        per-kind pass shrinking each kind in ``kind_budgets`` to its
        byte budget, and a total pass shrinking everything to
        ``max_bytes``.  At least one knob must be set, here or on the
        store — otherwise this raises ``ValueError`` (mentioning
        ``max_bytes``, the knob almost everyone wants).

        Safe to run while other threads and *processes* read and write
        the same directory: candidates are re-checked right before
        deletion and skipped when their generation changed (a writer
        republished, or a reader's hit refreshed the LRU clock), a
        vanished file is simply someone else's eviction, and any reader
        that loses the race falls back to recompiling.  The report and
        the ``evictions`` / ``reclaimed_bytes`` counters describe this
        pass only / this instance's lifetime respectively.
        """
        budget = max_bytes if max_bytes is not None else self.max_bytes
        kinds = kind_budgets if kind_budgets is not None else self.kind_budgets
        age = (
            max_age_seconds
            if max_age_seconds is not None
            else self.max_age_seconds
        )
        if budget is None and not kinds and age is None:
            raise ValueError(
                "gc() needs a budget: max_bytes, kind_budgets, or "
                "max_age_seconds (none set on the store)"
            )
        if budget is not None and budget <= 0:
            raise ValueError(f"max_bytes must be positive, got {budget}")
        _validate_kind_budgets(kinds)
        if age is not None and age < 0:
            raise ValueError(f"max_age_seconds must be non-negative, got {age}")

        # Sweep orphaned temp files first: any *.tmp older than the
        # orphan TTL was abandoned by a writer that died mid-publish
        # (live writers rename within milliseconds).  Generation-safe
        # like artifact eviction — a concurrent writer's fresh temp
        # file is never touched.
        orphans_removed = 0
        orphan_bytes = 0
        orphan_cutoff = time.time_ns() - int(ORPHAN_TTL_SECONDS * 1e9)
        for orphan in self.orphan_entries():
            if orphan.mtime_ns >= orphan_cutoff:
                continue
            outcome, size = self._try_evict(orphan)
            if outcome == "evicted":
                orphans_removed += 1
                orphan_bytes += size

        live = {entry.path: entry for entry in self.entries()}
        evicted = 0
        reclaimed = 0

        def sweep(
            entries: list[StoreEntry],
            over_budget: Callable[[int], bool],
        ) -> int:
            """Evict LRU-first from ``entries`` while ``over_budget``
            says the watched total is still too big; returns the bytes
            still attributed to surviving entries."""
            nonlocal evicted, reclaimed
            total = sum(entry.size for entry in entries)
            # Oldest mtime first = least recently used first (reads
            # refresh mtime); path name breaks ties deterministically.
            for entry in sorted(entries, key=lambda e: (e.mtime_ns, e.path.name)):
                if not over_budget(total):
                    break
                outcome, size = self._try_evict(entry)
                if outcome == "kept":
                    # New generation since the scan — recently written
                    # or read.  It is now MRU, so keep it; a follow-up
                    # pass will see the refreshed clock.
                    continue
                live.pop(entry.path, None)
                total -= entry.size
                if outcome == "evicted":
                    evicted += 1
                    reclaimed += size
            return total

        if age is not None:
            cutoff = time.time_ns() - int(age * 1e9)
            expired = [e for e in live.values() if e.mtime_ns < cutoff]
            sweep(expired, lambda total: total > 0)
        if kinds:
            for kind, kind_budget in sorted(kinds.items()):
                subset = [e for e in live.values() if e.kind == kind]
                sweep(subset, lambda total, b=kind_budget: total > b)
        total = sum(entry.size for entry in live.values())
        if budget is not None:
            total = sweep(list(live.values()), lambda t, b=budget: t > b)
        with self._lock:
            self.stats.evictions += evicted
            self.stats.reclaimed_bytes += reclaimed
            self._estimated_bytes = total
        remaining = self.entries()
        return GcReport(
            evicted, reclaimed, len(remaining),
            sum(entry.size for entry in remaining),
            orphans_removed, orphan_bytes,
        )

    def _try_evict(self, entry: StoreEntry) -> tuple[str, int]:
        """Generation-safe single-file eviction.

        Returns ``("evicted", bytes)``, ``("gone", 0)`` for a file a
        concurrent collector beat us to, or ``("kept", 0)`` when the
        entry's generation changed (or the unlink hit an IO error) —
        GC skips, never fails.
        """
        try:
            stat = entry.path.stat()
        except OSError:
            return "gone", 0
        if stat.st_mtime_ns != entry.mtime_ns:
            return "kept", 0
        try:
            entry.path.unlink()
        except FileNotFoundError:
            return "gone", 0
        except OSError:
            return "kept", 0
        return "evicted", stat.st_size

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def store_cnf(
        self, signature: tuple, cnf: Cnf, digest: str | None = None
    ) -> None:
        """Persist the canonical CNF of ``signature`` (atomic)."""
        self._store(self.path_for(signature, "cnf", digest), "cnf",
                    cnf.to_payload())

    def store_ddnnf(
        self, signature: tuple, circuit: Circuit, digest: str | None = None
    ) -> None:
        """Persist the canonical d-DNNF of ``signature`` (atomic)."""
        self._store(self.path_for(signature, "dnnf", digest), "dnnf",
                    circuit.to_payload())

    def store_tape(
        self, signature: tuple, tape: GateTape, digest: str | None = None
    ) -> None:
        """Persist the canonical compiled gate tape of ``signature``
        (atomic)."""
        self._store(self.path_for(signature, "tape", digest), "tape",
                    tape.to_payload())

    def store_component(self, key: tuple, circuit: Circuit) -> None:
        """Persist a memoized component d-DNNF keyed by its canonical
        clause set (atomic).

        The canonical clause set itself rides along in the payload so
        the file's digest (and the canonical form it keys) can be
        re-derived and audited offline; loaders ignore the extra field.
        """
        self._store(
            self.path_for(key, "comp"),
            "comp",
            {
                "scheme": COMPONENT_SCHEME,
                "clauses": [list(clause) for clause in key],
                "circuit": circuit.to_payload(),
            },
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _hit(self, path: Path) -> None:
        with self._lock:
            self.stats.hits += 1
        # Refresh the LRU clock: an artifact read now is the last one a
        # budgeted GC should evict.  Best-effort — the file may already
        # be gone (concurrent eviction) or read-only.
        try:
            os.utime(path)
        except OSError:
            pass

    def _corrupt(self, path: Path) -> None:
        """Count a corruption, drop the bad file, report a miss."""
        with self._lock:
            self.stats.corruptions += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def _load(self, path: Path, kind: str) -> dict | None:
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except OSError:
            return self._corrupt(path)
        newline = blob.find(b"\n")
        if newline < 0:
            return self._corrupt(path)
        header = blob[:newline].decode("utf-8", errors="replace").split()
        payload = blob[newline + 1 :]
        if len(header) != 4 or header[0] != _MAGIC or header[2] != kind:
            return self._corrupt(path)
        if header[1] != str(FORMAT_VERSION):
            # An older/newer format is a clean miss, not a corruption:
            # the artifact was valid for the version that wrote it.
            with self._lock:
                self.stats.misses += 1
            return None
        if hashlib.sha256(payload).hexdigest() != header[3]:
            return self._corrupt(path)
        try:
            return json.loads(payload)
        except ValueError:
            return self._corrupt(path)

    def _store(self, path: Path, kind: str, payload_dict: dict) -> None:
        payload = json.dumps(payload_dict, separators=(",", ":")).encode("utf-8")
        header = (
            f"{_MAGIC} {FORMAT_VERSION} {kind} "
            f"{hashlib.sha256(payload).hexdigest()}\n"
        ).encode("ascii")
        # Atomic publish: write a sibling temp file, fsync-free rename.
        # Concurrent writers race benignly (identical content); readers
        # only ever see a complete old or new file.
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=f".{kind}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(header)
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # The store is an accelerator, never a correctness
            # dependency: a full disk or vanished directory must not
            # fail the computation that produced the artifact.
            with self._lock:
                self.stats.write_failures += 1
            return
        with self._lock:
            self.stats.writes += 1
        self._after_write(len(header) + len(payload))

    def _after_write(self, written: int) -> None:
        """Budget check after a successful write, amortized through a
        running size estimate so the common case is O(1).

        Overwrites of an existing artifact inflate the estimate (both
        generations are counted) — that only triggers GC *earlier*, and
        each pass resets the estimate to the measured total.  A store
        configured with only per-kind budgets auto-enforces against
        their sum (the tightest total bound they imply); an age TTL
        alone never triggers on writes — run :meth:`gc` explicitly or
        on a schedule for that.
        """
        trigger = self.max_bytes
        if trigger is None and self.kind_budgets:
            trigger = sum(self.kind_budgets.values())
        if trigger is None:
            return
        with self._lock:
            if self._estimated_bytes is not None:
                self._estimated_bytes += written
                over = self._estimated_bytes > trigger
                measure = False
            else:
                over = False
                measure = True
        if measure:
            total = self.total_bytes()
            with self._lock:
                self._estimated_bytes = total
            over = total > trigger
        if over:
            self.gc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"PersistentArtifactStore({str(self.directory)!r}, "
            f"hits={s.hits}, misses={s.misses}, corrupt={s.corruptions})"
        )
