"""Outside-in layer tracing for the benchmark's traced run.

The program is not changed.  :func:`install` wraps the functions at each
layer boundary -- the names in :data:`SPANS` -- with a span that adds
its wall time to a per-thread tally of a :class:`Recorder`, and wraps a
few functions with counters (wire frames and bytes, store bytes
written).  :func:`uninstall` puts the originals back.

Every binding of a wrapped function is replaced, in every loaded
``repro`` module, by the same wrapper object, so ``from x import f``
call sites are traced too.

Two kinds of time come out of a recorder:

* ``top`` -- spans that ran on the *caller thread* (the one calling
  ``explain_many``) with no other span open on it.  They partition that
  thread's wall time; what they leave is the unattributed remainder.
* ``busy`` -- every span on every thread and process, summed.  Under
  the GIL, or with two socket workers, busy seconds can exceed wall
  time.  Spans are inclusive (Algorithm 1 includes the Equation-3
  combine inside it); a layer re-entered on the same thread is counted
  once, at its outermost call.

Socket workers (started through ``perfbench/worker.py``, which installs
the wrappers) append one JSON line per finished task to
``<trace_dir>/<pid>.jsonl`` before replying;
:meth:`Recorder.collect_children` sums and removes those files after
each pass, when every worker is idle.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

#: (module, attribute path, layer): each call is one span of ``layer``.
#: A method path names the class; overrides in subclasses are wrapped
#: too.
SPANS = (
    ("repro.db.evaluate", "lineage", "db.query_eval"),
    ("repro.db.evaluate", "LineageResult.lineage_of", "db.lineage_extract"),
    ("repro.engine.cache", "ArtifactCache.open", "engine.cache.canonicalize"),
    # The per-answer CNF request (a relabel on a hit) and the Tseytin
    # transform it runs on a miss, also reached from component planning.
    ("repro.engine.cache", "CircuitArtifacts.cnf", "engine.cache.tseytin"),
    ("repro.circuits.tseytin", "tseytin_transform", "engine.cache.tseytin"),
    ("repro.engine.scheduler", "plan_batch", "engine.scheduler.plan"),
    ("repro.engine.service.base", "Transport.run_batch", "engine.service.batch"),
    ("repro.compiler.knowledge", "compile_cnf", "compiler.compile"),
    # Every standalone canonical-component compile: the pipelined
    # component pass (compile_component) and inline memo misses.
    ("repro.compiler.knowledge", "_compile_canonical",
     "compiler.component_compile"),
    ("repro.compiler.knowledge", "_Compiler._import_component",
     "compiler.stitch"),
    ("repro.core.numerics.tape", "compile_tape", "core.numerics.tape_lower"),
    ("repro.core.shapley", "shapley_all_facts", "core.shapley.alg1"),
    ("repro.core.shapley", "shapley_all_facts_batched", "core.shapley.alg1"),
    ("repro.core.numerics.base", "Kernel.equation3", "core.numerics.combine"),
    ("repro.engine.store", "PersistentArtifactStore.load_cnf",
     "engine.store.read"),
    ("repro.engine.store", "PersistentArtifactStore.load_ddnnf",
     "engine.store.read"),
    ("repro.engine.store", "PersistentArtifactStore.load_tape",
     "engine.store.read"),
    ("repro.engine.store", "PersistentArtifactStore.load_component",
     "engine.store.read"),
    ("repro.engine.store", "PersistentArtifactStore.store_cnf",
     "engine.store.write"),
    ("repro.engine.store", "PersistentArtifactStore.store_ddnnf",
     "engine.store.write"),
    ("repro.engine.store", "PersistentArtifactStore.store_tape",
     "engine.store.write"),
    ("repro.engine.store", "PersistentArtifactStore.store_component",
     "engine.store.write"),
)

#: Top-level task bodies of socket workers: after each one the worker
#: flushes its tally to the trace directory.
TASKS = (
    ("repro.engine.service.worker", "_execute"),
    ("repro.engine.service.worker", "_execute_group"),
    ("repro.engine.service.worker", "_compile"),
    ("repro.engine.service.worker", "_warm"),
)


class _Tally:
    """One thread's spans and counts since the last drain."""

    __slots__ = ("busy", "calls", "top", "counts", "stack")

    def __init__(self) -> None:
        self.busy: Counter = Counter()
        self.calls: Counter = Counter()
        self.top: Counter = Counter()
        self.counts: Counter = Counter()
        self.stack: list[str] = []


class Recorder:
    """Per-thread span tallies of one process, plus the files its
    worker processes flush into ``trace_dir``."""

    def __init__(self, trace_dir: Path | None = None) -> None:
        self.trace_dir = trace_dir
        #: Ident of the thread whose top-level spans partition a pass.
        self.caller: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tallies: list[_Tally] = []

    def tally(self) -> _Tally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _Tally()
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def drain(self) -> dict[str, Counter]:
        """Sum every thread's tally and start them afresh."""
        with self._lock:
            tallies = list(self._tallies)
        out = {key: Counter() for key in ("busy", "calls", "top", "counts")}
        for tally in tallies:
            for key, total in out.items():
                taken = getattr(tally, key)
                setattr(tally, key, Counter())
                total.update(taken)
        return out

    def flush(self) -> None:
        """Append this process's drained tally to the trace directory."""
        drained = self.drain()
        line = {key: drained[key] for key in ("busy", "calls", "counts")}
        path = self.trace_dir / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")

    def collect_children(self) -> dict[str, Counter]:
        """Sum and remove the lines worker processes flushed."""
        out = {key: Counter() for key in ("busy", "calls", "counts")}
        for path in sorted(self.trace_dir.glob("*.jsonl")):
            for text in path.read_text(encoding="utf-8").splitlines():
                line = json.loads(text)
                for key, total in out.items():
                    total.update(line[key])
            path.unlink()
        return out


def _span(recorder: Recorder, layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tally = recorder.tally()
        stack = tally.stack
        if layer in stack:
            return fn(*args, **kwargs)
        stack.append(layer)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            tally.busy[layer] += elapsed
            tally.calls[layer] += 1
            if not stack and recorder.caller == threading.get_ident():
                tally.top[layer] += elapsed

    return wrapper


def _task(recorder: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.flush()

    return wrapper


class _CountingSocket:
    """Socket proxy that counts the bytes ``sendall`` writes."""

    __slots__ = ("_sock", "sent")

    def __init__(self, sock) -> None:
        self._sock = sock
        self.sent = 0

    def sendall(self, data) -> None:
        self.sent += len(data)
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _wire(recorder: Recorder, fn):
    @functools.wraps(fn)
    def send_msg(sock, *args, **kwargs):
        counting = _CountingSocket(sock)
        try:
            return fn(counting, *args, **kwargs)
        finally:
            counts = recorder.tally().counts
            counts["engine.service.wire.frames"] += 1
            counts["engine.service.wire.bytes"] += counting.sent

    return send_msg


def _written(recorder: Recorder, fn):
    @functools.wraps(fn)
    def _after_write(self, written):
        recorder.tally().counts["engine.store.write_bytes"] += written
        return fn(self, written)

    return _after_write


class Patches:
    """The bindings :func:`install` replaced, for :func:`uninstall`."""

    def __init__(self) -> None:
        self.undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self.undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _patch_function(patches: Patches, fn, wrapper) -> None:
    """Rebind every module-level binding of ``fn`` in ``repro``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                patches.set(module, attr, wrapper)


def _patch_method(patches: Patches, cls: type, name: str, make) -> None:
    """Wrap ``cls.name`` and every subclass override of it."""
    for klass in _subclasses(cls):
        original = klass.__dict__.get(name)
        if original is None or getattr(original, "__isabstractmethod__", False):
            continue
        patches.set(klass, name, make(original))


def _target(module: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module)
    *classes, name = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    getattr(owner, name)  # raises AttributeError when it is gone
    return owner, name


def install(recorder: Recorder) -> Patches:
    """Install every span and counter; returns what to undo.

    A target the program no longer has is skipped and named in
    ``Patches.missing``, so the traced run still reports every other
    layer."""
    # Load every module that may bind a wrapped function or subclass a
    # wrapped class (the package imports its kernels and transports), so
    # no binding is missed.
    importlib.import_module("repro")
    patches = Patches()
    targets = [(module, path, lambda fn, layer=layer: _span(recorder, layer, fn))
               for module, path, layer in SPANS]
    targets.append(("repro.engine.service.protocol", "send_msg",
                    lambda fn: _wire(recorder, fn)))
    targets.append(("repro.engine.store", "PersistentArtifactStore._after_write",
                    lambda fn: _written(recorder, fn)))
    if recorder.trace_dir is not None:
        targets += [(module, name, lambda fn: _task(recorder, fn))
                    for module, name in TASKS]
    for module, path, make in targets:
        try:
            owner, name = _target(module, path)
        except (ImportError, AttributeError):
            patches.missing.append(f"{module}.{path}")
            continue
        if isinstance(owner, type):
            _patch_method(patches, owner, name, make)
        else:
            fn = getattr(owner, name)
            _patch_function(patches, fn, make(fn))
    return patches


def uninstall(patches: Patches) -> None:
    for owner, name, original in reversed(patches.undo):
        setattr(owner, name, original)
    patches.undo.clear()
