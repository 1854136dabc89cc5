"""The worker loop behind ``repro worker``.

A worker dials the coordinator, introduces itself, and then answers
requests until told to stop.  It owns one
:class:`~repro.engine.cache.ArtifactCache` for its whole life —
point ``cache_dir`` at the store directory shared by the fleet and
every shape any worker compiled becomes a disk hit here; add
``max_store_bytes`` and the worker's writes also keep that directory
under budget (each write may trigger an LRU GC pass).

Engine-level failures never kill the worker: an exception while
explaining one circuit is returned as an ``EngineResult`` with
``status="error"`` and the loop continues.

Losing the *coordinator* no longer kills the worker either: with a
``reconnect_for`` budget the worker redials with jittered exponential
backoff, re-registers, and resumes serving — its cache (and therefore
the fleet's shared store) survives the partition, so the first batch
after recovery is warm.  An explicit ``shutdown`` op is the one clean
dismissal: the worker exits without reconnecting.
"""

from __future__ import annotations

import os
from typing import Callable

from ...compiler.knowledge import compile_component
from ..base import EngineResult
from ..cache import ArtifactCache
from ..registry import get_engine
from ..store import PersistentArtifactStore
from .faults import Backoff, FaultPlan
from .protocol import connect, recv_msg, send_msg


def run_worker(
    address: str | tuple[str, int],
    cache_dir: str | None = None,
    max_store_bytes: int | None = None,
    connect_retry_for: float = 10.0,
    on_ready: Callable[[], None] | None = None,
    reconnect_for: float = 0.0,
    faults: FaultPlan | None = None,
) -> int:
    """Serve tasks from the coordinator at ``address`` until shutdown.

    Returns the number of tasks executed.  ``connect_retry_for`` keeps
    retrying the initial dial for that many seconds, so workers can be
    launched alongside (or slightly before) ``repro serve``.
    ``on_ready`` fires once, on first registration — tests use it as a
    barrier.  ``reconnect_for`` is the redial budget after *losing* the
    coordinator (0 keeps the old die-on-disconnect behaviour; the CLI
    defaults it on): each disconnect starts a fresh budget, redials use
    jittered exponential backoff, and the cache is reused across
    registrations.  ``faults`` is the deterministic fault-injection
    seam (role ``"worker"``).
    """
    store = (
        PersistentArtifactStore(cache_dir, max_bytes=max_store_bytes)
        if cache_dir
        else None
    )
    cache = ArtifactCache(store=store)
    executed = 0
    reconnects = 0
    registered_once = False
    retry_for = connect_retry_for
    while True:
        try:
            sock = connect(address, retry_for=retry_for)
        except OSError:
            if registered_once:
                break  # reconnect budget exhausted: give up for real
            raise  # never registered: surface the dial failure
        try:
            send_msg(sock, {"op": "hello", "role": "worker",
                            "pid": os.getpid()},
                     faults=faults, role="worker")
            if registered_once:
                reconnects += 1
            else:
                registered_once = True
                if on_ready is not None:
                    on_ready()
            done = _serve(sock, cache, faults, reconnects)
            executed += done[0]
            if done[1]:
                return executed  # clean shutdown: do not reconnect
        except Exception:
            pass  # link died mid-registration or mid-op: fall through
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if reconnect_for <= 0:
            break
        # The coordinator vanished (or discarded us after missed
        # heartbeats).  Redial for up to ``reconnect_for`` seconds —
        # connect() applies the jittered backoff between attempts.
        retry_for = reconnect_for
    return executed


def _serve(
    sock, cache: ArtifactCache, faults: FaultPlan | None, reconnects: int
) -> tuple[int, bool]:
    """Answer ops on one registered connection until it ends.

    Returns ``(tasks executed, clean shutdown?)`` — ``False`` means
    the link died and the caller may reconnect.  ``reconnects`` is how
    often this worker has re-registered so far; it rides the ``stats``
    reply so the coordinator's aggregation surfaces it to clients as
    ``remote_reconnects``."""
    executed = 0
    while True:
        try:
            message = recv_msg(sock, faults=faults, role="worker")
        except Exception:
            return executed, False  # link died; caller decides
        if message is None:
            return executed, False  # coordinator hung up
        if not isinstance(message, dict):
            continue  # garbage survives unpickling? ignore, stay alive
        op = message.get("op")
        if op == "shutdown":
            return executed, True
        try:
            if op == "task_group":
                send_msg(sock, {
                    "op": "result_group",
                    "results": _execute_group(cache, message),
                }, faults=faults, role="worker")
                executed += len(message.get("tasks", ()))
            elif op == "warm":
                send_msg(sock, {
                    "op": "warmed",
                    "id": message["id"],
                    "ok": _warm(cache, message),
                }, faults=faults, role="worker")
                executed += 1
            elif op == "compile":
                compiled, ok = _compile(cache, message)
                send_msg(sock, {
                    "op": "compiled",
                    "id": message["id"],
                    "ok": ok,
                    "compiled": compiled,
                }, faults=faults, role="worker")
                executed += 1
            elif op == "ping":
                # Heartbeat probe from the coordinator's liveness
                # thread; also answers per-link health checks.
                send_msg(sock, {"op": "pong", "pid": os.getpid()},
                         faults=faults, role="worker")
            elif op == "stats":
                stats = cache.stats_dict()
                stats["reconnects"] = reconnects
                send_msg(sock, {"op": "stats", "stats": stats},
                         faults=faults, role="worker")
            else:
                send_msg(
                    sock, {"op": "error", "message": f"unknown op {op!r}"},
                    faults=faults, role="worker",
                )
        except Exception:
            return executed, False  # send failed: link is gone


def _warm(cache: ArtifactCache, message: dict) -> bool:
    """Compile-only execution of one compile-ahead task.

    Builds the shape's artifacts (CNF, d-DNNF, gate tape) through this
    worker's cache — landing them in the fleet's shared store — without
    running Algorithm 1.  Failures (budget, corrupt input) are reported
    as ``ok=False`` and never kill the worker.
    """
    try:
        options = message["options"].with_(cache=cache)
        handle = cache.open(message["circuit"].condition({}))
        budget = options.compilation_budget()
        handle.tape(budget=budget, jobs=options.compile_jobs)
        return True
    except Exception:
        return False


def _compile(cache: ArtifactCache, message: dict) -> tuple[bool, bool]:
    """One component-compile op: ensure the canonical
    component ``message["key"]`` is in this worker's memo (and, with a
    shared store, in the fleet's ``.comp`` tier).

    Returns ``(compiled, ok)``: ``compiled`` is ``False`` on a
    memo/store hit — the fleet-wide compile-once case — and ``ok`` is
    ``False`` on a failure (budget, corrupt input), which never kills
    the worker: the owning shape's stitch job retries inline and
    reports the real error per answer.
    """
    try:
        return compile_component(
            message["key"],
            cache.component_memo(),
            budget=message.get("budget"),
        ), True
    except Exception:
        return False, False


def _execute_group(cache: ArtifactCache, message: dict) -> dict:
    """One ``task_group``: a shape representative or a same-shape
    sibling unit, executed as a single ``engine.explain_batch`` call
    (a one-job group runs through ``explain_circuit``).

    ``message["tasks"]`` are the plan's portable jobs.  Returns
    ``{job index: EngineResult}``.  A group-level failure is reported
    per job (status ``"error"``): nothing kills the worker loop.
    """
    engine_name = message["engine"]
    jobs = message["tasks"]
    try:
        engine = get_engine(engine_name)
        results = engine.explain_batch([
            (job.circuit, job.players, job.options.with_(cache=cache))
            for job in jobs
        ])
        return {job.index: result for job, result in zip(jobs, results)}
    except Exception as error:
        failure = f"{type(error).__name__}: {error}"
        return {
            job.index: EngineResult(
                method=engine_name,
                values=None,
                exact=False,
                status="error",
                error=failure,
            )
            for job in jobs
        }
