"""The socket coordinator: hands batch units to long-lived workers.

One :class:`Coordinator` listens on a TCP port.  Two kinds of peers
connect (see :mod:`~repro.engine.service.protocol` for the wire format
and its trusted-network caveat):

* **workers** (``repro worker``) introduce themselves and then answer
  ``compile`` and ``task_group`` requests for the rest of their life.
  Workers keep their own
  :class:`~repro.engine.cache.ArtifactCache` — ideally over one shared
  :class:`~repro.engine.store.PersistentArtifactStore` directory, so a
  shape any worker compiled is a disk hit for every other worker and
  for every later batch;
* **clients** (:class:`~repro.engine.service.remote.SocketTransport`,
  i.e. an ``ExplainSession`` with ``executor="socket"``) submit batches
  and read back one result per job.

Every batch runs the one schedule of every transport, a
:class:`~repro.engine.scheduler.BatchSchedule` built from the plan
shapes the client sent and driven by
:class:`~repro.engine.service.pipeline.PullLoop` with one slot per live
worker: the batch's distinct component compiles first, then any shape
representative whose components have landed, then the sibling units of
finished representatives — each representative and each sibling unit
one ``task_group`` op.  Siblings therefore find their shape in the
shared store whichever worker ran the representative.  A worker that
dies mid-unit has that unit requeued for the survivors; the batch only
fails when no workers remain.
"""

from __future__ import annotations

import select
import socket
import threading
from collections import OrderedDict, deque
from itertools import chain

from ..base import EngineResult
from ..scheduler import BatchSchedule, Unit
from .faults import FaultPlan
from .pipeline import LostSlot, PullLoop, deadline_for
from .protocol import ProtocolError, enable_keepalive, recv_msg, send_msg


def _idle_link_dead(sock: socket.socket) -> bool:
    """Whether an *idle* worker socket has hung up.

    Idle workers never send unsolicited data, so the socket being
    readable means EOF (or a protocol violation — treated the same).
    A zero-timeout select keeps this a cheap, non-blocking probe.
    A socket already closed on this side (``select`` raises
    ``ValueError`` on its fd of -1) is dead too: the heartbeat thread
    closes a link just before it unlists it, so a concurrent sweep can
    see it closed but still registered.
    """
    try:
        readable, _, _ = select.select([sock], [], [], 0)
        if not readable:
            return False
        return sock.recv(1, socket.MSG_PEEK) == b""
    except (OSError, ValueError):
        return True


class _WorkerLink:
    """One registered worker connection, used synchronously."""

    def __init__(
        self,
        sock: socket.socket,
        peer: str,
        faults: FaultPlan | None = None,
    ) -> None:
        self.sock = sock
        self.peer = peer
        self.lock = threading.Lock()
        self.alive = True
        self.faults = faults
        #: Consecutive failed heartbeats (reset by any successful pong).
        self.misses = 0

    def request(self, message: dict, timeout: float | None = None) -> dict:
        """Send one request and read its reply (serialized per link).

        ``timeout`` bounds *each leg* of the round-trip — a hung worker
        trips :class:`~.protocol.DeadlineExceeded` here and flows into
        the dispatcher's existing dead-worker requeue paths instead of
        stalling the batch forever."""
        with self.lock:
            send_msg(self.sock, message, timeout=timeout,
                     faults=self.faults, role="coordinator")
            reply = recv_msg(self.sock, timeout=timeout,
                             faults=self.faults, role="coordinator")
        if reply is None:
            raise ConnectionError(f"worker {self.peer} closed the connection")
        return reply

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:
            pass


class _BatchFailed(RuntimeError):
    """No live workers remained for part of a batch."""


def _budget_seconds(budget) -> float | None:
    """The numeric seconds of a compilation budget (objects carry it
    as ``max_seconds``); ``None`` when unbudgeted or non-numeric."""
    seconds = getattr(budget, "max_seconds", budget)
    try:
        return float(seconds) if seconds is not None else None
    except (TypeError, ValueError):
        return None


class Coordinator:
    """A coordinator service bound to ``host:port`` (``port=0`` picks a
    free port; read the actual one from :attr:`address`).

    Use :meth:`start` for a background thread (tests, embedding) or
    :meth:`serve_forever` to block (the ``repro serve`` CLI).  Batches
    from concurrent clients are serialized — workers are a shared
    resource and interleaving two batches would break both batches'
    shape-affinity assumptions.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float | None = 5.0,
        heartbeat_miss_threshold: int = 3,
        op_timeout: float | None = 120.0,
        max_queue: int | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self._listener = socket.create_server((host, port), reuse_port=False)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._workers: list[_WorkerLink] = []
        self._cond = threading.Condition()
        self._batch_lock = threading.Lock()
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        #: Liveness probing of *idle* worker links (busy links are the
        #: dispatchers' problem — their per-op deadlines catch hangs).
        #: ``None`` disables the prober.
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_miss_threshold = max(1, heartbeat_miss_threshold)
        #: Base per-leg deadline of every worker round-trip; compile and
        #: group ops stretch it via :func:`~.pipeline.deadline_for`.
        self.op_timeout = op_timeout
        #: Admission bound: batches queued + running.  ``None`` admits
        #: everything (pre-resilience behaviour).
        self.max_queue = max_queue
        #: How long a *resubmitted* batch id waits for the original
        #: submission to finish before giving up with an error.
        self.resubmit_wait = 600.0
        self._faults = faults
        self._heartbeat_thread: threading.Thread | None = None
        # Resilience accounting.  _health_lock is a leaf lock: nothing
        # that takes another lock ever runs while it is held.
        self._health_lock = threading.Lock()
        self._counters: dict[str, int] = {
            "heartbeat_misses": 0,
            "rejected_batches": 0,
            "protocol_errors": 0,
            "batches_resubmitted": 0,
        }
        self._queue_depth = 0
        # Client-generated batch-id dedupe: replies of recent batches
        # (bounded) plus an Event per in-flight id, so a client that
        # lost the reply to a partition can resubmit without the fleet
        # doing the work twice.
        self._batch_replies: OrderedDict[str, dict] = OrderedDict()
        self._batch_replies_max = 8
        self._batch_inflight: dict[str, threading.Event] = {}
        # Compile-ahead queue: shapes submitted via the "warm" op are
        # compiled by workers off the request path (see _warm_loop).
        self._warm_queue: deque[dict] = deque()
        self._warm_lock = threading.Lock()
        self._warm_event = threading.Event()
        self._warm_thread: threading.Thread | None = None
        self._warm_inflight = 0
        self._warm_completed = 0
        self._warm_failed = 0
        self._warm_compile_completed = 0
        self._warm_compile_failed = 0
        #: How long a queued warm task waits for a worker to register
        #: before it is counted as failed.
        self.warm_worker_timeout = 30.0
        #: Cumulative pipeline counters of every batch this coordinator
        #: ran, measured by its driver (workers cannot see each other's
        #: concurrency).  Reported to clients inside ``worker_stats``
        #: so the session surfaces them under ``remote_*``, cumulative
        #: like every other remote counter.  Mutated under
        #: ``_batch_lock`` only.
        self._pipeline_totals: dict[str, float] = {
            "pipeline_overlap_seconds": 0.0,
            "component_pass_compiles": 0,
            "stitch_jobs": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "Coordinator":
        """Accept connections on a background daemon thread."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-coordinator", daemon=True
            )
            self._accept_thread.start()
        if self._heartbeat_thread is None and self.heartbeat_interval:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (for the CLI process)."""
        self.start()
        self._stop.wait()

    def shutdown(self) -> None:
        """Stop accepting, dismiss every worker, release the port."""
        self._stop.set()
        self._warm_event.set()  # unblock the warmer so it can exit
        try:
            # close() alone does not wake accept() on Linux; without
            # this the accept thread keeps the coordinator alive.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._cond:
            workers, self._workers = self._workers, []
            self._cond.notify_all()
        for link in workers:
            try:
                with link.lock:
                    send_msg(link.sock, {"op": "shutdown"}, timeout=1.0)
            except Exception:
                pass  # a dead or hung worker cannot block shutdown
            link.close()

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        """Count of *live* workers (links that hung up while idle are
        swept out before counting)."""
        with self._cond:
            self._sweep_dead_locked()
            return len(self._workers)

    def wait_for_workers(self, n: int, timeout: float | None = None) -> int:
        """Block until at least ``n`` *live* workers are registered (or
        the timeout passes); returns the current count either way.

        Every check sweeps links whose peers disconnected while idle,
        so a dead worker never satisfies the barrier."""
        with self._cond:
            def enough() -> bool:
                self._sweep_dead_locked()
                return len(self._workers) >= n

            self._cond.wait_for(enough, timeout)
            return len(self._workers)

    def _sweep_dead_locked(self) -> None:
        """Drop links whose idle sockets report EOF (caller holds the
        condition lock).  Links busy in a batch are skipped — their
        dispatcher owns failure detection there."""
        for link in list(self._workers):
            if link.lock.locked():
                continue  # mid-request: the dispatcher will notice
            if _idle_link_dead(link.sock):
                link.close()
                self._workers.remove(link)

    def _register_worker(self, link: _WorkerLink) -> None:
        with self._cond:
            self._workers.append(link)
            self._cond.notify_all()

    def _discard_worker(self, link: _WorkerLink) -> None:
        link.close()
        with self._cond:
            if link in self._workers:
                self._workers.remove(link)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        with self._health_lock:
            self._counters[key] = self._counters.get(key, 0) + n

    def _heartbeat_loop(self) -> None:
        """Probe *idle* worker links every ``heartbeat_interval``.

        A link busy in a batch is skipped (non-blocking acquire): its
        dispatcher's per-op deadline owns failure detection there, and
        interleaving a ping into an in-flight request would corrupt the
        request/reply pairing.  A probe that fails (deadline, EOF,
        garbage) counts one miss; ``heartbeat_miss_threshold``
        consecutive misses discard the worker — batches started after
        that never see it, and the compile-ahead queue stops routing
        to it.  A slow-but-alive worker whose pong arrives after the
        deadline is self-healing: the stale pong makes the *next*
        exchange fail out-of-protocol, which discards the link, and
        the worker's reconnect loop re-registers it fresh.
        """
        while not self._stop.wait(self.heartbeat_interval):
            with self._cond:
                links = list(self._workers)
            for link in links:
                if self._stop.is_set():
                    return
                if not link.alive:
                    continue
                if not link.lock.acquire(blocking=False):
                    continue  # mid-request: dispatcher owns detection
                try:
                    send_msg(link.sock, {"op": "ping"},
                             timeout=self.heartbeat_interval,
                             faults=self._faults, role="coordinator")
                    reply = recv_msg(link.sock,
                                     timeout=self.heartbeat_interval,
                                     faults=self._faults, role="coordinator")
                    ok = isinstance(reply, dict) and reply.get("op") == "pong"
                except Exception:
                    ok = False
                finally:
                    link.lock.release()
                if ok:
                    link.misses = 0
                    continue
                link.misses += 1
                self._count("heartbeat_misses")
                if link.misses >= self.heartbeat_miss_threshold:
                    self._discard_worker(link)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._listener.accept()
            except OSError:
                break  # listener closed by shutdown()
            threading.Thread(
                target=self._handle_connection,
                args=(conn, f"{peer[0]}:{peer[1]}"),
                name=f"repro-peer-{peer[1]}",
                daemon=True,
            ).start()

    def _handle_connection(self, conn: socket.socket, peer: str) -> None:
        enable_keepalive(conn)
        try:
            hello = recv_msg(conn)
        except ProtocolError:
            self._count("protocol_errors")
            conn.close()
            return
        except Exception:
            conn.close()
            return
        if not isinstance(hello, dict) or hello.get("op") != "hello":
            if hello is not None:
                self._count("protocol_errors")
            conn.close()
            return
        if hello.get("role") == "worker":
            # Registration is all this thread does: the link is driven
            # synchronously by batch dispatchers from here on.
            self._register_worker(_WorkerLink(conn, peer, self._faults))
            return
        self._serve_client(conn)

    def _serve_client(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    message = recv_msg(conn, faults=self._faults,
                                       role="coordinator")
                except ProtocolError:
                    # Malformed/truncated frame: the stream cannot be
                    # resynchronized, so the connection is dropped —
                    # but counted, so operators can see a misbehaving
                    # (or merely mis-versioned) client.
                    self._count("protocol_errors")
                    return
                except Exception:
                    return
                if message is None:
                    return
                if not isinstance(message, dict):
                    self._count("protocol_errors")
                    return
                op = message.get("op")
                if op == "ping":
                    send_msg(conn, {"op": "pong", "workers": self.n_workers})
                elif op == "shutdown":
                    send_msg(conn, {"op": "ok"})
                    self.shutdown()
                    return
                elif op == "batch":
                    send_msg(conn, self._admit_batch(message))
                elif op == "warm":
                    send_msg(conn, self._enqueue_warm(message))
                elif op == "warm_status":
                    send_msg(conn, self._warm_status())
                else:
                    send_msg(
                        conn, {"op": "error", "message": f"unknown op {op!r}"}
                    )
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Admission and dedupe
    # ------------------------------------------------------------------

    def _admit_batch(self, message: dict) -> dict:
        """Admission control plus batch-id dedupe around one batch.

        Resubmits (same client-generated ``batch_id``) are answered
        from the bounded reply cache, or — when the original submission
        is still running — by waiting for it; neither re-runs the work
        or consumes an admission slot.  Fresh batches are rejected with
        an explicit ``busy`` reply once ``max_queue`` batches are
        queued or running; the client backs off and retries.  Error
        replies are *not* cached, so a retry after a transient fleet
        failure genuinely re-runs."""
        batch_id = message.get("batch_id")
        while True:
            wait_event = None
            with self._health_lock:
                if batch_id is not None:
                    cached = self._batch_replies.get(batch_id)
                    if cached is not None:
                        self._counters["batches_resubmitted"] += 1
                        return cached
                    wait_event = self._batch_inflight.get(batch_id)
                    if wait_event is not None:
                        self._counters["batches_resubmitted"] += 1
                if wait_event is None:
                    if (self.max_queue is not None
                            and self._queue_depth >= self.max_queue):
                        self._counters["rejected_batches"] += 1
                        return {
                            "op": "busy",
                            "message": (
                                f"admission queue full "
                                f"(max_queue={self.max_queue})"
                            ),
                        }
                    self._queue_depth += 1
                    if batch_id is not None:
                        self._batch_inflight[batch_id] = threading.Event()
            if wait_event is None:
                break
            if not wait_event.wait(self.resubmit_wait):
                return {
                    "op": "error",
                    "message": f"batch {batch_id} still running after "
                               f"{self.resubmit_wait}s",
                }
            # The original finished: loop to read its cached reply (or
            # run afresh if it errored and was deliberately not cached).
        reply = {"op": "error", "message": "batch aborted"}
        try:
            reply = self._run_batch(message)
        except _BatchFailed as error:
            reply = {"op": "error", "message": str(error)}
        except Exception as error:  # defensive: report, don't die
            reply = {
                "op": "error",
                "message": f"{type(error).__name__}: {error}",
            }
        finally:
            with self._health_lock:
                self._queue_depth -= 1
                if batch_id is not None:
                    if reply.get("op") == "results":
                        self._batch_replies[batch_id] = reply
                        while len(self._batch_replies) > self._batch_replies_max:
                            self._batch_replies.popitem(last=False)
                    event = self._batch_inflight.pop(batch_id, None)
                    if event is not None:
                        event.set()
        return reply

    # ------------------------------------------------------------------
    # Compile-ahead queue
    # ------------------------------------------------------------------

    def _enqueue_warm(self, message: dict) -> dict:
        """Queue compile-ahead tasks and reply immediately.

        The client gets back the queue depth, not results: warming is
        fire-and-forget by design (poll ``warm_status`` to observe
        drain).  The warmer thread starts lazily on first use.

        Pipelined clients also send ``components`` — the fleet-wide distinct
        canonical component compiles.  They are queued *ahead* of the
        shape representatives (the serial warmer then compiles each
        shared component exactly once before any representative
        stitches it) and tracked under separate counters, so
        ``completed``/``failed`` keep meaning representatives."""
        engine = message["engine"]
        tasks = message.get("tasks", [])
        components = message.get("components", [])
        with self._warm_lock:
            for component in components:
                self._warm_queue.append(
                    {**component, "engine": engine, "kind": "compile"}
                )
            for task in tasks:
                self._warm_queue.append({**task, "engine": engine})
            pending = len(self._warm_queue) + self._warm_inflight
        if self._warm_thread is None:
            self._warm_thread = threading.Thread(
                target=self._warm_loop, name="repro-warmer", daemon=True
            )
            self._warm_thread.start()
        self._warm_event.set()
        return {
            "op": "queued",
            "queued": len(tasks),
            "components": len(components),
            "pending": pending,
        }

    def _warm_status(self) -> dict:
        with self._warm_lock:
            return {
                "op": "warm_status",
                "queued": len(self._warm_queue),
                "in_flight": self._warm_inflight,
                "pending": len(self._warm_queue) + self._warm_inflight,
                "completed": self._warm_completed,
                "failed": self._warm_failed,
                "component_completed": self._warm_compile_completed,
                "component_failed": self._warm_compile_failed,
            }

    def _warm_loop(self) -> None:
        """Drain the compile-ahead queue, one task per batch-lock hold.

        Taking ``_batch_lock`` per *task* (not per queue drain) means a
        client batch arriving mid-warm preempts after at most one
        compile — warming never blocks the request path for long, which
        is the whole point of doing it ahead of time."""
        while True:
            self._warm_event.wait()
            if self._stop.is_set():
                return
            with self._warm_lock:
                if not self._warm_queue:
                    self._warm_event.clear()
                    continue
                task = self._warm_queue.popleft()
                self._warm_inflight += 1
            ok = False
            try:
                with self._batch_lock:
                    if not self._stop.is_set() and self.wait_for_workers(
                        1, self.warm_worker_timeout
                    ) >= 1:
                        ok = self._warm_one(task)
            finally:
                with self._warm_lock:
                    self._warm_inflight -= 1
                    if task.get("kind") == "compile":
                        if ok:
                            self._warm_compile_completed += 1
                        else:
                            self._warm_compile_failed += 1
                    elif ok:
                        self._warm_completed += 1
                    else:
                        self._warm_failed += 1

    def _warm_one(self, task: dict) -> bool:
        """Send one warm task to a worker chosen by shape affinity (so
        the same shape keeps warming the same worker's in-memory cache;
        component-compile tasks carry their owning shape's affinity and
        land on the same worker its representative will);
        survivors are tried in order when a worker dies."""
        with self._cond:
            workers = [w for w in self._workers if w.alive]
        if not workers:
            return False
        try:
            start = int(str(task["affinity"])[:8], 16) % len(workers)
        except (KeyError, ValueError):
            start = 0
        if task.get("kind") == "compile":
            request = {
                "op": "compile",
                "id": task["id"],
                "key": task["key"],
                "budget": task.get("budget"),
            }
            expected = "compiled"
        else:
            request = {
                "op": "warm",
                "id": task["id"],
                "engine": task["engine"],
                "circuit": task["circuit"],
                "players": task["players"],
                "options": task["options"],
            }
            expected = "warmed"
        try:
            budget = _budget_seconds(task["options"].compilation_budget())
        except Exception:
            budget = _budget_seconds(task.get("budget"))
        for offset in range(len(workers)):
            worker = workers[(start + offset) % len(workers)]
            try:
                reply = worker.request(
                    request,
                    timeout=deadline_for(self.op_timeout,
                                         budget_seconds=budget),
                )
            except Exception:
                self._discard_worker(worker)
                continue
            if reply.get("op") == expected:
                if reply.get("compiled"):
                    self._pipeline_totals["component_pass_compiles"] += 1
                return bool(reply.get("ok"))
            return False  # out-of-protocol answer: don't retry elsewhere
        return False

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def _run_batch(self, message: dict) -> dict:
        min_workers = max(1, int(message.get("min_workers") or 1))
        wait_timeout = message.get("wait_timeout", 60.0)
        with self._batch_lock:
            if self.wait_for_workers(min_workers, wait_timeout) < min_workers:
                raise _BatchFailed(
                    f"{min_workers} worker(s) required, "
                    f"{self.n_workers} connected after {wait_timeout}s"
                )
            results = self._run_pipelined(
                message["engine"], message["shapes"],
                message["components"], message["budget"],
            )
            worker_stats, n_reporting = self._collect_stats()
            # Pipeline and resilience counters are coordinator-side
            # observations: fold the cumulative totals into the
            # aggregate so they ride the same latest-snapshot-wins
            # path as every worker counter.
            with self._health_lock:
                for key, value in chain(self._pipeline_totals.items(),
                                        self._counters.items()):
                    worker_stats[key] = worker_stats.get(key, 0) + value
                worker_stats["queue_depth"] = (
                    worker_stats.get("queue_depth", 0) + self._queue_depth
                )
        return {
            "op": "results",
            "results": results,
            "worker_stats": worker_stats,
            "workers": n_reporting,
        }

    def _run_pipelined(
        self,
        engine: str,
        shapes: list,
        components: list,
        budget,
    ) -> dict[int, EngineResult]:
        """Execute one batch with one slot per live worker.

        The client's plan shapes become a
        :class:`~repro.engine.scheduler.BatchSchedule` as they are:
        each representative (a *stitch* job when it needs components)
        and each sibling unit goes to a worker as one ``task_group``.
        :class:`~.pipeline.PullLoop` gives every live worker a slot, so
        ``compile`` and ``task_group`` ops interleave per worker and
        execution streams while other shapes still compile.

        Dead workers: a failed round-trip discards the worker and
        raises :class:`~.pipeline.LostSlot`, which requeues its unit
        and retires the slot; this loop reruns the driver over the
        survivors while work remains and fails the batch only when no
        workers are left.  Compile *failures* (budget) are not retried
        — the owning shape's stitch job compiles inline and reports
        per answer.
        """
        # Per-op deadlines: compiles may run for the whole budget, and
        # stitch ops may compile inline after a failed component — both
        # get the stretched deadline.  A hung worker trips the deadline
        # and flows into the requeue path like any other death (the
        # idle prober cannot see a busy link, so the dispatcher's
        # deadline is what detects it).
        budget_seconds = _budget_seconds(budget)
        schedule = BatchSchedule(shapes, len(components))

        def run_unit(worker: _WorkerLink, unit: Unit):
            if unit.kind == "compile":
                reply = worker.request({
                    "op": "compile",
                    "id": f"component:{unit.item}",
                    "key": components[unit.item],
                    "budget": budget,
                }, timeout=deadline_for(self.op_timeout,
                                        budget_seconds=budget_seconds))
                if reply.get("op") != "compiled":
                    raise ConnectionError("answered out of protocol")
                return bool(reply.get("compiled"))
            jobs = [unit.item] if unit.kind == "rep" else unit.item
            reply = worker.request({
                "op": "task_group", "engine": engine, "tasks": jobs,
            }, timeout=deadline_for(self.op_timeout,
                                    budget_seconds=budget_seconds,
                                    items=len(jobs)))
            replies = reply.get("results")
            if (reply.get("op") != "result_group"
                    or not isinstance(replies, dict)
                    or set(replies) != {job.index for job in jobs}):
                raise ConnectionError("answered out of protocol")
            return replies

        def execute(worker: _WorkerLink, unit: Unit):
            try:
                return run_unit(worker, unit)
            except Exception as error:
                # The loop holds no lock while a unit executes, so
                # _discard_worker (which takes self._cond) adds no
                # lock-order edge.
                self._discard_worker(worker)
                raise LostSlot(f"worker {worker.peer}: {error}") from error

        loop = PullLoop(schedule, execute)
        while not schedule.done:
            with self._cond:
                workers = [w for w in self._workers if w.alive]
            if not workers:
                raise _BatchFailed(
                    "no live workers left for the rest of the batch"
                )
            loop.run(workers)

        totals = self._pipeline_totals
        totals["pipeline_overlap_seconds"] += loop.overlap_seconds
        totals["component_pass_compiles"] += loop.compiles
        totals["stitch_jobs"] += loop.stitches
        return loop.results

    def _collect_stats(self) -> tuple[dict[str, float], int]:
        """Sum every live worker's cache counters (best-effort).

        Values are added as-is: integer counters stay integers, float
        counters (``pipeline_overlap_seconds``) keep their fractional
        part instead of being truncated."""
        totals: dict[str, float] = {}
        reporting = 0
        with self._cond:
            workers = [w for w in self._workers if w.alive]
        for worker in workers:
            try:
                reply = worker.request({"op": "stats"},
                                       timeout=self.op_timeout)
                stats = reply.get("stats", {})
            except Exception:
                self._discard_worker(worker)
                continue
            reporting += 1
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals, reporting

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        host, port = self.address
        return f"Coordinator({host}:{port}, workers={self.n_workers})"
