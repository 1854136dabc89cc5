"""The client-side socket transport: ship a batch to a coordinator.

:class:`SocketTransport` is what an
:class:`~repro.engine.session.ExplainSession` constructed with
``executor="socket"`` talks through.  The plan goes over the wire as
it is — its shapes over portable jobs (caches, handles and signatures
stripped), its component keys and its budget — and the coordinator
does the placement.  The session never compiles locally, so a client
on a laptop can drive a fleet of workers that share a store on the
far side.

Robustness: every roundtrip carries per-leg deadlines (a hung
coordinator raises instead of blocking forever), idempotent ops
(``ping``/``warm_status``) retry with jittered exponential backoff,
and batches are keyed by a client-generated ``batch_id`` so a
resubmission after a lost reply is answered from the coordinator's
dedupe cache instead of re-running the work.  ``busy`` rejections from
admission control back off and retry; an unreachable fleet either
raises :class:`~.base.FleetUnavailable` or — with ``degrade="local"``
— falls back to an in-process execution of the same plan, producing
byte-identical Fractions (counted in ``service_stats`` and warned
about, because latency just changed class).
"""

from __future__ import annotations

import itertools
import os
import time
import warnings
from dataclasses import replace

from ..base import EngineOptions, EngineResult
from ..scheduler import BatchPlan, Job, Shape
from .base import FleetBusy, FleetUnavailable, Transport, TransportError
from .faults import Backoff, FaultPlan
from .protocol import (
    ProtocolError,
    connect,
    parse_address,
    recv_msg,
    send_msg,
)


def _portable_options(
    options: EngineOptions, shared: dict[EngineOptions, EngineOptions]
) -> EngineOptions:
    """``options`` without the in-memory cache and canonicalization
    handle, which are process-local (and unpicklable); workers attach
    their own cache.  Equal stripped options are shared through
    ``shared`` (they are frozen), so pickle writes each distinct
    options object once per message."""
    options = options.with_(cache=None, artifacts=None)
    return shared.setdefault(options, options)


def _portable(job: Job, shared: dict[EngineOptions, EngineOptions]) -> Job:
    """``job`` safe to ship to another process or host: portable
    options, and no signature, which only grouped the plan."""
    return replace(
        job, options=_portable_options(job.options, shared), signature=None)


def _portable_shapes(plan: BatchPlan) -> list[Shape]:
    """The wire form of the plan's shapes: the same shapes over
    portable jobs, sharing one options object per distinct options."""
    shared: dict[EngineOptions, EngineOptions] = {}
    return [
        Shape(None if rep is None else _portable(rep, shared),
              [[_portable(job, shared) for job in unit] for unit in units],
              needs)
        for rep, units, needs in plan.shapes
    ]


class SocketTransport(Transport):
    """Submits batches to a :class:`~.coordinator.Coordinator`.

    ``min_workers`` makes the coordinator hold the batch until that
    many workers registered (bounded by ``wait_timeout``) — the knob CI
    and cold-started fleets use instead of sleeping.  One connection is
    opened per batch; the coordinator and its workers are the long-
    lived parts of this transport.

    ``op_timeout`` bounds each control-op leg and ``batch_timeout``
    the batch-reply wait; ``retries`` bounds how often a failed or
    rejected exchange is retried (with jittered backoff);
    ``degrade="local"`` turns a persistently unreachable fleet into an
    in-process fallback instead of an error.
    """

    kind = "socket"

    def __init__(
        self,
        address: str | tuple[str, int],
        min_workers: int | None = None,
        wait_timeout: float = 60.0,
        connect_retry_for: float = 10.0,
        op_timeout: float | None = 30.0,
        batch_timeout: float | None = 600.0,
        retries: int = 2,
        degrade: str | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        super().__init__()
        self.address = parse_address(address)
        self.min_workers = min_workers
        self.wait_timeout = wait_timeout
        self.connect_retry_for = connect_retry_for
        self.op_timeout = op_timeout
        self.batch_timeout = batch_timeout
        self.retries = max(0, int(retries))
        if degrade not in (None, "local"):
            raise ValueError(f"unknown degrade policy {degrade!r}")
        self.degrade = degrade
        self._faults = faults
        self._backoff = Backoff(initial=0.05, maximum=2.0, seed=0)
        # Client-generated batch ids: unique per (process, transport,
        # sequence) without any randomness — resubmissions reuse the
        # id, which is the whole point.
        self._batch_seq = itertools.count()
        self._fallback: Transport | None = None
        #: Worker count that served the last batch.
        self.remote_workers = 0

    # ------------------------------------------------------------------
    # Roundtrips
    # ------------------------------------------------------------------

    def _roundtrip(self, message: dict, timeout: float | None = None) -> dict:
        """One hello + request + reply exchange with the coordinator.

        ``timeout`` bounds the reply wait (defaults to ``op_timeout``);
        the hello/request legs always use ``op_timeout``.  Any link
        failure — connect refused, deadline, truncated or corrupt frame
        — is normalized to :class:`FleetUnavailable`; an admission
        rejection to :class:`FleetBusy`.  Both are retryable and both
        subclass :class:`~.base.TransportError`."""
        if timeout is None:
            timeout = self.op_timeout
        try:
            sock = connect(self.address, retry_for=self.connect_retry_for)
        except OSError as error:
            raise FleetUnavailable(
                f"cannot reach coordinator at "
                f"{self.address[0]}:{self.address[1]}: {error}"
            ) from error
        try:
            try:
                send_msg(sock, {"op": "hello", "role": "client"},
                         timeout=self.op_timeout,
                         faults=self._faults, role="client")
                send_msg(sock, message, timeout=self.op_timeout,
                         faults=self._faults, role="client")
                reply = recv_msg(sock, timeout=timeout,
                                 faults=self._faults, role="client")
            except (ProtocolError, OSError) as error:
                raise FleetUnavailable(
                    f"coordinator link failed: {error}"
                ) from error
        finally:
            sock.close()
        if reply is None:
            raise FleetUnavailable(
                "coordinator closed the connection mid-request"
            )
        if isinstance(reply, dict) and reply.get("op") == "busy":
            raise FleetBusy(reply.get("message", "coordinator busy"))
        return reply

    def _retrying(self, message: dict, timeout: float | None = None) -> dict:
        """A :meth:`_roundtrip` with bounded retry + backoff — only for
        idempotent control ops (``ping``, ``warm_status``)."""
        attempt = 0
        while True:
            try:
                return self._roundtrip(message, timeout=timeout)
            except (FleetUnavailable, FleetBusy) as error:
                if isinstance(error, FleetBusy):
                    self._count("busy_rejections")
                if attempt >= self.retries:
                    raise
                attempt += 1
                self._count("retries")
                self._backoff.sleep(attempt - 1)

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------

    def run_batch(self, plan: BatchPlan) -> dict[int, EngineResult]:
        batch_id = f"{os.getpid():x}-{id(self):x}-{next(self._batch_seq)}"
        payload = {
            "op": "batch",
            "engine": plan.engine,
            # The coordinator schedules these shapes as they are: each
            # representative after the components it needs, then its
            # sibling units.
            "shapes": _portable_shapes(plan),
            "components": plan.components,
            "budget": plan.compilation_budget(),
            "min_workers": self.min_workers,
            "wait_timeout": self.wait_timeout,
            # Dedupe key: a resubmission after a lost reply is served
            # from the coordinator's cache instead of re-running.
            "batch_id": batch_id,
        }
        attempt = 0
        while True:
            try:
                reply = self._roundtrip(payload, timeout=self.batch_timeout)
                break
            except FleetBusy:
                self._count("busy_rejections")
                if attempt >= self.retries:
                    raise
                attempt += 1
                self._count("retries")
                self._backoff.sleep(attempt - 1)
            except FleetUnavailable:
                if attempt >= self.retries:
                    if self.degrade == "local":
                        return self._run_degraded(plan)
                    raise
                attempt += 1
                self._count("retries")
                self._backoff.sleep(attempt - 1)
        if reply.get("op") != "results":
            raise TransportError(
                reply.get("message", f"unexpected reply {reply!r}")
            )
        # Cumulative since each worker started (workers outlive batches
        # by design); the session surfaces them under remote_* keys.
        self.remote_stats = dict(reply.get("worker_stats", {}))
        self.remote_workers = int(reply.get("workers", 0))
        return dict(reply["results"])

    def _run_degraded(self, plan: BatchPlan) -> dict[int, EngineResult]:
        """Graceful degradation: run the plan in-process.

        Same plan, same engines, same caches — so the Fractions are
        byte-identical to what the fleet would have returned; only the
        latency class changed, which is why this warns and counts."""
        warnings.warn(
            f"coordinator at {self.address[0]}:{self.address[1]} is "
            f"unreachable; degrading batch to in-process execution",
            RuntimeWarning,
            stacklevel=3,
        )
        self._count("degraded_batches")
        if self._fallback is None:
            from .local import InProcessTransport

            self._fallback = InProcessTransport()
        return self._fallback.run_batch(plan)

    def ping(self) -> int:
        """Worker count currently registered at the coordinator."""
        reply = self._retrying({"op": "ping"})
        if not isinstance(reply, dict) or reply.get("op") != "pong":
            raise TransportError(f"unexpected ping reply {reply!r}")
        return int(reply["workers"])

    def close(self) -> None:
        fallback, self._fallback = self._fallback, None
        if fallback is not None:
            fallback.close()

    # ------------------------------------------------------------------
    # Compile-ahead
    # ------------------------------------------------------------------

    def warm_batch(self, plan: BatchPlan) -> int:
        """Queue the plan's representatives (one per distinct shape) on
        the coordinator's compile-ahead queue and return the number of
        tasks queued.  Fire-and-forget: workers compile the
        shapes into the fleet's shared store off the request path; poll
        :meth:`warm_status` or block on :meth:`wait_warm` to observe the
        drain.

        A plan with compile units additionally queues its
        fleet-wide distinct component compiles *ahead* of the
        representatives, so shared components compile exactly once
        across the fleet instead of redundantly inside every
        concurrently-warming representative; the returned count still
        covers representatives only.

        Not retried: a duplicate enqueue would duplicate compile work,
        which is exactly what warming tries to avoid."""
        if not plan.shapes:
            return 0
        tasks = []
        # Place each compile where the first shape that needs it will
        # warm, so that worker stitches from its own memory.
        owners: dict[int, str] = {}
        shared: dict[EngineOptions, EngineOptions] = {}
        for rep, _, needs in plan.shapes:
            affinity = rep.options.artifacts.digest
            tasks.append({
                "id": rep.index, "circuit": rep.circuit,
                "players": rep.players,
                "options": _portable_options(rep.options, shared),
                "affinity": affinity,
            })
            for index in needs:
                owners.setdefault(index, affinity)
        budget = plan.compilation_budget()
        components = [
            {"id": f"component:{index}", "key": key,
             "affinity": owners[index], "budget": budget}
            for index, key in enumerate(plan.components)
        ]
        reply = self._roundtrip({
            "op": "warm", "engine": plan.engine, "tasks": tasks,
            "components": components,
        })
        if reply.get("op") != "queued":
            raise TransportError(
                reply.get("message", f"unexpected warm reply {reply!r}")
            )
        return int(reply["queued"])

    def warm_status(self) -> dict[str, int]:
        """Snapshot of the coordinator's compile-ahead queue."""
        reply = self._retrying({"op": "warm_status"})
        if reply.get("op") != "warm_status":
            raise TransportError(
                reply.get("message", f"unexpected warm_status reply {reply!r}")
            )
        return {k: v for k, v in reply.items() if k != "op"}

    def wait_warm(
        self, timeout: float = 60.0, poll: float = 0.05
    ) -> dict[str, int]:
        """Block until the compile-ahead queue drains (or ``timeout``
        passes); returns the final :meth:`warm_status` snapshot."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.warm_status()
            if status.get("pending", 0) == 0 or time.monotonic() >= deadline:
                return status
            time.sleep(poll)
