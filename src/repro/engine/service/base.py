"""The transport interface: run a batch plan somewhere.

Transports are long-lived — an
:class:`~repro.engine.session.ExplainSession` creates each kind at most
once and reuses it for every ``explain_many`` call, which is where the
service layer's throughput comes from: pools stay warm, workers keep
their per-process caches, and only :meth:`Transport.close` (or the
session's context-manager exit) tears anything down.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..base import EngineResult
    from ..scheduler import BatchPlan


class TransportError(RuntimeError):
    """The transport could not complete a batch (e.g. no live workers,
    coordinator unreachable).  Engine-level failures are *not* transport
    errors — they come back as per-job ``EngineResult`` statuses."""


class FleetUnavailable(TransportError):
    """The coordinator could not be reached (connect failed, link died
    mid-request, or every retry was exhausted).  This is the trigger
    for the ``degrade="local"`` fallback: the fleet is *gone*, not
    merely busy."""


class FleetBusy(TransportError):
    """The coordinator's admission queue is full and it rejected the
    request with an explicit ``busy`` reply.  Retryable by design —
    the fleet is alive, just saturated; clients back off rather than
    degrade."""


class Transport(ABC):
    """Executes :class:`~repro.engine.scheduler.BatchPlan` objects.

    Implementations must honour the plan's one ordering constraint
    (a shape's representative finishes before its siblings start) and
    must stay usable after a failed batch: an exception from
    :meth:`run_batch` may abandon that batch's pending work but must
    not leak it — the next call starts clean.
    """

    #: Registry key; matches the session's ``executor=`` argument.
    kind: ClassVar[str]

    #: Aggregated remote-side cache counters of the last batch (socket
    #: transport only; local transports leave it empty).
    remote_stats: dict[str, int]

    #: Client-side resilience counters, cumulative over the transport's
    #: life (``retries``, ``reconnects``, ``degraded_batches``,
    #: ``busy_rejections``, ``pool_restarts`` — whichever apply).  The
    #: session merges them into ``session.stats`` so ``bench --json``
    #: reports them next to the ``remote_*`` fleet counters.
    service_stats: dict[str, int]

    def __init__(self) -> None:
        self.remote_stats = {}
        self.service_stats = {}

    def _count(self, key: str, n: int = 1) -> None:
        """Bump one :attr:`service_stats` counter."""
        self.service_stats[key] = self.service_stats.get(key, 0) + n

    @abstractmethod
    def run_batch(self, plan: "BatchPlan") -> dict[int, "EngineResult"]:
        """Execute every job of ``plan``; results keyed by job index."""

    def close(self) -> None:
        """Release pools/connections.  Idempotent."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} kind={self.kind!r}>"
