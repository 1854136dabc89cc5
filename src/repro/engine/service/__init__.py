"""The service layer: pluggable transports executing a batch plan.

A :class:`~repro.engine.service.base.Transport` takes the
:class:`~repro.engine.scheduler.BatchPlan` produced by the scheduler
and returns one :class:`~repro.engine.base.EngineResult` per job.
Three interchangeable backends ship here:

* :class:`InProcessTransport` — slot threads sharing the session's
  in-memory cache (the default; what ``executor="thread"`` always
  meant);
* :class:`ProcessPoolTransport` — a *persistent*
  :class:`~concurrent.futures.ProcessPoolExecutor` reused across
  ``explain_many`` calls; workers share artifacts through the
  persistent store;
* :class:`SocketTransport` — a client of the socket
  :class:`Coordinator` (``repro serve``), which hands the batch's
  units to long-lived ``repro worker`` processes sharing one
  :class:`~repro.engine.store.PersistentArtifactStore` directory.

All three run one schedule, a
:class:`~repro.engine.scheduler.BatchSchedule` built from the plan's
shapes and driven by
:class:`~repro.engine.service.pipeline.PullLoop`: the batch's distinct
component compiles, then each shape's representative once its
components have landed, then the shape's sibling units.  The socket
transport ships those shapes as they are, so the coordinator builds the
same schedule from the wire.

All three produce identical results for the same batch: exact engines
return equal :class:`~fractions.Fraction` objects, sampling engines
equal values for equal seeds (per-answer seeds are derived before the
plan ever reaches a transport).
"""

from .base import FleetBusy, FleetUnavailable, Transport, TransportError
from .coordinator import Coordinator
from .faults import Backoff, FaultPlan, FaultRule
from .local import InProcessTransport, ProcessPoolTransport
from .protocol import DeadlineExceeded, ProtocolError, format_address, parse_address
from .remote import SocketTransport
from .worker import run_worker

__all__ = [
    "Transport", "TransportError", "FleetBusy", "FleetUnavailable",
    "InProcessTransport", "ProcessPoolTransport", "SocketTransport",
    "Coordinator", "run_worker",
    "Backoff", "FaultPlan", "FaultRule",
    "DeadlineExceeded", "ProtocolError",
    "parse_address", "format_address",
]
