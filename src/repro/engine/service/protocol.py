"""Wire protocol of the socket transport: length-prefixed pickles.

Every message is one Python object (a dict with an ``"op"`` key),
pickled and prefixed with its 8-byte big-endian length.  Pickle keeps
circuits, options, and :class:`~fractions.Fraction`-valued results
byte-faithful with zero translation code — at the usual price: **the
coordinator port must only be reachable by trusted peers** (pickle
deserialization executes code; this is an intra-cluster protocol, not
an internet-facing one).  The README's shard-service section repeats
this warning where operators will read it.

Message vocabulary
------------------
Peers introduce themselves with ``{"op": "hello", "role": ...}``
(``"worker"`` or ``"client"``).  Workers then answer ``task_group`` /
``compile`` / ``warm`` / ``ping`` / ``stats`` / ``shutdown`` requests;
a ``task_group`` carries one representative or one sibling unit of a
plan shape.  Clients send ``batch`` (the plan's shapes, its component
keys and its compilation budget) / ``ping`` / ``warm`` /
``warm_status`` / ``shutdown`` and read a single reply per request
(``busy`` is a possible reply when the coordinator's admission queue
is full).

Resilience hooks
----------------
``send_msg``/``recv_msg`` accept a per-op ``timeout`` (a deadline on
the whole framed write/read; expiry raises :class:`DeadlineExceeded`,
after which the stream is desynchronized and the connection must be
abandoned) and an optional
:class:`~repro.engine.service.faults.FaultPlan` + ``role`` pair, the
deterministic fault-injection seam the chaos tests drive.  Connections
are created with ``SO_KEEPALIVE`` so half-dead links are eventually
torn down by the kernel even when the application is idle.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from contextlib import contextmanager

from .faults import Backoff, FaultPlan, FaultRule

#: 8-byte big-endian frame length prefix.
_HEADER = struct.Struct(">Q")

#: Refuse absurd frames (a corrupted prefix would otherwise make the
#: reader try to allocate petabytes).
MAX_FRAME_BYTES = 1 << 32


class ProtocolError(RuntimeError):
    """The peer sent a malformed or oversized frame."""


class DeadlineExceeded(ProtocolError):
    """A framed send/recv did not complete within its per-op deadline.

    The stream may be mid-frame afterwards — callers must treat the
    connection as dead (the peer did not fail, the *link* did)."""


@contextmanager
def _deadline(sock: socket.socket, timeout: float | None, what: str):
    """Apply a temporary socket timeout around one framed operation."""
    if timeout is None:
        yield
        return
    try:
        previous = sock.gettimeout()
        sock.settimeout(timeout)
    except OSError:
        yield  # socket already dead: let the operation raise its own
        return
    try:
        yield
    except (socket.timeout, TimeoutError) as error:
        raise DeadlineExceeded(
            f"{what} deadline of {timeout}s exceeded"
        ) from error
    finally:
        try:
            sock.settimeout(previous)
        except OSError:
            pass


def _inject_send(
    sock: socket.socket, faults: FaultPlan | None, role: str,
    message: object, data: bytes,
) -> bytes | None:
    """Apply any scheduled send-side fault; returns the (possibly
    corrupted) payload, or ``None`` when the message must be dropped."""
    if faults is None:
        return data
    rule = faults.decide(role, "send", message)
    if rule is None:
        return data
    if rule.action == "drop":
        return None
    if rule.action == "delay":
        time.sleep(rule.seconds)
        return data
    if rule.action == "corrupt":
        return b"\x00" * len(data)  # same length, undecodable payload
    # "close": the injected process death / partition.
    _abandon(sock)
    raise ConnectionError(f"fault injected: connection closed ({role} send)")


def _abandon(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def send_msg(
    sock: socket.socket,
    message: object,
    timeout: float | None = None,
    faults: FaultPlan | None = None,
    role: str = "",
) -> None:
    """Serialize ``message`` and write one framed message."""
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    data = _inject_send(sock, faults, role, message, data)
    if data is None:
        return  # injected drop: the message never existed
    with _deadline(sock, timeout, "send"):
        sock.sendall(_HEADER.pack(len(data)) + data)


def recv_msg(
    sock: socket.socket,
    timeout: float | None = None,
    faults: FaultPlan | None = None,
    role: str = "",
) -> object | None:
    """Read one framed message; ``None`` on clean EOF at a frame
    boundary (the peer closed the connection).

    ``timeout`` bounds the whole framed read.  Undecodable payloads
    (truncated pickles, corrupted frames) raise :class:`ProtocolError`
    rather than leaking pickle internals to callers.
    """
    while True:
        with _deadline(sock, timeout, "recv"):
            header = _recv_exact(sock, _HEADER.size, eof_ok=True)
            if header is None:
                return None
            (length,) = _HEADER.unpack(header)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds the limit"
                )
            data = _recv_exact(sock, length, eof_ok=False)
        try:
            message = pickle.loads(data)
        except Exception as error:
            raise ProtocolError(f"undecodable frame: {error}") from error
        if faults is None:
            return message
        rule = faults.decide(role, "recv", message)
        if rule is None:
            return message
        if rule.action == "drop":
            continue  # the message is lost; block on the next frame
        if rule.action == "delay":
            time.sleep(rule.seconds)
            return message
        if rule.action == "corrupt":
            raise ProtocolError(
                f"undecodable frame: fault injected ({role} recv)"
            )
        _abandon(sock)
        raise ConnectionError(
            f"fault injected: connection closed ({role} recv)"
        )


def _recv_exact(sock: socket.socket, n: int, eof_ok: bool) -> bytes | None:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def parse_address(text: str | tuple) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (tuples pass through)."""
    if isinstance(text, tuple):
        host, port = text
        return str(host), int(port)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {text!r} is not of the form host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"address {text!r} has a non-numeric port") from None


def format_address(address: tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


def enable_keepalive(sock: socket.socket) -> None:
    """Turn on ``SO_KEEPALIVE`` (best-effort) so half-open links are
    eventually detected by the kernel even while the peer is idle."""
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    except OSError:
        pass  # exotic socket types (tests' socketpairs) may refuse


def connect(
    address: str | tuple[str, int],
    timeout: float = 10.0,
    retry_for: float = 0.0,
    backoff: Backoff | None = None,
) -> socket.socket:
    """TCP-connect to ``address``, optionally retrying for up to
    ``retry_for`` seconds with jittered exponential backoff (workers
    and CI scripts start before the coordinator finishes binding; the
    backoff absorbs that without hammering the listen queue the way
    the old fixed-interval spin did).

    The raised error reports how many attempts were made.  The
    returned socket has ``SO_KEEPALIVE`` enabled and no timeout set —
    per-op deadlines come from :func:`send_msg` / :func:`recv_msg`.
    """
    address = parse_address(address)
    if backoff is None:
        backoff = Backoff(initial=0.05, maximum=1.0, seed=0)
    deadline = time.monotonic() + retry_for
    attempts = 0
    while True:
        attempts += 1
        try:
            sock = socket.create_connection(address, timeout=timeout)
            enable_keepalive(sock)
            sock.settimeout(None)  # per-op deadlines are set per call
            return sock
        except OSError as error:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ConnectionError(
                    f"cannot connect to {format_address(address)} after "
                    f"{attempts} attempt(s): {error}"
                ) from error
            backoff.sleep(attempts - 1, budget=remaining)


__all__ = [
    "Backoff", "DeadlineExceeded", "FaultPlan", "FaultRule",
    "MAX_FRAME_BYTES", "ProtocolError", "connect", "enable_keepalive",
    "format_address", "parse_address", "recv_msg", "send_msg",
]
