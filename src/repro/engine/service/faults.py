"""Deterministic fault injection for the socket service.

Every failure mode the resilience layer must survive — dropped
messages, slow links, corrupted frames, connections dying at exactly
the wrong moment — is expressible as a :class:`FaultRule` and scheduled
by a :class:`FaultPlan` threaded through
:func:`~repro.engine.service.protocol.send_msg` /
:func:`~repro.engine.service.protocol.recv_msg`.  The coordinator,
worker loop, and client transport each accept a plan and tag their
traffic with a *role*, so a test can say "the worker's connection dies
on the 2nd ``task_group`` it receives" and get exactly that, every run,
without killing a real process.

Rules fire on the *Nth matching message* (per rule, counted inside the
plan, which makes firing deterministic under any thread interleaving:
the counter is guarded by one lock and each rule burns its matches in
arrival order).  Actions:

``drop``
    send: the message silently never goes out.  recv: the message is
    discarded and the reader blocks on the next frame (what a lossy
    network looks like from the application).
``delay``
    the message is held for ``seconds`` before proceeding — long enough
    to trip a peer's per-op deadline, short enough to test recovery.
``corrupt``
    send: the frame's payload is replaced with garbage of the same
    length (the peer sees an undecodable frame →
    :class:`~repro.engine.service.protocol.ProtocolError`).  recv: the
    reader raises the same error without delivering the message.
``close``
    the socket is shut down mid-conversation and a
    :class:`ConnectionError` is raised — the injected equivalent of a
    process death or network partition at that exact message.

This module also hosts :class:`Backoff`, the seeded jittered
exponential backoff schedule shared by ``protocol.connect``, worker
reconnection, and client retries — seeded so retry traces are
reproducible (and so the REP001 lint's no-unseeded-randomness rule
holds for the service layer too).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

#: Actions a rule may take on a matched message.
FAULT_ACTIONS = ("drop", "delay", "corrupt", "close")


class Backoff:
    """A jittered exponential backoff schedule.

    ``delay(attempt)`` (0-based) returns ``initial * factor**attempt``
    capped at ``maximum``, scaled by a seeded jitter in
    ``[1 - jitter, 1]`` — full determinism per seed, no thundering
    herd across seeds.
    """

    def __init__(
        self,
        initial: float = 0.05,
        factor: float = 2.0,
        maximum: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        self.initial = initial
        self.factor = factor
        self.maximum = maximum
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        base = min(self.maximum, self.initial * self.factor ** max(0, attempt))
        with self._lock:
            scale = 1.0 - self.jitter * self._rng.random()
        return base * scale

    def sleep(self, attempt: int, budget: float | None = None) -> float:
        """Sleep for ``delay(attempt)`` (clipped to ``budget`` seconds
        when given); returns the seconds actually slept."""
        seconds = self.delay(attempt)
        if budget is not None:
            seconds = max(0.0, min(seconds, budget))
        if seconds > 0.0:
            time.sleep(seconds)
        return seconds


@dataclass
class FaultRule:
    """One scheduled fault: *who*, *when*, *what*.

    ``role``/``direction`` select the traffic stream (``"*"`` matches
    any); ``op`` matches the message's ``"op"`` key (``None`` = any
    message).  The rule fires on match number ``nth`` (1-based) and
    keeps firing for ``times`` consecutive matches (``0`` = forever).
    """

    role: str = "*"
    direction: str = "*"  # "send" | "recv" | "*"
    op: str | None = None
    nth: int = 1
    times: int = 1
    action: str = "drop"
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"choose from {FAULT_ACTIONS}"
            )


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, recorded for test assertions."""

    role: str
    direction: str
    op: str | None
    action: str


class FaultPlan:
    """A thread-safe, deterministic schedule of injected faults.

    The plan is consulted by the protocol layer on every message; it
    matches rules, burns their counters, and records every fired fault
    in :attr:`fired` so tests can assert exactly which faults actually
    happened.  A plan with no rules is free to thread everywhere as a
    no-op (production code never constructs one).
    """

    def __init__(self, rules: list[FaultRule] | None = None) -> None:
        self._rules: list[FaultRule] = list(rules or ())
        self._counts: list[int] = [0] * len(self._rules)
        self._lock = threading.Lock()
        self.fired: list[FaultEvent] = []

    def add(self, rule: FaultRule) -> "FaultPlan":
        with self._lock:
            self._rules.append(rule)
            self._counts.append(0)
        return self

    def decide(
        self, role: str, direction: str, message: object
    ) -> FaultRule | None:
        """The rule firing for this message, if any (first match wins;
        every matching rule's counter advances either way)."""
        op = message.get("op") if isinstance(message, dict) else None
        chosen: FaultRule | None = None
        with self._lock:
            for index, rule in enumerate(self._rules):
                if rule.role not in ("*", role):
                    continue
                if rule.direction not in ("*", direction):
                    continue
                if rule.op is not None and rule.op != op:
                    continue
                self._counts[index] += 1
                count = self._counts[index]
                if count < rule.nth:
                    continue
                if rule.times and count >= rule.nth + rule.times:
                    continue
                if chosen is None:
                    chosen = rule
                    self.fired.append(
                        FaultEvent(role, direction, op, rule.action)
                    )
        return chosen

    def fired_actions(self) -> list[str]:
        """The actions fired so far, in order (test convenience)."""
        with self._lock:
            return [event.action for event in self.fired]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(rules={len(self._rules)}, fired={len(self.fired)})"
