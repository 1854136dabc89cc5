"""Chaos suite: the resilience layer under deterministic injected
faults and real process kills.

Everything here leans on the fault seam in
:mod:`repro.engine.service.faults`: a :class:`FaultPlan` threaded
through the protocol layer makes "the worker dies on exactly its first
``compile``" reproducible without killing a process.  The invariant
under test is always the same — a fault that does not exhaust the
retry budget must leave the answers byte-identical Fractions to a
fault-free local run, and must be visible in the resilience counters.

The one real-process test (``TestRealProcesses``) SIGKILLs and
SIGSTOPs actual ``repro worker`` subprocesses; CI runs it in the
dedicated ``chaos`` job.

No test here may hang: an autouse SIGALRM watchdog aborts any test
that exceeds its deadline (pytest-timeout is deliberately not a
dependency).
"""

import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

import repro
import repro.engine.service.local as local_module
import repro.engine.session as session_module
from repro.cli import main as cli_main
from repro.engine import (
    Backoff,
    Coordinator,
    ExplainSession,
    FaultPlan,
    FaultRule,
    FleetBusy,
    FleetUnavailable,
    run_worker,
)
from repro.engine.scheduler import plan_batch
from repro.engine.service.protocol import (
    DeadlineExceeded,
    ProtocolError,
    connect,
    recv_msg,
    send_msg,
)
from repro.engine.service.remote import SocketTransport

from .test_service import mixed_fanout_database, values_of
from .test_store import JOIN_QUERY, join_database

#: Per-test wall-clock ceiling.  Generous — every test below finishes
#: in seconds — but hard: a hung retry loop or a deadlocked heartbeat
#: fails loudly instead of stalling the suite.
WATCHDOG_SECONDS = 120.0


@pytest.fixture(autouse=True)
def watchdog():
    """Abort any chaos test that runs longer than the global deadline."""
    if threading.current_thread() is not threading.main_thread():
        yield  # pragma: no cover - SIGALRM needs the main thread
        return

    def trip(signum, frame):
        raise AssertionError(
            f"chaos test exceeded its {WATCHDOG_SECONDS:.0f}s watchdog"
        )

    previous = signal.signal(signal.SIGALRM, trip)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def start_fleet(
    tmp_path,
    n_workers=2,
    worker_faults=None,
    reconnect_for=0.0,
    **coordinator_kwargs,
):
    """A live coordinator plus ``n_workers`` in-thread workers sharing
    one store; returns ``(coordinator, threads)`` — callers shut the
    coordinator down themselves (or via the caller's ``finally``)."""
    coordinator = Coordinator(**coordinator_kwargs).start()
    store_dir = str(tmp_path / "fleet-store")
    ready = threading.Barrier(n_workers + 1, timeout=10)
    threads = []
    for _ in range(n_workers):
        thread = threading.Thread(
            target=run_worker,
            args=(coordinator.address,),
            kwargs={
                "cache_dir": store_dir,
                "on_ready": ready.wait,
                "faults": worker_faults,
                "reconnect_for": reconnect_for,
            },
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    ready.wait()
    coordinator.wait_for_workers(n_workers, timeout=10)
    return coordinator, threads


def build_plan(db):
    session = ExplainSession(db, method="exact")
    return plan_batch("exact", session._build_jobs(JOIN_QUERY, None), True)


class TestBackoff:
    def test_deterministic_per_seed_and_bounded(self):
        a = Backoff(initial=0.05, maximum=2.0, seed=7)
        b = Backoff(initial=0.05, maximum=2.0, seed=7)
        delays_a = [a.delay(i) for i in range(10)]
        delays_b = [b.delay(i) for i in range(10)]
        assert delays_a == delays_b  # seeded: reproducible traces
        assert all(0.0 < d <= 2.0 for d in delays_a)
        # jitter only ever shrinks the base delay, never exceeds it
        assert all(d <= min(2.0, 0.05 * 2.0**i)
                   for i, d in enumerate(delays_a))

    def test_sleep_respects_budget(self):
        backoff = Backoff(initial=5.0, maximum=5.0, jitter=0.0, seed=0)
        started = time.monotonic()
        slept = backoff.sleep(3, budget=0.01)
        assert slept == 0.01
        assert time.monotonic() - started < 1.0


class TestFaultPlan:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(action="explode")

    def test_fires_on_nth_match_for_times_matches(self):
        plan = FaultPlan([FaultRule(op="task_group", nth=2, times=2,
                                    action="drop")])
        hits = [plan.decide("worker", "recv", {"op": "task_group"})
                for _ in range(5)]
        assert [h.action if h else None for h in hits] == [
            None, "drop", "drop", None, None,
        ]
        assert plan.fired_actions() == ["drop", "drop"]

    def test_filters_by_role_direction_and_op(self):
        plan = FaultPlan([FaultRule(role="worker", direction="recv",
                                    op="task_group", action="close")])
        assert plan.decide("client", "recv", {"op": "task_group"}) is None
        assert plan.decide("worker", "send", {"op": "task_group"}) is None
        assert plan.decide("worker", "recv", {"op": "ping"}) is None
        hit = plan.decide("worker", "recv", {"op": "task_group"})
        assert hit is not None and hit.action == "close"

    def test_first_match_wins_but_all_counters_advance(self):
        close = FaultRule(op="task_group", nth=2, action="close")
        drop = FaultRule(op="task_group", nth=2, action="drop")
        plan = FaultPlan([close, drop])
        assert plan.decide("w", "recv", {"op": "task_group"}) is None
        # both rules reach their 2nd match; the first in plan order fires
        assert plan.decide("w", "recv", {"op": "task_group"}) is close


class TestProtocolFaults:
    def test_connect_retries_with_backoff_and_reports_attempts(self):
        # grab a port that nothing listens on
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()
        started = time.monotonic()
        with pytest.raises(ConnectionError, match=r"after \d+ attempt"):
            connect(address, retry_for=0.3)
        elapsed = time.monotonic() - started
        assert elapsed >= 0.05  # it did back off between dials

    def test_send_drop_means_the_frame_never_arrives(self):
        left, right = socket_module.socketpair()
        try:
            plan = FaultPlan([FaultRule(direction="send", op="lost",
                                        action="drop")])
            send_msg(left, {"op": "lost"}, faults=plan, role="w")
            send_msg(left, {"op": "kept"})
            assert recv_msg(right) == {"op": "kept"}
            assert plan.fired_actions() == ["drop"]
        finally:
            left.close()
            right.close()

    def test_recv_drop_skips_to_the_next_frame(self):
        left, right = socket_module.socketpair()
        try:
            plan = FaultPlan([FaultRule(direction="recv", nth=1,
                                        action="drop")])
            send_msg(left, {"op": "first"})
            send_msg(left, {"op": "second"})
            assert recv_msg(right, faults=plan, role="w") == {"op": "second"}
        finally:
            left.close()
            right.close()

    def test_corrupt_send_is_an_undecodable_frame_for_the_peer(self):
        left, right = socket_module.socketpair()
        try:
            plan = FaultPlan([FaultRule(direction="send",
                                        action="corrupt")])
            send_msg(left, {"op": "garbled"}, faults=plan, role="w")
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_msg(right)
        finally:
            left.close()
            right.close()

    def test_close_kills_the_connection_at_that_message(self):
        left, right = socket_module.socketpair()
        try:
            plan = FaultPlan([FaultRule(direction="send",
                                        action="close")])
            with pytest.raises(ConnectionError):
                send_msg(left, {"op": "doomed"}, faults=plan, role="w")
            assert recv_msg(right) is None  # peer sees a hangup
        finally:
            left.close()
            right.close()

    def test_recv_deadline_raises_instead_of_blocking(self):
        left, right = socket_module.socketpair()
        try:
            with pytest.raises(DeadlineExceeded, match="deadline"):
                recv_msg(right, timeout=0.1)
        finally:
            left.close()
            right.close()


class TestWorkerDeathAtEveryStage:
    """Satellite (c): a worker connection dying at each pipeline stage
    — component compile, representative stitch, sibling task_group,
    warm-queue processing — is redistributed to the
    survivor and the batch still returns byte-identical Fractions."""

    def _run_with_fault(self, tmp_path, db, rule):
        baseline = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        plan = FaultPlan([rule])
        coordinator, _ = start_fleet(tmp_path, worker_faults=plan,
                                     heartbeat_interval=None)
        try:
            with ExplainSession(
                db, method="exact", executor="socket",
                coordinator=coordinator.address, min_workers=2,
            ) as session:
                results = session.explain_many(JOIN_QUERY)
        finally:
            coordinator.shutdown()
        assert plan.fired_actions() == [rule.action]  # the fault happened
        assert all(r.ok for r in results.values())
        assert values_of(results) == values_of(baseline)
        for result in baseline.values():
            assert all(isinstance(v, Fraction)
                       for v in result.values.values())

    def test_death_during_component_compile(self, tmp_path):
        self._run_with_fault(
            tmp_path, mixed_fanout_database(6, (6, 7)),
            FaultRule(role="worker", direction="recv", op="compile",
                      nth=1, action="close"),
        )

    # On a one-shape database the schedule fixes the order of ops:
    # the component compile, then the representative's stitch (the
    # first ``task_group``), then the sibling group (the second).

    def test_death_during_stitch_task(self, tmp_path):
        self._run_with_fault(
            tmp_path, mixed_fanout_database(6, (6,)),
            FaultRule(role="worker", direction="recv", op="task_group",
                      nth=1, action="close"),
        )

    def test_death_during_task_group(self, tmp_path):
        self._run_with_fault(
            tmp_path, mixed_fanout_database(8, (6,)),
            FaultRule(role="worker", direction="recv", op="task_group",
                      nth=2, action="close"),
        )

    def test_death_during_warm_queue_processing(self, tmp_path):
        db = join_database(6, 2)
        baseline = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        plan = FaultPlan([FaultRule(role="worker", direction="recv",
                                    op="warm", nth=1, action="close")])
        coordinator, _ = start_fleet(tmp_path, worker_faults=plan,
                                     heartbeat_interval=None)
        try:
            with ExplainSession(
                db, method="exact", executor="socket",
                coordinator=coordinator.address,
            ) as session:
                status = session.warm_ahead(JOIN_QUERY)
                # the first warm op killed its worker; the survivor
                # absorbed the task and the queue still drained clean
                assert status["completed"] == 1
                assert status["failed"] == 0
                results = session.explain_many(JOIN_QUERY)
        finally:
            coordinator.shutdown()
        assert plan.fired_actions() == ["close"]
        assert values_of(results) == values_of(baseline)

    def test_delayed_worker_trips_the_deadline_and_is_replaced(
        self, tmp_path
    ):
        # Not death but a hang: the worker sits on its first task past
        # the coordinator's per-op deadline.  DeadlineExceeded feeds
        # the same requeue path as a dead link, so the survivor
        # finishes the batch.
        db = mixed_fanout_database(6, (6, 7))
        baseline = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        plan = FaultPlan([FaultRule(role="worker", direction="recv",
                                    op="task_group", nth=1, action="delay",
                                    seconds=5.0)])
        coordinator, _ = start_fleet(tmp_path, worker_faults=plan,
                                     heartbeat_interval=None,
                                     op_timeout=1.0)
        try:
            with ExplainSession(
                db, method="exact", executor="socket",
                coordinator=coordinator.address, min_workers=2,
            ) as session:
                results = session.explain_many(JOIN_QUERY)
        finally:
            coordinator.shutdown()
        assert plan.fired_actions() == ["delay"]
        assert values_of(results) == values_of(baseline)


class TestHeartbeat:
    def test_silent_worker_is_discarded_after_missed_heartbeats(self):
        with Coordinator(heartbeat_interval=0.2,
                         heartbeat_miss_threshold=2) as coordinator:
            # a "worker" that registers and then never answers a ping
            ghost = socket_module.create_connection(
                coordinator.address, timeout=5
            )
            try:
                send_msg(ghost, {"op": "hello", "role": "worker",
                                 "pid": -1})
                coordinator.wait_for_workers(1, timeout=10)
                deadline = time.monotonic() + 15
                while (coordinator.n_workers and
                       time.monotonic() < deadline):
                    time.sleep(0.05)
                assert coordinator.n_workers == 0
                assert coordinator._counters["heartbeat_misses"] >= 2
            finally:
                ghost.close()

    def test_link_closed_while_registered_is_swept(self):
        # The heartbeat thread closes a link before it unlists it; a
        # concurrent n_workers sweep in that window must count the
        # link dead rather than raise on its closed socket.
        with Coordinator(heartbeat_interval=None) as coordinator:
            ghost = socket_module.create_connection(
                coordinator.address, timeout=5
            )
            try:
                send_msg(ghost, {"op": "hello", "role": "worker",
                                 "pid": -1})
                assert coordinator.wait_for_workers(1, timeout=10) == 1
                coordinator._workers[0].close()
                assert coordinator.n_workers == 0
            finally:
                ghost.close()

    def test_responsive_worker_is_never_discarded(self, tmp_path):
        coordinator, _ = start_fleet(tmp_path, n_workers=1,
                                     heartbeat_interval=0.1,
                                     heartbeat_miss_threshold=2)
        try:
            time.sleep(0.5)  # several heartbeat rounds
            assert coordinator.n_workers == 1
            assert coordinator._counters["heartbeat_misses"] == 0
        finally:
            coordinator.shutdown()


class TestAdmissionControl:
    def test_full_queue_rejects_with_busy_and_counts(self, tmp_path):
        db = join_database(3, 1)
        with Coordinator(max_queue=0,
                         heartbeat_interval=None) as coordinator:
            transport = SocketTransport(coordinator.address, retries=1)
            with pytest.raises(FleetBusy):
                transport.run_batch(build_plan(db))
            # initial attempt + one retry, both rejected
            assert transport.service_stats["busy_rejections"] == 2
            assert transport.service_stats["retries"] == 1
            assert coordinator._counters["rejected_batches"] == 2

    def test_busy_fleet_never_degrades_to_local(self, tmp_path):
        # busy means alive: degrade="local" must NOT swallow the
        # rejection by silently running the batch in-process.
        db = join_database(3, 1)
        with Coordinator(max_queue=0,
                         heartbeat_interval=None) as coordinator:
            transport = SocketTransport(coordinator.address, retries=0,
                                        degrade="local")
            with pytest.raises(FleetBusy):
                transport.run_batch(build_plan(db))
            assert "degraded_batches" not in transport.service_stats

    def test_admitted_batch_reports_queue_counters(self, tmp_path):
        db = join_database(4, 2)
        coordinator, _ = start_fleet(tmp_path, max_queue=1,
                                     heartbeat_interval=None)
        try:
            with ExplainSession(
                db, method="exact", executor="socket",
                coordinator=coordinator.address, min_workers=2,
            ) as session:
                results = session.explain_many(JOIN_QUERY)
                stats = session.stats
        finally:
            coordinator.shutdown()
        assert all(r.ok for r in results.values())
        assert stats["remote_queue_depth"] == 1  # this batch, mid-run
        assert stats["remote_rejected_batches"] == 0
        assert stats["remote_heartbeat_misses"] == 0


class TestResubmitDedupe:
    def test_lost_reply_is_resubmitted_and_answered_from_cache(
        self, tmp_path
    ):
        # the link dies exactly as the results frame arrives: the
        # client retries with the same batch_id and the coordinator
        # answers from its dedupe cache instead of re-running the work
        db = join_database(5, 2)
        coordinator, _ = start_fleet(tmp_path, heartbeat_interval=None)
        try:
            client_faults = FaultPlan([
                FaultRule(role="client", direction="recv", op="results",
                          nth=1, action="close"),
            ])
            transport = SocketTransport(coordinator.address, retries=2,
                                        faults=client_faults)
            results = transport.run_batch(build_plan(db))
            assert all(r.ok for r in results.values())
            assert client_faults.fired_actions() == ["close"]
            assert transport.service_stats["retries"] == 1
            assert coordinator._counters["batches_resubmitted"] == 1
        finally:
            coordinator.shutdown()

    def test_idempotent_ops_retry_through_link_faults(self, tmp_path):
        coordinator, _ = start_fleet(tmp_path, heartbeat_interval=None)
        try:
            client_faults = FaultPlan([
                FaultRule(role="client", direction="recv", op="pong",
                          nth=1, action="close"),
            ])
            transport = SocketTransport(coordinator.address, retries=2,
                                        faults=client_faults)
            assert transport.ping() == 2  # first reply lost, retry won
            assert transport.service_stats["retries"] == 1
        finally:
            coordinator.shutdown()


class TestGracefulDegradation:
    def test_unknown_degrade_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown degrade policy"):
            SocketTransport(("127.0.0.1", 1), degrade="cloud")

    def test_unreachable_fleet_degrades_to_identical_fractions(self):
        db = join_database(5, 2)
        baseline = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        with ExplainSession(
            db, method="exact", executor="socket",
            coordinator=("127.0.0.1", 1), degrade="local",
            retries=1, op_timeout=1.0, connect_retry_for=0.05,
        ) as session:
            with pytest.warns(RuntimeWarning, match="degrading"):
                results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert values_of(results) == values_of(baseline)
        for result in results.values():
            assert all(isinstance(v, Fraction)
                       for v in result.values.values())
        assert stats["degraded_batches"] == 1
        assert stats["retries"] >= 1

    def test_without_degrade_the_failure_is_loud(self):
        db = join_database(2, 1)
        with ExplainSession(
            db, method="exact", executor="socket",
            coordinator=("127.0.0.1", 1),
            retries=0, connect_retry_for=0.05,
        ) as session:
            with pytest.raises(FleetUnavailable, match="cannot reach"):
                session.explain_many(JOIN_QUERY)

    def test_bench_json_reports_resilience_counters_end_to_end(
        self, capsys
    ):
        # the acceptance criterion: a bench against an unreachable
        # coordinator with --degrade local still produces answers and
        # reports degraded_batches (plus the other counters) in --json
        code = cli_main([
            "bench", "--jobs-mode", "socket",
            "--coordinator", "127.0.0.1:1",
            "--degrade", "local", "--op-timeout", "0.2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] == payload["outputs"] > 0
        stats = payload["stats"]
        assert stats["degraded_batches"] == 1
        assert stats["retries"] >= 1
        assert payload["fractions_digest"]


class TestProcessPoolRestart:
    def test_killed_pool_children_trigger_one_restart(self):
        db = join_database(4, 2)
        baseline = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        with ExplainSession(
            db, method="exact", executor="process", max_workers=2,
        ) as session:
            first = session.explain_many(JOIN_QUERY)
            transport = session._transports["process"]
            for pid in list(transport._pool._processes):
                os.kill(pid, signal.SIGKILL)
            # drop the published Shapley values, so the repeat batch
            # is dispatched to the pool instead of relabelled
            session.cache.clear()
            second = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert values_of(first) == values_of(baseline)
        assert values_of(second) == values_of(baseline)
        assert stats["pool_restarts"] == 1


#: Marker file of :func:`_exit_once_explain_group`: the first pool task
#: to create it exits its child; later tasks run normally.
_EXIT_MARKER = ""

_real_explain_group = local_module._process_explain_group


def _exit_once_explain_group(*args):
    """A pool task body whose first call, in whichever child, exits
    that child mid-batch without a reply."""
    try:
        with open(_EXIT_MARKER, "x"):
            pass
    except FileExistsError:
        return _real_explain_group(*args)
    os._exit(1)


class TestDefaultExecutorPoolChild:
    def test_child_exiting_mid_batch_restarts_the_pool_once(
        self, tmp_path, monkeypatch
    ):
        # The batch is made expensive by lowering the break-even, so the
        # default executor sends the join fixture to the pool; children
        # fork from this process and see the patched task body.
        db = join_database(4, 2)
        baseline = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        monkeypatch.setattr(session_module, "usable_cpus", lambda: 2)
        monkeypatch.setattr(session_module, "POOL_COST", -10**9)
        monkeypatch.setattr(sys.modules[__name__], "_EXIT_MARKER",
                            str(tmp_path / "exited"))
        monkeypatch.setattr(local_module, "_process_explain_group",
                            _exit_once_explain_group)
        with ExplainSession(db, method="exact", max_workers=2) as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
            kinds = session.transport_kinds
        assert (tmp_path / "exited").exists()
        assert kinds == ("process",)
        assert stats["pool_restarts"] == 1
        assert values_of(results) == values_of(baseline)


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals required")
class TestRealProcesses:
    """The CI ``chaos`` job's real-process test: SIGKILL a worker
    mid-batch, freeze the other past the heartbeat threshold, thaw it,
    and require identical Fractions plus live resilience counters."""

    @staticmethod
    def _spawn_worker(address, store_dir):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"{address[0]}:{address[1]}",
             "--cache-dir", store_dir, "--reconnect-for", "60"],
            env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def test_sigkill_and_freeze_recovery(self, tmp_path):
        db = mixed_fanout_database(8, (6, 7))
        baseline = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        coordinator = Coordinator(heartbeat_interval=0.25,
                                  heartbeat_miss_threshold=2).start()
        store_dir = str(tmp_path / "store")
        victim = survivor = None
        killer = None
        try:
            victim = self._spawn_worker(coordinator.address, store_dir)
            survivor = self._spawn_worker(coordinator.address, store_dir)
            assert coordinator.wait_for_workers(2, timeout=30) == 2
            with ExplainSession(
                db, method="exact", executor="socket",
                coordinator=coordinator.address,
            ) as session:
                # phase 1: SIGKILL one worker mid-batch — the batch
                # must complete on the survivor, Fractions identical
                killer = threading.Timer(
                    0.3, os.kill, (victim.pid, signal.SIGKILL)
                )
                killer.start()
                results = session.explain_many(JOIN_QUERY)
                killer.join()
                assert values_of(results) == values_of(baseline)

                # phase 2: freeze the survivor — the heartbeat thread
                # must notice the silence and discard the link
                os.kill(survivor.pid, signal.SIGSTOP)
                deadline = time.monotonic() + 20
                while (coordinator.n_workers and
                       time.monotonic() < deadline):
                    time.sleep(0.05)
                assert coordinator.n_workers == 0
                assert coordinator._counters["heartbeat_misses"] >= 2

                # phase 3: thaw it — the worker's reconnect loop must
                # re-register and serve another identical batch
                os.kill(survivor.pid, signal.SIGCONT)
                assert coordinator.wait_for_workers(1, timeout=30) >= 1
                # drop the published Shapley values, so the repeat
                # batch reaches the fleet instead of being relabelled
                session.cache.clear()
                again = session.explain_many(JOIN_QUERY)
                stats = session.stats
            assert values_of(again) == values_of(baseline)
            assert stats["remote_reconnects"] >= 1
            assert stats["remote_heartbeat_misses"] >= 2
        finally:
            if killer is not None:
                killer.cancel()
            for proc in (victim, survivor):
                if proc is not None:
                    try:
                        proc.kill()
                    except OSError:
                        pass
                    proc.wait(timeout=10)
            coordinator.shutdown()
