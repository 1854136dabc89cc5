"""Tests for the service layer: transport parity (the acceptance
criterion — all three transports produce identical Shapley values),
session lifecycle (context manager, deterministic shutdown, transport
reuse), and coordinator/worker behaviour over real sockets."""

import pickle
import socket
import threading
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest

from repro.compiler import CompilationBudget
from repro.engine import (
    ArtifactCache,
    Coordinator,
    EngineOptions,
    ExplainSession,
    PersistentArtifactStore,
    TransportError,
    run_worker,
)
from repro.engine.scheduler import Shape, plan_batch
from repro.engine.service.local import InProcessTransport, ProcessPoolTransport
from repro.engine.service.protocol import parse_address, recv_msg, send_msg
from repro.engine.service import remote as remote_module
from repro.engine.service.remote import SocketTransport

from .test_store import JOIN_QUERY, explain_each_answer, join_database


def values_of(results):
    return {answer: result.values for answer, result in results.items()}


def mixed_fanout_database(n_answers, fanouts):
    """Two (or more) distinct lineage shapes in one batch: answer ``i``
    joins with ``fanouts[i % len(fanouts)]`` S rows.  Fanouts >= 4 give
    each shape a >=8-var component, so the pipelined schedule gates
    every shape on a component compile."""
    from repro.db import Database, RelationSchema, Schema

    schema = Schema.of(
        RelationSchema.of("R", "a", "b"), RelationSchema.of("S", "b", "c")
    )
    db = Database(schema)
    for i in range(n_answers):
        db.add("R", f"x{i}", f"y{i}")
        for j in range(fanouts[i % len(fanouts)]):
            db.add("S", f"y{i}", f"z{i}_{j}")
    return db


@contextmanager
def running_fleet(store_dir):
    """A live coordinator with two in-thread workers sharing
    ``store_dir``."""
    coordinator = Coordinator().start()
    ready = threading.Barrier(3, timeout=10)
    threads = [
        threading.Thread(
            target=run_worker,
            args=(coordinator.address,),
            kwargs={"cache_dir": store_dir, "on_ready": ready.wait},
            daemon=True,
        )
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    ready.wait()
    coordinator.wait_for_workers(2, timeout=10)
    try:
        yield coordinator
    finally:
        coordinator.shutdown()
        for thread in threads:
            thread.join(timeout=10)


@pytest.fixture
def fleet(tmp_path):
    with running_fleet(str(tmp_path / "fleet-store")) as coordinator:
        yield coordinator


def record_sends(monkeypatch):
    """The messages the socket client sends, recorded as they go."""
    sent = []
    send = remote_module.send_msg
    monkeypatch.setattr(
        remote_module, "send_msg",
        lambda sock, message, *args, **kwargs:
            sent.append(message) or send(sock, message, *args, **kwargs),
    )
    return sent


class TestTransportParity:
    def test_exact_identical_fractions_across_all_three_transports(
        self, fleet
    ):
        db = join_database(6, 2)
        baseline = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        with ExplainSession(
            db, method="exact", max_workers=2,
            coordinator=fleet.address, min_workers=2,
        ) as session:
            by_process = session.explain_many(JOIN_QUERY, executor="process")
            by_socket = session.explain_many(JOIN_QUERY, executor="socket")
        expected = values_of(baseline)
        assert values_of(by_process) == expected
        assert values_of(by_socket) == expected
        for result in expected.values():
            assert all(isinstance(v, Fraction) for v in result.values())

    def test_sampling_identical_values_for_equal_seeds(self, fleet):
        db = join_database(4, 2)
        options = EngineOptions(seed=99)
        runs = []
        for executor in ("thread", "process", "socket"):
            with ExplainSession(
                db, method="monte_carlo", options=options, max_workers=2,
                executor=executor, coordinator=fleet.address,
            ) as session:
                runs.append(values_of(session.explain_many(JOIN_QUERY)))
        assert runs[0] == runs[1] == runs[2]

    def test_socket_workers_share_the_store(self, fleet):
        db = join_database(6, 2)
        with ExplainSession(
            db, method="exact", executor="socket",
            coordinator=fleet.address, min_workers=2,
        ) as session:
            session.explain_many(JOIN_QUERY)
            stats = session.stats
        # six isomorphic answers, one shape: exactly one compile across
        # the whole fleet (the siblings start only after the
        # representative published the shape to the shared store).
        assert stats["remote_workers"] == 2
        assert stats["remote_compile_calls"] == 1
        assert stats["compile_calls"] == 0  # the client never compiles

    def test_pipelined_socket_batch_matches_and_reports_counters(
        self, fleet
    ):
        # A cold two-shape batch down the coordinator's interleaved
        # compile/stitch/group schedule: Fractions identical to the
        # per-answer reference, pipeline counters aggregated under
        # remote_*.
        db = mixed_fanout_database(6, (6, 7))
        with ExplainSession(
            db, method="exact", executor="socket",
            coordinator=fleet.address, min_workers=2,
        ) as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert values_of(results) == explain_each_answer(db, JOIN_QUERY)
        assert all(r.ok for r in results.values())
        assert stats["remote_component_pass_compiles"] == 2
        assert stats["remote_stitch_jobs"] == 2
        assert stats["remote_pipeline_overlap_seconds"] >= 0.0
        assert stats["compile_calls"] == 0  # the client never compiles

    def test_second_socket_batch_plans_no_shape_again(
        self, fleet, monkeypatch
    ):
        # The client's cache never holds the fleet's d-DNNFs, so every
        # socket batch asks each shape for its component plan; the plan
        # is computed once per shape and then served from the entry.
        import repro.engine.cache as cache_module

        calls = []
        plan = cache_module.plan_components
        monkeypatch.setattr(
            cache_module, "plan_components",
            lambda cnf: calls.append(cnf) or plan(cnf),
        )
        db = mixed_fanout_database(6, (6, 7))
        with ExplainSession(
            db, method="exact", executor="socket",
            coordinator=fleet.address, min_workers=2,
        ) as session:
            first = session.explain_many(JOIN_QUERY)
            planned = len(calls)
            second = session.explain_many(JOIN_QUERY)
        assert planned == 2  # one plan per shape
        assert len(calls) == planned
        assert values_of(second) == values_of(first)


    def test_socket_batch_hashes_no_digest_on_the_client(
        self, fleet, monkeypatch
    ):
        # The batch ships the plan's shapes: no per-answer affinity, so
        # the client thread hashes no store digest (workers, threads of
        # this process here, still hash theirs).
        import repro.engine.cache as cache_module
        import repro.engine.store as store_module

        client = threading.current_thread()
        calls = []
        digest = store_module.signature_digest

        def counting(signature):
            if threading.current_thread() is client:
                calls.append(signature)
            return digest(signature)

        monkeypatch.setattr(store_module, "signature_digest", counting)
        monkeypatch.setattr(cache_module, "signature_digest", counting)
        sent = record_sends(monkeypatch)
        db = join_database(6, 6)
        with ExplainSession(
            db, method="exact", executor="socket",
            coordinator=fleet.address, min_workers=2,
        ) as session:
            results = session.explain_many(JOIN_QUERY)
        assert len(results) == 6 and all(r.ok for r in results.values())
        assert calls == []
        batch = next(m for m in sent if m.get("op") == "batch")
        assert "tasks" not in batch
        [(rep, units, needs)] = batch["shapes"]
        assert [[job.index for job in unit] for unit in units] \
            == [[1, 2, 3, 4, 5]]
        assert needs == (0,) and len(batch["components"]) == 1
        assert all(job.signature is None for job in chain([rep], *units))

    def test_socket_batch_pickles_one_options_object(self, fleet, monkeypatch):
        # Every answer of a batch carries equal stripped options; the
        # wire form shares one object, so pickle writes it once.
        sent = record_sends(monkeypatch)
        db = join_database(6, 6)
        with ExplainSession(
            db, method="exact", executor="socket",
            coordinator=fleet.address, min_workers=2,
        ) as session:
            results = session.explain_many(JOIN_QUERY)
        assert len(results) == 6 and all(r.ok for r in results.values())
        batch = next(m for m in sent if m.get("op") == "batch")
        payload = pickle.dumps(batch)
        [(rep, units, _)] = pickle.loads(payload)["shapes"]
        jobs = list(chain([rep], *units))
        assert len(jobs) == 6
        assert all(job.options is rep.options for job in jobs)
        # One options copy per job, as each job stripped on its own
        # used to ship, makes a larger payload.
        [(rep, units, needs)] = batch["shapes"]

        def unshared(job):
            return replace(job, options=replace(job.options))

        per_job = dict(batch, shapes=[Shape(
            unshared(rep), [[unshared(j) for j in unit] for unit in units],
            needs)])
        assert len(payload) < len(pickle.dumps(per_job))


class TestSessionLifecycle:
    def test_context_manager_closes_transports(self):
        db = join_database(2, 1)
        with ExplainSession(db, method="exact") as session:
            session.explain_many(JOIN_QUERY)
            assert "thread" in session._transports
        assert session.closed
        assert session._transports == {}
        with pytest.raises(RuntimeError, match="closed"):
            session.explain_many(JOIN_QUERY)
        with pytest.raises(RuntimeError, match="closed"):
            session.__enter__()

    def test_close_is_idempotent(self):
        session = ExplainSession(join_database(1, 1))
        session.close()
        session.close()
        assert session.closed

    def test_transports_are_reused_across_calls(self):
        db = join_database(3, 1)
        with ExplainSession(db, method="exact", max_workers=2) as session:
            session.explain_many(JOIN_QUERY)
            first = session._transports["thread"]
            session.explain_many(JOIN_QUERY)
            assert session._transports["thread"] is first
            # slot threads live for one batch, never past it
            assert not any(thread.name == "repro-slot"
                           for thread in threading.enumerate())

    def test_process_pool_persists_across_batches(self):
        db = join_database(3, 1)
        with ExplainSession(
            db, method="monte_carlo", options=EngineOptions(seed=5),
            max_workers=2, executor="process",
        ) as session:
            session.explain_many(JOIN_QUERY)
            transport = session._transports["process"]
            pool = transport._pool
            assert pool is not None
            session.explain_many(JOIN_QUERY)
            assert transport._pool is pool
        assert transport._pool is None  # closed deterministically

    def test_exception_mid_batch_leaves_session_usable_and_closeable(self):
        from repro.engine.base import Engine
        from repro.engine.registry import register_engine

        calls = {"n": 0}

        @register_engine
        class _FlakyEngine(Engine):
            name = "_test_flaky"
            exact = False

            def explain_circuit(self, circuit, players, options=None):
                calls["n"] += 1
                raise ValueError("engine exploded")

        db = join_database(3, 1)
        with ExplainSession(db, method="_test_flaky") as session:
            with pytest.raises(ValueError, match="engine exploded"):
                session.explain_many(JOIN_QUERY)
            # the pool survived the failed batch and still works
            with pytest.raises(ValueError, match="engine exploded"):
                session.explain_many(JOIN_QUERY)
        assert session.closed

    def test_socket_executor_requires_coordinator(self):
        with pytest.raises(ValueError, match="coordinator"):
            ExplainSession(
                join_database(1, 1), executor="socket"
            ).explain_many(JOIN_QUERY)

    def test_unknown_executor_still_rejected(self):
        db = join_database(1, 1)
        with pytest.raises(ValueError, match="unknown executor"):
            ExplainSession(db, executor="gpu")
        with pytest.raises(ValueError, match="unknown executor"):
            ExplainSession(db).explain_many(JOIN_QUERY, executor="gpu")


class TestCoordinator:
    def test_ping_reports_worker_count(self, fleet):
        transport = SocketTransport(fleet.address)
        assert transport.ping() == 2

    def test_shutdown_stops_the_accept_thread(self, fleet):
        # The accept loop must exit, or its thread keeps the stopped
        # coordinator (and the batch replies it kept) alive.
        fleet.shutdown()
        fleet._accept_thread.join(10)
        assert not fleet._accept_thread.is_alive()

    def test_unreachable_coordinator_is_a_transport_error(self):
        db = join_database(1, 1)
        transport = SocketTransport(
            ("127.0.0.1", 1), connect_retry_for=0.0
        )
        session = ExplainSession(db, method="exact")
        plan = plan_batch("exact", session._build_jobs(JOIN_QUERY, None), True)
        with pytest.raises(TransportError, match="cannot reach"):
            transport.run_batch(plan)

    def test_min_workers_timeout_fails_the_batch(self):
        with Coordinator() as coordinator:
            db = join_database(1, 1)
            transport = SocketTransport(
                coordinator.address, min_workers=3, wait_timeout=0.2
            )
            session = ExplainSession(db, method="exact")
            plan = plan_batch(
                "exact", session._build_jobs(JOIN_QUERY, None), True
            )
            with pytest.raises(TransportError, match="worker"):
                transport.run_batch(plan)

    def test_idle_dead_workers_are_swept_from_the_barrier(self):
        # A "worker" that registers and immediately hangs up must not
        # count towards n_workers or satisfy the min_workers barrier.
        with Coordinator() as coordinator:
            ghost = socket.create_connection(coordinator.address, timeout=5)
            send_msg(ghost, {"op": "hello", "role": "worker", "pid": -1})
            coordinator.wait_for_workers(1, timeout=10)
            ghost.close()
            assert coordinator.wait_for_workers(1, timeout=0.3) == 0
            assert coordinator.n_workers == 0

    def test_mid_batch_death_is_redistributed_to_survivors(
        self, tmp_path
    ):
        # A worker that accepts its first task and then hangs up: the
        # coordinator must discard it and let the survivor absorb its
        # unfinished shard.  The traitor registers *first* so the
        # single-shape batch is deterministically placed on it.
        with Coordinator() as coordinator:
            died = threading.Event()

            def traitor():
                sock = socket.create_connection(coordinator.address, timeout=5)
                send_msg(sock, {"op": "hello", "role": "worker", "pid": -1})
                recv_msg(sock)  # first task of our shard arrives...
                sock.close()    # ...and we die without answering
                died.set()

            threading.Thread(target=traitor, daemon=True).start()
            coordinator.wait_for_workers(1, timeout=10)
            survivor = threading.Thread(
                target=run_worker,
                args=(coordinator.address,),
                kwargs={"cache_dir": str(tmp_path / "store")},
                daemon=True,
            )
            survivor.start()
            coordinator.wait_for_workers(2, timeout=10)

            db = join_database(6, 2)
            with ExplainSession(
                db, method="exact", executor="socket",
                coordinator=coordinator.address,
            ) as session:
                results = session.explain_many(JOIN_QUERY)
            assert died.wait(timeout=10)
            assert len(results) == 6
            assert all(r.ok for r in results.values())
            baseline = ExplainSession(
                db, method="exact"
            ).explain_many(JOIN_QUERY)
            assert values_of(results) == values_of(baseline)

    def test_death_during_component_compile_is_redistributed(
        self, tmp_path
    ):
        # The pipelined variant of the traitor test: both shapes of a
        # mixed-fanout batch are gated on a component compile, so each
        # worker's *first* op is deterministically a pipelined
        # ``compile`` — the traitor dies holding one, the coordinator
        # requeues it, and the survivor finishes the whole DAG with
        # Fractions identical to the local baseline.
        db = mixed_fanout_database(4, (6, 7))
        with Coordinator() as coordinator:
            died = threading.Event()

            def traitor():
                sock = socket.create_connection(coordinator.address, timeout=5)
                send_msg(sock, {"op": "hello", "role": "worker", "pid": -1})
                recv_msg(sock)  # our component-compile op arrives...
                sock.close()    # ...and we die without answering
                died.set()

            threading.Thread(target=traitor, daemon=True).start()
            coordinator.wait_for_workers(1, timeout=10)
            survivor = threading.Thread(
                target=run_worker,
                args=(coordinator.address,),
                kwargs={"cache_dir": str(tmp_path / "store")},
                daemon=True,
            )
            survivor.start()
            coordinator.wait_for_workers(2, timeout=10)

            with ExplainSession(
                db, method="exact", executor="socket",
                coordinator=coordinator.address,
            ) as session:
                results = session.explain_many(JOIN_QUERY)
                stats = session.stats
            assert died.wait(timeout=10)
            assert len(results) == 4
            assert all(r.ok for r in results.values())
            baseline = ExplainSession(
                db, method="exact"
            ).explain_many(JOIN_QUERY)
            assert values_of(results) == values_of(baseline)
            # the survivor ran the whole one-pass component phase
            assert stats["remote_component_pass_compiles"] == 2
            assert stats["remote_stitch_jobs"] == 2

    def test_worker_survives_engine_errors(self, fleet):
        from repro.engine.base import Engine
        from repro.engine.registry import register_engine

        @register_engine
        class _BoomEngine(Engine):
            name = "_test_boom"
            exact = False

            def explain_circuit(self, circuit, players, options=None):
                raise RuntimeError("kaboom")

        db = join_database(2, 1)
        with ExplainSession(
            db, method="_test_boom", executor="socket",
            coordinator=fleet.address,
        ) as session:
            results = session.explain_many(JOIN_QUERY)
        assert all(r.status == "error" for r in results.values())
        assert all("kaboom" in r.error for r in results.values())
        # the same workers still serve healthy batches afterwards
        with ExplainSession(
            db, method="exact", executor="socket", coordinator=fleet.address,
        ) as session:
            healthy = session.explain_many(JOIN_QUERY)
        assert all(r.ok for r in healthy.values())

    def test_parse_address(self):
        assert parse_address("host:123") == ("host", 123)
        assert parse_address(("h", 9)) == ("h", 9)
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address("host:abc")


class TestCompileAhead:
    def test_warm_ahead_then_batch_compiles_nothing_new(self, fleet):
        db = join_database(6, 2)
        baseline = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        with ExplainSession(
            db, method="exact", executor="socket",
            coordinator=fleet.address, min_workers=2,
        ) as session:
            status = session.warm_ahead(JOIN_QUERY)
            assert status == {"shapes": 1, "queued": 1, "completed": 1,
                              "failed": 0, "pending": 0, "component_tasks": 0}
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert values_of(results) == values_of(baseline)
        # the warm pass did the fleet's only compile; the batch reused
        # it (worker stats are cumulative since worker start)
        assert stats["remote_compile_calls"] == 1
        assert stats["compile_calls"] == 0  # the client never compiles

    def test_fresh_fleet_on_a_warmed_store_compiles_nothing(self, tmp_path):
        # Four answers of one shape whose lineage holds a memo-eligible
        # component: the warm pass compiles it and the shape, and a new
        # fleet (empty worker memory) serves both from the store alone.
        db = join_database(4, 6)
        store_dir = str(tmp_path / "fleet-store")
        with running_fleet(store_dir) as first:
            with ExplainSession(
                db, method="exact", executor="socket",
                coordinator=first.address, min_workers=2,
            ) as session:
                status = session.warm_ahead(JOIN_QUERY)
        assert status["component_tasks"] == 1
        assert status["completed"] == status["shapes"] == 1
        assert status["failed"] == status["pending"] == 0
        with running_fleet(store_dir) as fresh:
            with ExplainSession(
                db, method="exact", executor="socket",
                coordinator=fresh.address, min_workers=2,
            ) as session:
                results = session.explain_many(JOIN_QUERY)
                stats = session.stats
        assert values_of(results) == explain_each_answer(db, JOIN_QUERY)
        assert stats["remote_compile_calls"] == 0
        assert stats["remote_component_compilations"] == 0
        assert stats["remote_store_hits"] > 0

    def test_warm_status_starts_at_zero(self, fleet):
        transport = SocketTransport(fleet.address)
        assert transport.warm_status() == {
            "queued": 0, "in_flight": 0, "pending": 0,
            "completed": 0, "failed": 0,
            "component_completed": 0, "component_failed": 0,
        }

    def test_warm_ahead_local_executor_warms_inline(self):
        db = join_database(4, 2)
        with ExplainSession(db, method="exact") as session:
            status = session.warm_ahead(JOIN_QUERY)
            assert status["shapes"] == 1
            assert status["completed"] == 1
            assert status["pending"] == 0
            session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert stats["compile_calls"] == 1  # the warm pass only

    def test_warm_ahead_is_a_noop_for_sampling_engines(self):
        db = join_database(4, 2)
        with ExplainSession(
            db, method="monte_carlo", options=EngineOptions(seed=5)
        ) as session:
            status = session.warm_ahead(JOIN_QUERY)
        assert status == {"shapes": 0, "queued": 0, "completed": 0,
                          "failed": 0, "pending": 0, "component_tasks": 0}

    def test_warm_failures_are_counted_not_fatal(self, fleet):
        db = join_database(6, 2)
        tiny = EngineOptions(budget=CompilationBudget(max_nodes=1))
        with ExplainSession(
            db, method="exact", executor="socket",
            coordinator=fleet.address, options=tiny,
        ) as session:
            status = session.warm_ahead(JOIN_QUERY)
        assert status["failed"] == 1
        assert status["completed"] == 0
        # the fleet still serves healthy batches afterwards
        with ExplainSession(
            db, method="exact", executor="socket", coordinator=fleet.address,
        ) as session:
            healthy = session.explain_many(JOIN_QUERY)
        assert all(r.ok for r in healthy.values())


class TestLocalTransports:
    def test_inprocess_transport_runs_a_plan_directly(self):
        db = join_database(3, 1)
        session = ExplainSession(db, method="exact")
        plan = plan_batch("exact", session._build_jobs(JOIN_QUERY, None), True)
        with InProcessTransport(max_workers=2) as transport:
            outcomes = transport.run_batch(plan)
        assert sorted(outcomes) == [0, 1, 2]
        assert all(result.ok for result in outcomes.values())

    def test_process_transport_uses_store_dir(self, tmp_path):
        store = PersistentArtifactStore(tmp_path / "store")
        cache = ArtifactCache(store=store)
        db = join_database(4, 2)
        session = ExplainSession(db, method="exact", cache=cache)
        plan = plan_batch("exact", session._build_jobs(JOIN_QUERY, None), True)
        with ProcessPoolTransport(
            max_workers=2, store_dir=str(store.directory)
        ) as transport:
            outcomes = transport.run_batch(plan)
        assert all(result.ok for result in outcomes.values())
        # the pool workers published the shape to the shared store
        kinds = {entry.kind for entry in store.entries()}
        assert {"cnf", "dnnf", "tape"} <= kinds
