"""The default executor: threads or the process pool, chosen per batch.

``ExplainSession(executor=None)`` runs a batch on the process pool when
its unpublished shapes, at ``facts ** 2`` each, outweigh shipping its
answers by more than ``POOL_COST``, and on threads otherwise.  An
explicit executor wins, and a host with one usable CPU always gets
threads.  Whichever runs, the Fractions are the thread transport's, and
the pool's counters reach ``session.stats``.
"""

import pytest

import repro.engine.session as session_module
from repro.engine import EngineOptions, ExplainSession
from repro.workloads.tpch import TpchConfig, generate_tpch
from repro.workloads.tpch_queries import tpch_query

from .test_store import JOIN_QUERY, join_database

OPTIONS = EngineOptions(timeout=None)


def reprs(results) -> dict:
    """Every answer's values, as exact text (order included)."""
    return {answer: repr(sorted(result.values.items(), key=repr))
            for answer, result in results.items()}


@pytest.fixture(scope="module")
def q16():
    """TPC-H Q16 at scale 0.002: 20 answers over 16 shapes of up to 71
    facts, whose squared facts sum to 23,909: an expensive batch."""
    return generate_tpch(TpchConfig(scale_factor=0.002)), tpch_query("Q16").sql


@pytest.fixture
def cpus(monkeypatch):
    """Pretend the host has two usable CPUs, whatever it has."""
    monkeypatch.setattr(session_module, "usable_cpus", lambda: 2)


class TestChoice:
    def test_cheap_batch_starts_no_pool(self, cpus):
        with ExplainSession(join_database(), max_workers=2) as session:
            results = session.explain_many(JOIN_QUERY)
            assert "process" not in session._transports
            assert session.transport_kinds == ("thread",)
        assert all(result.ok for result in results.values())

    def test_cheap_tpch_batch_starts_no_pool(self, cpus):
        db = generate_tpch(TpchConfig(scale_factor=0.001))
        with ExplainSession(db, options=OPTIONS, max_workers=2) as session:
            session.explain_many(tpch_query("Q3").sql)
            assert "process" not in session._transports

    def test_expensive_batch_uses_the_pool_with_thread_fractions(
        self, cpus, q16
    ):
        db, sql = q16
        with ExplainSession(db, options=OPTIONS, max_workers=2,
                            executor="thread") as session:
            threads = session.explain_many(sql)
        with ExplainSession(db, options=OPTIONS, max_workers=2) as session:
            chosen = session.explain_many(sql)
            kinds = session.transport_kinds
            stats = session.stats
        assert kinds == ("process",)
        assert list(chosen) == list(threads)
        assert reprs(chosen) == reprs(threads)
        # the pool children's counters reach the session
        assert stats["compile_calls"] > 0
        assert (stats["fastpath_hits"] + stats["fastpath_fallbacks"]
                == len(chosen))

    def test_pool_is_kept_and_cheap_batches_stay_on_threads(
        self, cpus, monkeypatch
    ):
        db = join_database()
        with ExplainSession(db, max_workers=2) as session:
            monkeypatch.setattr(session_module, "POOL_COST", -10**9)
            session.explain_many(JOIN_QUERY)
            pool = session._transports["process"]
            session.cache.clear()  # dispatch again instead of relabelling
            session.explain_many(JOIN_QUERY)
            assert session._transports["process"] is pool
            monkeypatch.setattr(session_module, "POOL_COST", 10**9)
            session.cache.clear()
            session.explain_many(JOIN_QUERY)
            assert session.transport_kinds == ("process", "thread")
            assert session._transports["process"] is pool

    def test_explicit_executor_wins(self, cpus, monkeypatch):
        monkeypatch.setattr(session_module, "POOL_COST", -10**9)
        db = join_database()
        with ExplainSession(db, max_workers=2, executor="thread") as session:
            session.explain_many(JOIN_QUERY)
            assert session.transport_kinds == ("thread",)
        with ExplainSession(db, max_workers=2) as session:
            session.explain_many(JOIN_QUERY, executor="thread")
            assert session.transport_kinds == ("thread",)
        monkeypatch.setattr(session_module, "POOL_COST", 10**9)
        with ExplainSession(db, max_workers=2) as session:
            session.explain_many(JOIN_QUERY, executor="process")
            assert session.transport_kinds == ("process",)

    def test_one_cpu_means_threads(self, monkeypatch):
        monkeypatch.setattr(session_module, "usable_cpus", lambda: 1)
        monkeypatch.setattr(session_module, "POOL_COST", -10**9)
        with ExplainSession(join_database(), max_workers=2) as session:
            session.explain_many(JOIN_QUERY)
            assert session.transport_kinds == ("thread",)

    def test_one_worker_means_threads(self, cpus, monkeypatch):
        monkeypatch.setattr(session_module, "POOL_COST", -10**9)
        with ExplainSession(join_database(), max_workers=1) as session:
            session.explain_many(JOIN_QUERY)
            assert session.transport_kinds == ("thread",)

    def test_sampling_engines_stay_on_threads(self, cpus, monkeypatch):
        monkeypatch.setattr(session_module, "POOL_COST", -10**9)
        with ExplainSession(join_database(), method="monte_carlo",
                            max_workers=2) as session:
            session.explain_many(JOIN_QUERY)
            assert session.transport_kinds == ("thread",)

    def test_cost_separates_the_calibration_batches(self):
        # (sum of facts ** 2 over shapes, answers, pool wins) per row of
        # the POOL_COST table; Q19 @ 0.005 is a tie and goes either way
        rows = {
            "Q3 @ 0.01": (280, 1250, False),
            "Q10 @ 0.005": (588, 158, False),
            "Q11 @ 0.005": (4, 397, False),
            "Q18 @ 0.005": (22935, 727, False),
            "Q16 @ 0.002": (23909, 20, True),
            "Q16 @ 0.004": (76904, 21, True),
        }
        for name, (squares, answers, pool) in rows.items():
            cost = squares - session_module.SHIP_COST * answers
            assert (cost > session_module.POOL_COST) == pool, name


class TestPoolCounters:
    def test_process_counters_match_threads(self):
        db = join_database(6, 2)
        counted = ("fastpath_hits", "fastpath_fallbacks", "batched_groups",
                   "batched_answers")
        stats = {}
        for executor in ("thread", "process"):
            with ExplainSession(db, max_workers=2,
                                executor=executor) as session:
                results = session.explain_many(JOIN_QUERY)
                stats[executor] = session.stats
        process = stats["process"]
        assert process["compile_calls"] > 0
        assert (process["fastpath_hits"] + process["fastpath_fallbacks"]
                == len(results))
        # one shape: the same sweeps wherever they ran; without a store
        # the sibling group recompiles the shape if it lands on the
        # other pool child
        assert ({key: process[key] for key in counted}
                == {key: stats["thread"][key] for key in counted})
        assert stats["thread"]["compile_calls"] == 1
        assert 1 <= process["compile_calls"] <= 2
        assert not any(key.startswith("remote_") for key in process)
