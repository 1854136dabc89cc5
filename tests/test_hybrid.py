"""Tests for the hybrid strategy (Section 6.3)."""

from fractions import Fraction

import pytest

from repro.core import cnf_proxy_from_circuit, hybrid_shapley, ranking
from repro.db import lineage
from repro.engine import ArtifactCache, EngineOptions, get_engine
from repro.workloads import TPCH_QUERIES, TpchConfig, generate_tpch
from repro.workloads.flights import (
    EXPECTED_SHAPLEY,
    fact,
    flights_database,
    flights_query,
    one_stop_query,
)
from repro.workloads.synthetic import intractable_circuit


def flights_circuit():
    db = flights_database()
    plan = flights_query().to_algebra(db.schema)
    return db, lineage(plan, db, endogenous_only=True).lineage_of(())


class TestHybrid:
    def test_easy_case_returns_exact(self):
        db, circuit = flights_circuit()
        result = hybrid_shapley(circuit, db.endogenous_facts(), timeout=30.0)
        assert result.kind == "exact"
        assert result.is_exact
        assert result.values[fact("a1")] == EXPECTED_SHAPLEY["a1"]
        assert result.exact_outcome is not None and result.exact_outcome.ok

    def test_hard_case_falls_back_to_proxy(self):
        circuit = intractable_circuit()
        players = sorted(circuit.reachable_vars())
        result = hybrid_shapley(circuit, players, timeout=0.2)
        assert result.kind == "proxy"
        assert not result.is_exact
        assert set(result.values) == set(players)
        assert result.exact_outcome is not None
        assert result.exact_outcome.status in ("budget", "timeout")

    def test_node_cap_triggers_fallback(self):
        circuit = intractable_circuit()
        players = sorted(circuit.reachable_vars())
        result = hybrid_shapley(circuit, players, timeout=60.0, max_nodes=100)
        assert result.kind == "proxy"

    def test_ranking_available_either_way(self):
        db, circuit = flights_circuit()
        exact = hybrid_shapley(circuit, db.endogenous_facts(), timeout=30.0)
        assert exact.ranking()[0] == fact("a1")

        hard = intractable_circuit()
        players = sorted(hard.reachable_vars())
        proxy = hybrid_shapley(hard, players, timeout=0.2)
        assert len(proxy.ranking()) == len(players)

    def test_proxy_ranking_matches_exact_on_flights_tail(self):
        """On the running example, the proxy ranks a2..a5 above a6, a7
        just like the exact order (Example 5.3's conclusion)."""
        db, circuit = flights_circuit()
        proxy_values = hybrid_shapley(
            circuit, db.endogenous_facts(), timeout=0.0
        )
        assert proxy_values.kind == "proxy"
        assert proxy_values.values[fact("a2")] > proxy_values.values[fact("a6")]

    def test_seconds_recorded(self):
        db, circuit = flights_circuit()
        result = hybrid_shapley(circuit, db.endogenous_facts(), timeout=30.0)
        assert result.seconds >= 0


def parity_lineages():
    """Flights' two queries and the first answers of three TPC-H
    queries at scale 0.0005."""
    db = flights_database()
    circuits = [
        lineage(query.to_algebra(db.schema), db, endogenous_only=True)
        .lineage_of(())
        for query in (flights_query(), one_stop_query())
    ]
    tpch = generate_tpch(TpchConfig(scale_factor=0.0005))
    for spec in TPCH_QUERIES:
        if spec.name in ("Q3", "Q10", "Q16"):
            result = lineage(spec.plan(tpch), tpch, endogenous_only=True)
            circuits += [result.lineage_of(a) for a in result.tuples()[:3]]
    return circuits


class TestProxyThroughTheHandle:
    """The proxy engine and the hybrid fallback read the CNF of one
    artifact handle, with or without a cache, and agree with the
    reference Tseytin path of Figure 3."""

    @pytest.fixture(scope="class")
    def lineages(self):
        return parity_lineages()

    def test_proxy_engine_and_hybrid_fallback_match_the_reference(
        self, lineages
    ):
        engine = get_engine("proxy")
        cache = ArtifactCache()
        for circuit in lineages:
            players = sorted(circuit.reachable_vars(), key=repr) + ["outside"]
            expected = cnf_proxy_from_circuit(circuit, players)
            values = [
                engine.explain_circuit(circuit, players, EngineOptions()).values,
                engine.explain_circuit(
                    circuit, players, EngineOptions(cache=cache)).values,
            ]
            for shared in (None, cache):
                result = hybrid_shapley(
                    circuit, players, timeout=0, cache=shared)
                assert result.kind == "proxy"
                values.append(result.values)
            for got in values:
                assert list(got.items()) == list(expected.items())
