"""The benchmark's three workloads and the sessions they run on.

Each workload is a fixed database, a list of queries and a transport.
The database is generated with the generator's default seed: generator
seeds move the cost of a pass a lot (TPC-H Q16 at scale 0.005 took
2.4 s to 16 s cold over generator seeds 1-4), so a seed there would
measure the seed, not the program.
The benchmark's ``--seed`` instead permutes the order in which queries
are issued and answers are requested, which changes the shape
representatives, batch grouping and wire order the program sees while
the work stays the same.  Every seed therefore yields the same
Fractions, and :data:`EXPECTED_DIGESTS` pins them.
"""

from __future__ import annotations

import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.engine import EngineOptions, ExplainSession
from repro.engine.service import Coordinator, format_address
from repro.workloads.imdb import ImdbConfig, generate_imdb
from repro.workloads.imdb_queries import imdb_query
from repro.workloads.tpch import TpchConfig, generate_tpch
from repro.workloads.tpch_queries import tpch_query

#: Pool width of every transport: the 2-core host the benchmark was
#: sized on (``nproc`` = 2).
WORKERS = 2

#: Every answer is computed exactly: no deadline, so run length never
#: depends on one.
OPTIONS = EngineOptions(timeout=None)


@dataclass(frozen=True)
class Workload:
    name: str
    config: TpchConfig | ImdbConfig
    queries: tuple[str, ...]
    transport: str  # "thread" or "socket"
    #: Cycles a run makes at least, so every median has several samples.
    min_cycles: int = 3

    def database(self):
        if isinstance(self.config, TpchConfig):
            return generate_tpch(self.config)
        return generate_imdb(self.config)

    def sql(self, name: str) -> str:
        tpch = isinstance(self.config, TpchConfig)
        spec = tpch_query(name) if tpch else imdb_query(name)
        return spec.sql


WORKLOADS = {
    # Many small answers: lineage extraction dominates, compilation and
    # Algorithm 1 nearly drop out.
    "tpch-many": Workload(
        "tpch-many", TpchConfig(scale_factor=0.01), ("Q3",), "thread"),
    # Few, wide answers: the one workload where Algorithm 1 dominates.
    # On the process transport the same warm pass varied by a fifth from
    # cycle to cycle, as answers landed on a pool child with or without
    # their tapes in memory; on threads the work is the same every time.
    # At scale 0.005 a cycle takes 23 s on threads, too long for a run
    # to hold several; at 0.004 it takes 8 s.
    "tpch-wide": Workload(
        "tpch-wide", TpchConfig(scale_factor=0.004), ("Q16",), "thread",
        min_cycles=4),
    # A socket fleet over a fresh store: cold passes are compilation,
    # store writes and the wire; warm passes read memory caches.  The
    # default IMDB size (220 movies, 300 people) makes one cold pass
    # take over 160 s (16a and 17e over 80 s each), past the time a run
    # may take; at 120 movies and 160 people it takes about 4 s.  Its
    # cold passes vary most from cycle to cycle (which worker compiles
    # what), so its median takes more cycles.
    "imdb-fleet": Workload(
        "imdb-fleet", ImdbConfig(movies=120, people=160),
        ("1a", "6b", "7c", "8d", "11a", "13c", "16a", "17e"), "socket",
        min_cycles=6),
}

#: SHA-256 over every answer's exact Shapley values (see
#: ``check.digest``), recorded at the commit that added the benchmark;
#: the same for every ``--seed``.
EXPECTED_DIGESTS = {
    "tpch-many":
        "def50575b618faaed576273efdb34f200f69dfe838e775774c3a2295d7b052cd",
    "tpch-wide":
        "52549207c58c9dd5bd82d3f1746cc4b8eaa29a1cd3f2a809abb566d5438b0dae",
    "imdb-fleet":
        "885cdacdcfa6a3c0a1ea410c989b2a9b414e0da62736f6f9ff151ca6aeaa4c43",
}


@contextmanager
def open_session(workload: Workload, db, scratch: Path,
                 trace_dir: Path | None):
    """A ready session: its socket fleet registered.

    Everything it starts is stopped, and every process waited for, on
    exit."""
    if workload.transport == "thread":
        with ExplainSession(db, options=OPTIONS, max_workers=WORKERS) as session:
            yield session
        return
    store_dir = scratch / "store"
    store_dir.mkdir()
    with _fleet(store_dir, trace_dir) as address:
        with ExplainSession(db, options=OPTIONS, executor="socket",
                            coordinator=address,
                            min_workers=WORKERS) as session:
            yield session


@contextmanager
def _fleet(store_dir: Path, trace_dir: Path | None):
    """One in-process coordinator plus ``WORKERS`` socket workers
    sharing ``store_dir``, launched through ``perfbench/worker.py``."""
    coordinator = Coordinator().start()
    address = format_address(coordinator.address)
    command = [sys.executable, str(Path(__file__).with_name("worker.py")),
               "--connect", address, "--cache-dir", str(store_dir)]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    workers = [subprocess.Popen(command, stdout=subprocess.DEVNULL)
               for _ in range(WORKERS)]
    try:
        registered = coordinator.wait_for_workers(WORKERS, timeout=60.0)
        if registered < WORKERS:
            raise RuntimeError(
                f"only {registered} of {WORKERS} socket workers registered")
        yield address
    finally:
        coordinator.shutdown()
        for worker in workers:
            try:
                worker.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
