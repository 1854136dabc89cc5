"""PR 8 acceptance driver: writes BENCH_8.json at the repo root.

Checks, in one run:

1. **Warm-batch throughput** — a 100-answer same-shape batch from the
   fig7 ground-truth pool, executed warm (tape compiled, plan cached):
   the group's single shared sweep plus per-answer Equation 3 must
   beat the per-answer machine-width loop by >= 2x (median over warmed
   repeats), with byte-identical Fractions.
2. **Batched/per-answer x path x transport matrix** — on a join
   workload, batched sessions on the default path and on the
   interpreted reference pass (the machine-width tier disabled) and
   every transport (thread / process / socket) return Fractions
   byte-identical to explaining each answer's lineage alone.
3. **Mixed-tier batch** — one batch spanning the float64 tier, the CRT
   tier, and a six-plane CRT shape takes one machine-width sweep per
   shape and stays exact answer by answer against the interpreted
   per-answer fallback.

Run with ``PYTHONPATH=src python benchmarks/run_pr8.py``; pass
``--quick`` (the CI perf-smoke mode) to shrink the pool, skip the
timing assertion (CI runners are too noisy to gate on wall-clock
ratios), and skip writing BENCH_8.json.
"""

import json
import random
import statistics
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.core.numerics.fixed as fixed  # noqa: E402

from repro.bench import run_suite  # noqa: E402
from repro.circuits import (  # noqa: E402
    Circuit, eliminate_auxiliary, tseytin_transform,
)
from repro.compiler import CompilationBudget, compile_cnf  # noqa: E402
from repro.core import shapley_all_facts  # noqa: E402
from repro.core.numerics import (  # noqa: E402
    HAS_NUMPY,
    FastpathStats,
    compile_tape,
    plan_for,
)
from repro.core.pipeline import to_plan  # noqa: E402
from repro.core.shapley import shapley_all_facts_batched  # noqa: E402
from repro.db import (  # noqa: E402
    Database, RelationSchema, Schema, cq,
)
from repro.db.evaluate import lineage  # noqa: E402
from repro.engine import (  # noqa: E402
    ArtifactCache, Coordinator, ExplainSession, run_worker,
)
from repro.workloads import (  # noqa: E402
    TPCH_QUERIES, TpchConfig, generate_tpch,
)

EXACT_BUDGET = CompilationBudget(max_nodes=400_000, max_seconds=2.5)
TIMING_REPEATS = 9
BATCH_SIZE = 100


def _timed(fn, repeats=TIMING_REPEATS):
    """``(min, median)`` seconds over ``repeats`` runs, after one
    explicit warm-up call."""
    fn()
    laps = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        laps.append(time.perf_counter() - start)
    return min(laps), statistics.median(laps)


def _compiled(circuit: Circuit):
    cnf = tseytin_transform(circuit)
    ddnnf = eliminate_auxiliary(
        compile_cnf(cnf).circuit, set(cnf.labels.values())
    )
    return ddnnf, sorted(ddnnf.reachable_vars(), key=repr)


def _engineered_cnf(n_clauses: int, width: int, seed: int) -> Circuit:
    """Monotone CNF over disjoint shuffled clause blocks (run_pr5's
    tier-engineering helper)."""
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(n_clauses * width)]
    rng.shuffle(labels)
    circuit = Circuit()
    clauses = []
    for index in range(n_clauses):
        block = labels[index * width:(index + 1) * width]
        clauses.append(circuit.or_([circuit.var(v) for v in block]))
    circuit.output = circuit.and_(clauses)
    return circuit


def fig7_shape():
    """The largest machine-width-eligible shape of the fig7 ground
    truth pool (TPC-H half, same selection as run_pr5)."""
    runs = run_suite(
        generate_tpch(TpchConfig(scale_factor=0.0005)), TPCH_QUERIES,
        "TPC-H", budget=EXACT_BUDGET, keep_values=True,
    )
    records = [r for run in runs for r in run.records
               if r.ok and r.values and r.n_facts >= 2]
    records.sort(key=lambda r: -r.n_facts)
    for record in records:
        ddnnf, _ = _compiled(record.circuit)
        tape = compile_tape(ddnnf.condition({}))
        if plan_for(tape) is not None:
            return tape, sorted(record.values)
    raise AssertionError("no machine-width-eligible fig7 shape found")


def _shape_group(tape, players, size):
    """``size`` re-targeted answers of one shape, the engine's warm
    shape group."""
    tapes, endo = [], []
    for i in range(size):
        mapping = {label: (label, i) for label in tape.var_labels}
        tapes.append(tape.with_labels(mapping))
        endo.append([mapping.get(p, p) for p in players])
    return tapes, endo


def warm_batch_throughput(quick: bool) -> dict:
    """The headline gate: batched vs per-answer execution of a
    100-answer same-shape fig7 batch, warm."""
    tape, players = fig7_shape()
    size = 20 if quick else BATCH_SIZE
    tapes, endo = _shape_group(tape, players, size)

    def per_answer():
        return [
            shapley_all_facts(None, facts, tape=lane_tape)
            for lane_tape, facts in zip(tapes, endo)
        ]

    def batched():
        return shapley_all_facts_batched(tapes, endo)

    reference = per_answer()
    values = batched()
    assert values == reference
    for lane in values:
        for value in lane.values():
            assert type(value) is Fraction
    per_min, per_median = _timed(per_answer)
    batch_min, batch_median = _timed(batched)
    speedup = round(per_median / batch_median, 3)
    if not quick:
        assert speedup >= 2.0, speedup
    plan = plan_for(tape)
    return {
        "batch_size": size,
        "n_facts": len(players),
        "tape_instructions": len(tape),
        "tier": plan.tier_name,
        "per_answer_median_seconds": round(per_median, 6),
        "per_answer_min_seconds": round(per_min, 6),
        "batched_median_seconds": round(batch_median, 6),
        "batched_min_seconds": round(batch_min, 6),
        "speedup_median": speedup,
        "timing_repeats": TIMING_REPEATS,
        "identical_fractions": True,
    }


JOIN_QUERY = cq(["a"], "R(a, b)", "S(b, c)")


def _join_database(n_answers: int, fanout: int) -> Database:
    """Pairwise-isomorphic lineages — one warm shape group per run
    (mirrors tests/test_store.py)."""
    schema = Schema.of(
        RelationSchema.of("R", "a", "b"), RelationSchema.of("S", "b", "c")
    )
    db = Database(schema)
    for i in range(n_answers):
        db.add("R", f"x{i}", f"y{i}")
        for j in range(fanout):
            db.add("S", f"y{i}", f"z{i}_{j}")
    return db


@contextmanager
def _path(name: str):
    """Run Algorithm 1 on the default path, or with the machine-width
    tier disabled (``"interpreted"``) in this process, its forked pool
    children and in-thread socket workers."""
    saved = fixed.HAS_NUMPY
    fixed.HAS_NUMPY = saved and name == "default"
    try:
        yield
    finally:
        fixed.HAS_NUMPY = saved


@contextmanager
def _fleet(store_dir: str):
    """A coordinator with two in-thread socket workers sharing a store."""
    coordinator = Coordinator().start()
    ready = threading.Barrier(3, timeout=30)
    threads = [
        threading.Thread(
            target=run_worker, args=(coordinator.address,),
            kwargs={"cache_dir": store_dir, "on_ready": ready.wait},
            daemon=True,
        )
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    ready.wait()
    coordinator.wait_for_workers(2, timeout=30)
    try:
        yield coordinator
    finally:
        coordinator.shutdown()
        for thread in threads:
            thread.join(timeout=10)


def transport_matrix(quick: bool) -> dict:
    """Batched sessions across paths and transports vs the per-answer
    reference — the ``identical_fractions`` acceptance matrix.

    The reference cache stores nothing, so each answer is compiled and
    swept alone.  Each transport gets a fresh session: a session
    relabels the Shapley values an earlier batch published, so a shared
    one would sweep on the first transport only."""
    db = _join_database(6 if quick else 10, 2)
    answers = lineage(to_plan(JOIN_QUERY, db), db, endogenous_only=True)
    with ExplainSession(
        db, method="exact", cache=ArtifactCache(max_entries=0)
    ) as session:
        expected = {}
        for answer in answers.tuples():
            circuit = answers.lineage_of(answer)
            expected[answer] = session.explain_one(
                circuit, sorted(circuit.reachable_vars())
            ).values
    combos = []
    with tempfile.TemporaryDirectory() as store_root:
        for backend in ("default", "interpreted"):
            with _path(backend), _fleet(
                str(Path(store_root) / backend)
            ) as coordinator:
                for executor in ("thread", "process", "socket"):
                    with ExplainSession(
                        db, method="exact", max_workers=2,
                        executor=executor, coordinator=coordinator.address,
                        min_workers=2,
                    ) as session:
                        results = session.explain_many(JOIN_QUERY)
                        stats = session.stats
                    assert stats["shapley_reuse_hits"] == 0, (backend, stats)
                    got = {a: r.values for a, r in results.items()}
                    assert got == expected, (backend, executor)
                    assert all(
                        type(v) is Fraction
                        for values in got.values()
                        for v in values.values()
                    ), (backend, executor)
                    combos.append(f"{backend}/{executor}")
    return {
        "answers": len(expected),
        "combinations": combos,
        "identical_fractions": True,
    }


def mixed_tier_batch() -> dict:
    """One batch spanning float64, CRT, and six-plane CRT lanes."""
    shapes = [(18, 3, 0), (48, 3, 0), (50, 3, 4)]
    lanes = []
    for n_clauses, width, seed in shapes:
        ddnnf, players = _compiled(_engineered_cnf(n_clauses, width, seed))
        lanes.append((compile_tape(ddnnf.condition({})), players))
    tapes, endo = [], []
    for i, (tape, players) in enumerate(lanes * 2):
        mapping = {label: (label, i) for label in tape.var_labels}
        tapes.append(tape.with_labels(mapping))
        endo.append([mapping[p] for p in players])
    stats = FastpathStats()
    values = shapley_all_facts_batched(tapes, endo, fastpath_stats=stats)
    fallbacks = FastpathStats()
    for lane_tape, facts, got in zip(tapes, endo, values):
        with _path("interpreted"):
            reference = shapley_all_facts(
                None, facts, tape=lane_tape, fastpath_stats=fallbacks)
        assert got == reference
    assert stats.hits == 6 and stats.fallbacks == 0, stats
    assert sorted(set(stats.tiers.values())) == ["crt", "float64"], stats
    assert fallbacks.ineligible == 6, fallbacks
    return {
        "lanes": len(tapes),
        "fastpath_hits": stats.hits,
        "reference_fallbacks": fallbacks.fallbacks,
        "identical_fractions": True,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    if not HAS_NUMPY:
        print("run_pr8 needs NumPy (the machine-width tier under test)")
        return 1
    started = time.time()
    print("PR 8 acceptance: warm-batch throughput "
          f"({'20' if quick else str(BATCH_SIZE)}-answer fig7 shape "
          "group) ...", flush=True)
    throughput = warm_batch_throughput(quick)
    print(f"  speedup {throughput['speedup_median']}x "
          f"({throughput['tier']}, batch {throughput['batch_size']})",
          flush=True)
    print("PR 8 acceptance: path x transport matrix ...", flush=True)
    matrix = transport_matrix(quick)
    print(f"  {len(matrix['combinations'])} combinations identical",
          flush=True)
    print("PR 8 acceptance: mixed-tier batch ...", flush=True)
    mixed = mixed_tier_batch()
    payload = {
        "pr": 8,
        "title": "Same-shape answer groups sharing one Algorithm-1 "
                 "sweep",
        "numpy_available": HAS_NUMPY,
        "quick": quick,
        "warm_batch_throughput": throughput,
        "transport_matrix": matrix,
        "mixed_tier_batch": mixed,
        "total_seconds": round(time.time() - started, 1),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not quick:
        out = ROOT / "BENCH_8.json"
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
