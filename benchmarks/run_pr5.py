"""Machine-width tier acceptance driver: writes BENCH_5.json at the
repo root.

Checks, in one run:

1. **Warm-store machine-width smoke** — ``bench --json`` on TPC-H Q16
   over a persistent store twice: the warm run must report 0
   compilations, 0 tape lowerings, *and* ``fastpath_hits > 0`` (the
   level-scheduled tier, the default path, actually ran) with every
   fallback a shape too small for the tier to pay off.
2. **Path/mode parity** — on the fig7 ground-truth pool, the default
   path and the interpreted reference pass (the tier disabled) x
   all-facts mode (conditioning / derivative) return byte-identical
   exact Fractions.
3. **Machine-width speedup** — on the largest fig7 instance, the
   warm-tape derivative pass on the level-scheduled tier must beat
   the interpreted reference pass by >= 3x (median over warmed
   repeats), with identical Fractions.
4. **Larger synthetic tier** — a 70-fact synthetic instance timed the
   same way.
5. **Wide and fallback tiers** — a ~141-bit instance takes six CRT
   residue planes (no fallback), and with the tier disabled falls
   back (``fastpath_fallbacks > 0``) to identical exact values.

Run with ``PYTHONPATH=src python benchmarks/run_pr5.py``; pass
``--quick`` (the CI perf-smoke mode) to use the TPC-H half of the
ground-truth pool only, skip the timing assertions (CI runners are too
noisy to gate on wall-clock ratios), and skip writing BENCH_5.json.
"""

import io
import json
import random
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.core.numerics.fixed as fixed  # noqa: E402

from repro.bench import run_suite  # noqa: E402
from repro.circuits import (  # noqa: E402
    Circuit, eliminate_auxiliary, tseytin_transform,
)
from repro.cli import main as cli_main  # noqa: E402
from repro.compiler import CompilationBudget, compile_cnf  # noqa: E402
from repro.core import shapley_all_facts  # noqa: E402
from repro.core.numerics import (  # noqa: E402
    HAS_NUMPY,
    FastpathStats,
    compile_tape,
    plan_for,
)
from repro.workloads import (  # noqa: E402
    IMDB_QUERIES,
    TPCH_QUERIES,
    ImdbConfig,
    TpchConfig,
    generate_imdb,
    generate_tpch,
)
from repro.workloads.synthetic import random_monotone_cnf  # noqa: E402

EXACT_BUDGET = CompilationBudget(max_nodes=400_000, max_seconds=2.5)
MODES = ("conditioning", "derivative")
PATHS = ("default", "interpreted")
TIMING_REPEATS = 9


@contextmanager
def _path(name: str):
    """Run Algorithm 1 on the default path, or with the machine-width
    tier disabled (``"interpreted"``: the reference kernel's pass)."""
    saved = fixed.HAS_NUMPY
    fixed.HAS_NUMPY = saved and name == "default"
    try:
        yield
    finally:
        fixed.HAS_NUMPY = saved


def _timed(fn, repeats=TIMING_REPEATS):
    """``(min, median)`` seconds over ``repeats`` runs, after one
    explicit warm-up call (first-call effects — tape plan construction,
    matrix caches — belong to neither side of a speedup ratio)."""
    fn()
    laps = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        laps.append(time.perf_counter() - start)
    return min(laps), statistics.median(laps)


def _bench_json(store_dir: str) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main([
            "bench", "--workload", "tpch", "--query", "Q16",
            "--cache-dir", store_dir, "--json",
        ])
    assert code == 0, buffer.getvalue()
    return json.loads(buffer.getvalue())


def warm_store_fastpath_check() -> dict:
    with tempfile.TemporaryDirectory() as store_dir:
        cold = _bench_json(store_dir)
        warm = _bench_json(store_dir)
    assert cold["stats"]["compile_calls"] > 0, cold
    assert warm["stats"]["compile_calls"] == 0, warm
    assert warm["stats"]["tape_compilations"] == 0, warm
    assert warm["stats"]["fastpath_hits"] > 0, warm
    assert warm["stats"]["fastpath_fallbacks"] == \
        warm["stats"]["fastpath_small_fallbacks"], warm
    assert warm["ok"] == cold["ok"] == cold["outputs"], (cold, warm)
    return {
        "cold": {
            "compile_calls": cold["stats"]["compile_calls"],
            "tape_compilations": cold["stats"]["tape_compilations"],
            "fastpath_hits": cold["stats"]["fastpath_hits"],
        },
        "warm": {
            "compile_calls": warm["stats"]["compile_calls"],
            "tape_compilations": warm["stats"]["tape_compilations"],
            "fastpath_hits": warm["stats"]["fastpath_hits"],
            "fastpath_small_fallbacks":
                warm["stats"]["fastpath_small_fallbacks"],
            "store_hits": warm["stats"]["store_hits"],
        },
    }


def ground_truth_records(quick: bool):
    """The fig6/fig7/table2 ground-truth pool (same selection as
    benchmarks/conftest.py); ``--quick`` keeps the TPC-H half only."""
    tpch = run_suite(
        generate_tpch(TpchConfig(scale_factor=0.0005)), TPCH_QUERIES,
        "TPC-H", budget=EXACT_BUDGET, keep_values=True,
    )
    runs = list(tpch)
    if not quick:
        runs += run_suite(
            generate_imdb(ImdbConfig()), IMDB_QUERIES, "IMDB",
            budget=EXACT_BUDGET, keep_values=True, max_outputs=40,
        )
    records = []
    for run in runs:
        records.extend(run.records)
    ok = [r for r in records if r.ok and r.values and r.n_facts >= 2]
    rng = random.Random(1234)
    rng.shuffle(ok)
    return ok[:120]


def _compiled(circuit: Circuit):
    cnf = tseytin_transform(circuit)
    ddnnf = eliminate_auxiliary(
        compile_cnf(cnf).circuit, set(cnf.labels.values())
    )
    return ddnnf, sorted(ddnnf.reachable_vars(), key=repr)


def parity_check(records, n_records: int) -> dict:
    """Parity over the first ``n_records`` records plus the five
    largest (most fig7 lineages are too small for the machine-width
    tier to pay off, so the largest are the ones it serves)."""
    largest = sorted(records, key=lambda r: r.n_facts)[-5:]
    checked = records[:n_records] + [
        r for r in largest if r not in records[:n_records]]
    stats = {path: FastpathStats() for path in PATHS}
    for record in checked:
        ddnnf, _ = _compiled(record.circuit)
        players = sorted(record.values)
        tape = compile_tape(ddnnf.condition({}))
        for path in PATHS:
            for mode in MODES:
                with _path(path):
                    values = shapley_all_facts(
                        ddnnf, players, method=mode,
                        tape=tape if mode == "derivative" else None,
                        fastpath_stats=stats[path],
                    )
                assert values == record.values, (path, mode)
    # The fig7-tier acceptance gate: the machine-width tier must have
    # actually served these shapes, and declined only the small ones.
    default = stats["default"]
    assert default.hits > 0, default
    assert default.fallbacks == default.small, default
    assert stats["interpreted"].ineligible == len(checked), stats
    return {
        "records_checked": len(checked),
        "paths": list(PATHS),
        "modes": list(MODES),
        "identical_fractions": True,
        "fastpath_hits": default.hits,
        "fastpath_small_fallbacks": default.small,
    }


def _tier_name(plan) -> str:
    if plan is None:
        return "fallback"
    if plan.moduli:
        return f"crt[{len(plan.moduli)}]"
    import numpy as np

    return np.dtype(plan.dtype).name


def fastpath_speedup(ddnnf, players, label: str, quick: bool) -> dict:
    """Warm-tape derivative pass: the level-scheduled machine-width
    tier vs the interpreted reference pass, min/median over warmed
    repeats."""
    tape = compile_tape(ddnnf.condition({}))
    plan = plan_for(tape)

    def run():
        return shapley_all_facts(ddnnf, players, tape=tape)

    with _path("interpreted"):
        baseline_values = run()
        base_min, base_median = _timed(run)
    fast_values = run()
    assert baseline_values == fast_values, label
    fast_min, fast_median = _timed(run)
    speedup = round(base_median / fast_median, 3)
    if not quick:
        assert speedup >= 3.0, (label, speedup)
    forward_bits, backward_bits, diff_bits = tape.bound_bits()
    return {
        "instance": {
            "n_facts": len(players),
            "ddnnf_gates": len(ddnnf),
            "tape_instructions": len(tape),
            "bound_bits": max(forward_bits, backward_bits, diff_bits),
            "tier": _tier_name(plan),
        },
        "baseline_interpreted_median_seconds": round(base_median, 6),
        "baseline_interpreted_min_seconds": round(base_min, 6),
        "fastpath_median_seconds": round(fast_median, 6),
        "fastpath_min_seconds": round(fast_min, 6),
        "speedup_median": speedup,
        "timing_repeats": TIMING_REPEATS,
        "warmup_iteration": True,
        "identical_fractions": True,
    }


def _engineered_cnf(n_clauses: int, width: int, seed: int) -> Circuit:
    """Monotone CNF over disjoint shuffled clause blocks: model count
    exactly ``(2^width - 1)^n_clauses``, compilation trivial."""
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


def overflow_tier_check() -> dict:
    """~141-bit bounds: the plane count follows the bounds (six CRT
    planes, no fallback), and with the tier disabled the interpreted
    fallback returns the same exact values."""
    ddnnf, players = _compiled(_engineered_cnf(50, 3, seed=4))
    tape = compile_tape(ddnnf.condition({}))
    fast_stats = FastpathStats()
    fast = shapley_all_facts(
        ddnnf, players, tape=tape, fastpath_stats=fast_stats)
    fallback_stats = FastpathStats()
    with _path("interpreted"):
        reference = shapley_all_facts(
            ddnnf, players, tape=tape, fastpath_stats=fallback_stats)
    assert fast_stats.hits == 1 and fast_stats.fallbacks == 0, fast_stats
    assert fallback_stats.fallbacks > 0, fallback_stats
    assert fast == reference
    forward_bits, backward_bits, diff_bits = tape.bound_bits()
    return {
        "n_facts": len(players),
        "bound_bits": max(forward_bits, backward_bits, diff_bits),
        "tier": _tier_name(plan_for(tape)),
        "fastpath_fallbacks": fallback_stats.fallbacks,
        "identical_fractions": True,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    if not HAS_NUMPY:
        print("run_pr5 needs NumPy (the machine-width tier under test)")
        return 1
    started = time.time()
    print("PR 5 acceptance: warm-store machine-width smoke ...", flush=True)
    warm = warm_store_fastpath_check()
    print("PR 5 acceptance: building fig7 ground truth "
          f"({'TPC-H only' if quick else 'TPC-H + IMDB'}) ...", flush=True)
    records = ground_truth_records(quick)
    print(f"  {len(records)} ground-truth records", flush=True)
    print("PR 5 acceptance: path/mode parity ...", flush=True)
    parity = parity_check(records, 10 if quick else 30)
    biggest = max(records, key=lambda r: r.n_facts)
    ddnnf, _ = _compiled(biggest.circuit)
    players = sorted(biggest.values)
    print(f"PR 5 acceptance: fig7 fastpath timing "
          f"({biggest.n_facts} facts) ...", flush=True)
    fig7 = fastpath_speedup(ddnnf, players, "fig7", quick)
    print(f"  speedup {fig7['speedup_median']}x "
          f"({fig7['instance']['tier']})", flush=True)
    print("PR 5 acceptance: larger synthetic tier "
          "(70-var monotone CNF, ~7k-gate d-DNNF) ...", flush=True)
    synthetic_ddnnf, _ = _compiled(random_monotone_cnf(70, 16, 6, seed=0))
    synthetic_players = [f"x{i}" for i in range(70)]
    synthetic = fastpath_speedup(
        synthetic_ddnnf, synthetic_players, "synthetic", quick)
    print(f"  speedup {synthetic['speedup_median']}x "
          f"({synthetic['instance']['tier']})", flush=True)
    print("PR 5 acceptance: wide and fallback tiers ...", flush=True)
    overflow = overflow_tier_check()
    payload = {
        "pr": 5,
        "title": "Machine-width fast path: level-scheduled tape execution "
                 "in float64, int64 or CRT residue planes",
        "numpy_available": HAS_NUMPY,
        "quick": quick,
        "warm_store_fastpath": warm,
        "parity": parity,
        "fig7_fastpath": fig7,
        "synthetic_tier": synthetic,
        "overflow_tier": overflow,
        "total_seconds": round(time.time() - started, 1),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not quick:
        out = ROOT / "BENCH_5.json"
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
