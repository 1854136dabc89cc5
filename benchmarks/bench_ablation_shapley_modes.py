"""Ablation: Algorithm 1's all-facts strategies — the paper's per-fact
conditioning loop (O(|C| n^3) total, the oracle) against the shared
smoothing-free derivative pass over a compiled gate tape.

Expected shape: the shared pass beats conditioning increasingly with
the number of facts; both return identical exact values (asserted).
"""

import time

from repro.bench import bucket_of, format_table, mean, write_csv
from repro.circuits import eliminate_auxiliary, tseytin_transform
from repro.compiler import compile_cnf
from repro.core import shapley_all_facts

HEADERS = [
    "bucket", "circuits", "conditioning [s]", "derivative [s]",
    "speedup vs conditioning",
]


def test_ablation_all_facts_modes(ground_truth_records, results_dir, capsys, benchmark):
    records = [r for r in ground_truth_records if r.n_facts <= 120][:50]
    per_bucket: dict[str, list[tuple[float, float]]] = {}
    checked = 0
    compiled_cache = []
    for record in records:
        cnf = tseytin_transform(record.circuit)
        ddnnf = eliminate_auxiliary(
            compile_cnf(cnf).circuit, set(cnf.labels.values())
        )
        players = sorted(record.values)
        start = time.perf_counter()
        conditioning = shapley_all_facts(ddnnf, players, method="conditioning")
        t_cond = time.perf_counter() - start
        start = time.perf_counter()
        derivative = shapley_all_facts(ddnnf, players, method="derivative")
        t_der = time.perf_counter() - start
        assert conditioning == derivative
        checked += 1
        bucket = bucket_of(record.n_facts) or ">400"
        per_bucket.setdefault(bucket, []).append((t_cond, t_der))
        compiled_cache.append((ddnnf, players))

    rows = []
    for bucket in sorted(per_bucket, key=lambda b: int(b.strip(">").split("-")[0])):
        pairs = per_bucket[bucket]
        cond = mean([t[0] for t in pairs])
        der = mean([t[1] for t in pairs])
        rows.append([bucket, len(pairs), cond, der,
                     cond / der if der else float("nan")])

    write_csv(results_dir / "ablation_shapley_modes.csv", HEADERS, rows)
    with capsys.disabled():
        print(f"\nAblation — Algorithm 1 modes over {checked} circuits")
        print(format_table(HEADERS, rows))

    # Kernel: smoothing-free derivative mode on the largest compiled
    # circuit.
    big = max(compiled_cache, key=lambda pair: len(pair[0]))
    benchmark(shapley_all_facts, big[0], big[1], method="derivative")

    # Shape: on the largest bucket the shared pass is not slower than
    # conditioning.
    if len(rows) >= 2:
        assert rows[-1][4] >= 0.8  # conditioning / derivative
