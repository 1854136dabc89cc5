"""Ablation: numeric kernels (PR 4).

Recomputes exact Shapley values for the ground-truth records consumed
by the fig6/fig7/table2 drivers under every registered numeric kernel
and every all-facts mode, asserting byte-identical Fractions (the
acceptance criterion of PR 4), and reports per-bucket timing of the
reference vs the vectorized backend on the smoothing-free tape pass.
"""

import time
from fractions import Fraction

from repro.bench import bucket_of, format_table, mean, write_csv
from repro.circuits import eliminate_auxiliary, tseytin_transform
from repro.compiler import compile_cnf
from repro.core import shapley_all_facts
from repro.core.numerics import HAS_NUMPY, available_kernels, get_kernel

MODES = ("conditioning", "derivative")
HEADERS = ["bucket", "circuits", "python [s]", "numpy [s]", "numpy available"]


def test_ablation_numeric_kernels(
    ground_truth_records, results_dir, capsys, benchmark
):
    records = [r for r in ground_truth_records if r.n_facts <= 120][:40]
    kernels = [get_kernel(name) for name in available_kernels()]
    per_bucket: dict[str, list[tuple[float, float]]] = {}
    compiled = []
    for record in records:
        cnf = tseytin_transform(record.circuit)
        ddnnf = eliminate_auxiliary(
            compile_cnf(cnf).circuit, set(cnf.labels.values())
        )
        players = sorted(record.values)
        compiled.append((ddnnf, players))

        # Acceptance: every kernel x mode combination returns the very
        # Fractions the drivers' ground truth was computed from.
        reference = record.values
        for kernel in kernels:
            for mode in MODES:
                values = shapley_all_facts(
                    ddnnf, players, method=mode, kernel=kernel
                )
                assert values == reference, (kernel.name, mode)
                assert all(type(v) is Fraction for v in values.values())

        start = time.perf_counter()
        shapley_all_facts(ddnnf, players, kernel="python")
        t_python = time.perf_counter() - start
        start = time.perf_counter()
        shapley_all_facts(ddnnf, players, kernel="numpy")
        t_numpy = time.perf_counter() - start
        bucket = bucket_of(record.n_facts) or ">400"
        per_bucket.setdefault(bucket, []).append((t_python, t_numpy))

    rows = []
    for bucket in sorted(per_bucket, key=lambda b: int(b.strip(">").split("-")[0])):
        pairs = per_bucket[bucket]
        rows.append([
            bucket, len(pairs),
            mean([p[0] for p in pairs]), mean([p[1] for p in pairs]),
            HAS_NUMPY,
        ])
    write_csv(results_dir / "ablation_numerics.csv", HEADERS, rows)
    with capsys.disabled():
        print(f"\nAblation — numeric kernels over {len(compiled)} circuits "
              f"(numpy available: {HAS_NUMPY})")
        print(format_table(HEADERS, rows))

    # Kernel: the vectorized backend on the largest compiled circuit.
    big = max(compiled, key=lambda pair: len(pair[0]))
    benchmark(shapley_all_facts, big[0], big[1], kernel="numpy")
