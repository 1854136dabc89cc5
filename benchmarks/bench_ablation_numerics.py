"""Ablation: the machine-width tier vs the interpreted reference pass.

Recomputes exact Shapley values for the ground-truth records consumed
by the fig6/fig7/table2 drivers on the default path (the machine-width
tier, chosen per shape) and on the interpreted reference pass (the
tier disabled), asserting byte-identical Fractions, and reports
per-bucket timing of the two passes.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import repro.core.numerics.fixed as fixed
from repro.bench import bucket_of, format_table, mean, write_csv
from repro.circuits import eliminate_auxiliary, tseytin_transform
from repro.compiler import compile_cnf
from repro.core import shapley_all_facts
from repro.core.numerics import HAS_NUMPY

HEADERS = ["bucket", "circuits", "interpreted [s]", "default [s]",
           "numpy available"]


@contextmanager
def _interpreted():
    """Run every sweep inside on the interpreted reference pass."""
    saved = fixed.HAS_NUMPY
    fixed.HAS_NUMPY = False
    try:
        yield
    finally:
        fixed.HAS_NUMPY = saved


def _timed(ddnnf, players):
    start = time.perf_counter()
    values = shapley_all_facts(ddnnf, players)
    return values, time.perf_counter() - start


def test_ablation_numeric_kernels(
    ground_truth_records, results_dir, capsys, benchmark
):
    records = [r for r in ground_truth_records if r.n_facts <= 120][:40]
    per_bucket: dict[str, list[tuple[float, float]]] = {}
    compiled = []
    for record in records:
        cnf = tseytin_transform(record.circuit)
        ddnnf = eliminate_auxiliary(
            compile_cnf(cnf).circuit, set(cnf.labels.values())
        )
        players = sorted(record.values)
        compiled.append((ddnnf, players))

        # Acceptance: both paths return the very Fractions the
        # drivers' ground truth was computed from.
        with _interpreted():
            interpreted, t_interpreted = _timed(ddnnf, players)
        default, t_default = _timed(ddnnf, players)
        for path, values in (("interpreted", interpreted),
                             ("default", default)):
            assert values == record.values, path
            assert all(type(v) is Fraction for v in values.values())
        bucket = bucket_of(record.n_facts) or ">400"
        per_bucket.setdefault(bucket, []).append((t_interpreted, t_default))

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
        print(f"\nAblation — machine-width tier over {len(compiled)} "
              f"circuits (numpy available: {HAS_NUMPY})")
        print(format_table(HEADERS, rows))

    # The default path on the largest compiled circuit.
    big = max(compiled, key=lambda pair: len(pair[0]))
    benchmark(shapley_all_facts, big[0], big[1])
