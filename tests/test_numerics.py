"""Tests for the numerics of Algorithm 1.

Covers the reference kernel's primitives against their textbook
definitions, the compiled gate tape (lowering,
execution, serialization, the tape artifact kind of the persistent
store), the incremental ``shapley_coefficients`` recurrence, the
unified Equation-3 combination's bounds handling, the machine-width
tier (tier selection, CRT residue planes generated from the bounds,
one plane resident at a time, fallback without NumPy), and the
headline randomized parity suite: on seeded small monotone CNFs, the
derivative (smoothing-free) sweep == the paper's per-fact conditioning
loop (the ``shapley_of_fact`` oracle) == naive permutation
enumeration, with byte-identical Fractions on the machine-width tier
and the interpreted reference pass, across all three transports.
"""

import random
import threading
import tracemalloc
from fractions import Fraction
from math import comb, factorial, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.numerics.fixed as fixed

from repro.circuits import (
    Circuit,
    NotDecomposableError,
    circuit_from_nested,
    complete_counts,
    count_models_by_size,
    eliminate_auxiliary,
    enumerate_models,
    tseytin_transform,
)
from repro.compiler import compile_cnf
from repro.core import (
    game_from_circuit, shapley_all_facts, shapley_naive,
)
from repro.core.numerics import (
    HAS_NUMPY,
    KERNEL,
    FastpathStats,
    GateTape,
    TapeError,
    binomial_row,
    coefficients_cache_info,
    compile_tape,
    fastpath_diffs,
    plan_for,
    shapley_coefficients,
)
from repro.core.numerics.tape import OP_AND, OP_NVAR, OP_OR, OP_VAR
from repro.core.shapley import shapley_from_counts
from repro.engine import (
    ArtifactCache,
    Coordinator,
    ExplainSession,
    PersistentArtifactStore,
    run_worker,
)
from repro.workloads.synthetic import random_monotone_cnf, random_monotone_dnf

from .test_store import (
    JOIN_QUERY, join_database, oracle_each_answer, per_fact_oracle,
)

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="NumPy required")

#: (n_vars, n_clauses, width, seed) grid of the randomized parity suite.
PARITY_CASES = [
    (n_vars, n_clauses, width, seed)
    for seed in (0, 1, 2)
    for (n_vars, n_clauses, width) in ((4, 3, 2), (5, 4, 3), (6, 5, 2))
]


def _compile(circuit: Circuit) -> Circuit:
    cnf = tseytin_transform(circuit)
    result = compile_cnf(cnf)
    return eliminate_auxiliary(result.circuit, set(cnf.labels.values()))


def _counts_by_enumeration(circuit: Circuit) -> list[int]:
    labels = sorted(circuit.reachable_vars(), key=repr)
    counts = [0] * (len(labels) + 1)
    for model in enumerate_models(circuit, over=labels):
        counts[len(model)] += 1
    return counts


class TestCoefficients:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 40])
    def test_recurrence_matches_factorial_formula(self, n):
        n_fact = factorial(n)
        expected = [
            Fraction(factorial(k) * factorial(n - k - 1), n_fact)
            for k in range(n)
        ]
        assert shapley_coefficients(n) == expected

    def test_empty_and_negative(self):
        assert shapley_coefficients(0) == []
        assert shapley_coefficients(-3) == []

    def test_returns_a_fresh_list(self):
        first = shapley_coefficients(5)
        first[0] = None  # a caller mutating its copy ...
        assert shapley_coefficients(5)[0] == Fraction(1, 5)  # ... is isolated

    def test_binomial_row(self):
        assert binomial_row(0) == (1,)
        assert binomial_row(4) == (1, 4, 6, 4, 1)
        with pytest.raises(ValueError):
            binomial_row(-1)


def _convolve(a, b):
    """Textbook polynomial product, independent of any kernel."""
    return [
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    ]


class TestKernelPrimitiveParity:
    """The reference kernel's primitives agree with their textbook
    definitions, element for element, on big-int inputs (beyond float
    precision by construction)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_poly_mul(self, seed):
        rng = random.Random(seed)
        for la, lb in ((1, 1), (3, 40), (40, 3), (25, 30)):
            a = [rng.randrange(10**25) for _ in range(la)]
            b = [rng.randrange(10**25) for _ in range(lb)]
            product = KERNEL.poly_mul(a, b)
            assert product == _convolve(a, b)
            assert all(isinstance(x, int) for x in product)

    def test_complete(self):
        rng = random.Random(7)
        counts = [rng.randrange(10**30) for _ in range(20)]
        for extra in (0, 1, 5, 40):
            assert KERNEL.complete(counts, extra) == _convolve(
                counts, [comb(extra, j) for j in range(extra + 1)])
        with pytest.raises(ValueError):
            KERNEL.complete(counts, -1)

    def test_poly_add(self):
        rng = random.Random(9)
        acc = [rng.randrange(10**25) for _ in range(8)]
        poly = [rng.randrange(10**25) for _ in range(30)]
        expected = [
            (acc[i] if i < len(acc) else 0) + poly[i]
            for i in range(len(poly))
        ]
        assert KERNEL.poly_add(list(acc), poly) == expected
        assert KERNEL.poly_add(None, poly) == list(poly)

    def test_or_accumulate(self):
        rng = random.Random(11)
        children = [
            [rng.randrange(10**20) for _ in range(width)]
            for width in (3, 17, 25)
        ]
        gaps = [22, 8, 0]
        expected = [0] * 25
        for vals, gap in zip(children, gaps):
            for k, count in enumerate(_convolve(
                    vals, [comb(gap, j) for j in range(gap + 1)])):
                expected[k] += count
        assert KERNEL.or_accumulate(24, children, gaps) == expected

    def test_equation3(self):
        rng = random.Random(13)
        pos = [rng.randrange(10**20) for _ in range(12)]
        neg = [rng.randrange(10**20) for _ in range(12)]
        assert KERNEL.equation3(pos, neg, 12) == \
            TestEquation3Bounds._reference(pos, neg, 12)


class TestEquation3Bounds:
    """Regression for the once-duplicated Equation-3 combination:
    shapley_from_counts and the derivative tail now share one kernel
    implementation, exercised here with count vectors shorter and
    longer than ``n``."""

    @staticmethod
    def _reference(pos, neg, n):
        n_fact = factorial(n)
        total = Fraction(0)
        for k in range(n):
            p = pos[k] if k < len(pos) else 0
            m = neg[k] if k < len(neg) else 0
            total += Fraction(
                factorial(k) * factorial(n - k - 1), n_fact
            ) * (p - m)
        return total

    def test_shorter_than_n_zero_pads(self):
        pos, neg, n = [1], [0], 3
        expected = self._reference(pos, neg, n)
        assert shapley_from_counts(pos, neg, n) == expected
        assert expected == Fraction(2, 6)

    def test_mismatched_lengths(self):
        pos, neg, n = [2, 5, 1], [1], 4
        assert shapley_from_counts(pos, neg, n) == \
            self._reference(pos, neg, n)

    def test_longer_than_n_ignores_tail(self):
        # An over-completed vector must not index coefficients past n-1
        # (the legacy derivative tail would have raised IndexError or,
        # worse, silently weighted them).
        pos, neg, n = [1, 2, 3, 4, 5], [0, 1, 0, 9, 9], 3
        assert shapley_from_counts(pos, neg, n) == \
            self._reference(pos, neg, n)

    def test_difference_form_agrees(self):
        pos, neg, n = [3, 7, 2], [1, 2, 8], 3
        diff = [p - m for p, m in zip(pos, neg)]
        assert KERNEL.equation3(diff, None, n) == \
            KERNEL.equation3(pos, neg, n)


class TestGateTape:
    def test_lowering_shares_structure_across_labels(self):
        circuit = circuit_from_nested(("or", "a", ("and", ("not", "a"), "b")))
        tape = compile_tape(circuit)
        renamed = tape.with_labels({"a": "x", "b": "y"})
        assert renamed.ops is tape.ops and renamed.args is tape.args
        assert renamed.var_labels == ["x", "y"]
        assert tape.var_labels == ["a", "b"]

    def test_forward_matches_enumeration(self):
        for seed in range(6):
            ddnnf = _compile(random_monotone_dnf(5, 4, 2, seed))
            counts, nvars = count_models_by_size(ddnnf)
            assert counts == _counts_by_enumeration(ddnnf)
            assert nvars == len(ddnnf.reachable_vars())

    @needs_numpy
    def test_forward_on_both_kernels(self):
        # The interpreted reference and the machine-width forward sweep
        # agree on the root's counts.
        ddnnf = _compile(random_monotone_cnf(6, 5, 3, seed=42))
        counts, nvars = count_models_by_size(ddnnf)
        tape = compile_tape(ddnnf.condition({}))
        plan = plan_for(tape)
        root = plan.forward()[len(tape) - 1]
        assert [int(value) for value in root] == counts

    def test_general_negation_forward(self):
        # NOT above a non-variable gate: complement counting still works
        # in the forward pass (the backward pass requires NNF).
        circuit = Circuit()
        p, q = circuit.var("p"), circuit.var("q")
        circuit.output = circuit.not_(circuit.raw_and((p, q)))
        counts, nvars = count_models_by_size(circuit)
        assert (counts, nvars) == ([1, 2, 0], 2)
        tape = compile_tape(circuit)
        vals = tape.forward()
        with pytest.raises(TapeError, match="NNF"):
            tape.backward_diffs(vals)

    def test_non_decomposable_and_detected(self):
        circuit = Circuit()
        x, y = circuit.var("x"), circuit.var("y")
        circuit.output = circuit.raw_and((x, circuit.raw_and((x, y))))
        with pytest.raises(NotDecomposableError):
            count_models_by_size(circuit)

    def test_complete_counts_delegates_to_kernel(self):
        assert complete_counts([1], 3) == [1, 3, 3, 1]
        assert complete_counts([0, 2, 1], 0) == [0, 2, 1]
        assert complete_counts([1, 1], 2) == [1, 3, 3, 1]

    def test_payload_round_trip(self):
        tape = compile_tape(
            _compile(random_monotone_dnf(5, 4, 3, seed=3)).rename(
                {f"x{i}": i for i in range(5)}
            )
        )
        clone = GateTape.from_payload(tape.to_payload())
        assert clone.ops == tape.ops
        assert clone.args == tape.args
        assert clone.gaps == tape.gaps
        assert clone.nvars == tape.nvars
        assert clone.var_labels == tape.var_labels
        assert clone.source_gates == tape.source_gates
        assert clone.forward()[-1] == tape.forward()[-1]

    @pytest.mark.parametrize("mutate", [
        lambda p: p.pop("ops"),
        lambda p: p["ops"].append(99),
        lambda p: p.__setitem__("ops", p["ops"][:-1]),
        lambda p: p["args"][-1].append(10**6),
        lambda p: p.__setitem__("var_labels", []),
        lambda p: p.__setitem__("source_gates", -1),
        lambda p: p["gaps"].__setitem__(0, [1]),
        # schema-invalid entries (a foreign writer at the same format
        # version) must read as corruption, not crash the store load
        lambda p: p.__setitem__("args", 5),
        lambda p: p.__setitem__("args", [7] * len(p["ops"])),
        lambda p: p.__setitem__("gaps", [3] * len(p["ops"])),
        lambda p: p.__setitem__("nvars", ["a"] * len(p["ops"])),
        lambda p: p.__setitem__("ops", [[1]] * len(p["ops"])),
    ])
    def test_malformed_payloads_raise(self, mutate):
        tape = compile_tape(circuit_from_nested(("or", "a", "b")))
        payload = tape.to_payload()
        mutate(payload)
        with pytest.raises(TapeError):
            GateTape.from_payload(payload)

    def test_empty_payload_rejected(self):
        with pytest.raises(TapeError):
            GateTape.from_payload({
                "ops": [], "args": [], "gaps": [], "nvars": [],
                "var_labels": [], "source_gates": 0,
            })


class TestParitySuite:
    """The headline acceptance check: on seeded small monotone CNFs,
    the derivative sweep, the per-fact conditioning oracle and the
    naive permutation definition return byte-identical Fractions, the
    sweep with and without the machine-width tier."""

    @pytest.mark.parametrize("n_vars,n_clauses,width,seed", PARITY_CASES)
    def test_modes_kernels_and_naive_agree(
        self, n_vars, n_clauses, width, seed, monkeypatch
    ):
        circuit = random_monotone_cnf(n_vars, n_clauses, width, seed)
        players = [f"x{i}" for i in range(n_vars)]
        ddnnf = _compile(circuit)
        naive = shapley_naive(game_from_circuit(circuit), players)
        results = {"per-fact oracle": per_fact_oracle(ddnnf, players)}
        for numpy in (HAS_NUMPY, False):
            monkeypatch.setattr(fixed, "HAS_NUMPY", numpy)
            results[("derivative", numpy)] = shapley_all_facts(
                ddnnf, players)
        for key, values in results.items():
            assert values == naive, key
            for fact in players:
                # byte-identical: same type, numerator, denominator
                assert isinstance(values[fact], Fraction), key
                assert values[fact].numerator == naive[fact].numerator
                assert values[fact].denominator == naive[fact].denominator

    def test_negated_lineage_agrees_across_modes(self):
        # Non-monotone NNF: derivative paths must handle NVAR leaves.
        circuit = circuit_from_nested(
            ("or", ("and", "a", ("not", "b")), ("and", ("not", "a"), "b"))
        )
        players = ["a", "b", "c"]
        ddnnf = _compile(circuit)
        naive = shapley_naive(game_from_circuit(circuit), players)
        assert per_fact_oracle(ddnnf, players) == naive
        assert shapley_all_facts(ddnnf, players) == naive

    def test_prebuilt_tape_path_matches(self):
        ddnnf = _compile(random_monotone_cnf(5, 4, 2, seed=8))
        players = [f"x{i}" for i in range(5)]
        tape = compile_tape(ddnnf.condition({}))
        direct = shapley_all_facts(ddnnf, players)
        via_tape = shapley_all_facts(None, players, tape=tape)
        assert direct == via_tape


class TestTapeArtifacts:
    def test_warm_store_skips_tape_compilation(self, tmp_path):
        from repro.core.pipeline import run_exact

        circuit = random_monotone_dnf(5, 4, 2, seed=5)
        players = sorted(circuit.reachable_vars())
        store = PersistentArtifactStore(tmp_path)
        cold_cache = ArtifactCache(store=store)
        cold = run_exact(circuit, players, cache=cold_cache)
        assert cold.ok
        assert cold_cache.stats.tape_compilations == 1
        assert (len([e for e in store.entries() if e.kind == "tape"])) == 1

        warm_cache = ArtifactCache(store=PersistentArtifactStore(tmp_path))
        warm = run_exact(circuit, players, cache=warm_cache)
        assert warm.ok
        assert warm_cache.stats.tape_compilations == 0
        assert warm_cache.stats.compile_calls == 0
        assert warm.values == cold.values
        # provenance stats survive the tape-only warm path
        assert warm.stats.ddnnf_size == cold.stats.ddnnf_size

    def test_in_memory_hits_share_one_tape(self):
        from repro.core.pipeline import run_exact

        cache = ArtifactCache()
        circuit = random_monotone_dnf(5, 4, 2, seed=6)
        players = sorted(circuit.reachable_vars())
        first = run_exact(circuit, players, cache=cache)
        renamed = circuit.rename(
            {label: f"y{label}" for label in players}
        )
        second = run_exact(
            renamed, sorted(renamed.reachable_vars()), cache=cache
        )
        assert cache.stats.tape_compilations == 1
        assert cache.stats.tape_hits == 1
        assert first.ok and second.ok
        assert {f"y{k}": v for k, v in first.values.items()} == second.values

    def test_corrupt_tape_artifact_recovers(self, tmp_path):
        from repro.core.pipeline import run_exact

        circuit = random_monotone_dnf(4, 3, 2, seed=7)
        players = sorted(circuit.reachable_vars())
        store = PersistentArtifactStore(tmp_path)
        cold = run_exact(circuit, players, cache=ArtifactCache(store=store))
        tape_files = [e.path for e in store.entries() if e.kind == "tape"]
        assert len(tape_files) == 1
        blob = tape_files[0].read_bytes()
        tape_files[0].write_bytes(blob[: len(blob) - 12])  # torn write

        fresh_store = PersistentArtifactStore(tmp_path)
        cache = ArtifactCache(store=fresh_store)
        warm = run_exact(circuit, players, cache=cache)
        assert warm.ok and warm.values == cold.values
        assert fresh_store.stats.corruptions == 1
        assert cache.stats.tape_compilations == 1  # re-lowered from d-DNNF
        assert cache.stats.compile_calls == 0  # ... without recompiling

    def test_session_matches_the_per_fact_oracle(self):
        db = join_database(2, 2)
        cache = ArtifactCache()
        with ExplainSession(db, method="exact", cache=cache) as session:
            results = session.explain_many(JOIN_QUERY)
        assert {a: r.values for a, r in results.items()} == \
            oracle_each_answer(db, JOIN_QUERY)
        assert cache.stats.tape_compilations == 1


@pytest.fixture
def fleet(tmp_path):
    """A live coordinator with two in-thread workers sharing a store."""
    coordinator = Coordinator().start()
    store_dir = str(tmp_path / "fleet-store")
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
    yield coordinator
    coordinator.shutdown()
    for thread in threads:
        thread.join(timeout=10)


class TestTransportKernelParity:
    def test_identical_fractions_across_transports_and_kernels(
        self, fleet, monkeypatch
    ):
        # The machine-width tier and the interpreted reference pass
        # (NumPy patched away for this process, its forked pool
        # children and the in-thread fleet workers) on every transport.
        db = join_database(6, 2)
        monkeypatch.setattr(fixed, "HAS_NUMPY", False)
        baseline = ExplainSession(db, method="exact").explain_many(JOIN_QUERY)
        expected = {a: r.values for a, r in baseline.items()}
        for backend in ("reference", "machine-width"):
            if backend == "machine-width":
                monkeypatch.undo()
            with ExplainSession(
                db, method="exact", max_workers=2,
                coordinator=fleet.address, min_workers=2,
            ) as session:
                for executor in ("thread", "process", "socket"):
                    results = session.explain_many(
                        JOIN_QUERY, executor=executor
                    )
                    got = {a: r.values for a, r in results.items()}
                    assert got == expected, (backend, executor)
                    for values in got.values():
                        assert all(
                            type(v) is Fraction for v in values.values()
                        ), (backend, executor)


def _disjoint_monotone_cnf(n_clauses: int, width: int, seed: int) -> Circuit:
    """A randomized monotone CNF whose clauses partition a shuffled
    variable set: the model count is exactly ``(2^width - 1)^n_clauses``
    while compilation stays trivial, which lets the tests engineer
    counts that straddle any machine-width boundary."""
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(n_clauses * width)]
    rng.shuffle(labels)
    circuit = Circuit()
    clauses = []
    for index in range(n_clauses):
        block = labels[index * width:(index + 1) * width]
        clauses.append(circuit.or_([circuit.var(label) for label in block]))
    circuit.output = circuit.and_(clauses)
    return circuit


def _random_decomposable_tape(
    rng: random.Random, n_vars: int, extra_bits: int
) -> GateTape:
    """A random decomposable NNF tape over ``n_vars`` variables.

    ANDs split their variables among disjoint children; ORs either
    split them too (every child then has a gap) or repeat one child
    over the same variables (non-deterministic, which multiplies the
    magnitude bounds without adding variables).  The root is topped by
    a chain of repeat-ORs adding at least ``extra_bits`` bits, so the
    bounds reach as many residue planes as a test asks for while the
    interpreted reference stays cheap.
    """
    ops: list[int] = []
    args: list[tuple[int, ...]] = []
    gaps: list[tuple[int, ...] | None] = []
    nvars: list[int] = []

    def emit(op, arg, gap, nv):
        ops.append(op)
        args.append(tuple(arg))
        gaps.append(gap)
        nvars.append(nv)
        return len(ops) - 1

    def repeat(child, nv):
        copies = rng.randint(2, 16)
        return emit(OP_OR, [child] * copies, (0,) * copies, nv), copies

    def build(slots):
        if len(slots) == 1 and rng.random() < 0.6:
            op = OP_NVAR if rng.random() < 0.3 else OP_VAR
            return emit(op, (slots[0],), None, 1)
        kind = rng.random()
        if len(slots) == 1 or kind < 0.2:
            return repeat(build(slots), len(slots))[0]
        k = rng.randint(2, min(4, len(slots)))
        cuts = sorted(rng.sample(range(1, len(slots)), k - 1))
        parts = [slots[a:b] for a, b in zip((0, *cuts), (*cuts, len(slots)))]
        children = [build(part) for part in parts]
        if kind < 0.6:
            return emit(OP_AND, children, None, len(slots))
        return emit(OP_OR, children,
                    tuple(len(slots) - len(part) for part in parts),
                    len(slots))

    root = build(list(range(n_vars)))
    added = 0
    while added < extra_bits:
        root, copies = repeat(root, n_vars)
        added += copies.bit_length() - 1
    return GateTape(ops, args, gaps, nvars,
                    [f"x{i}" for i in range(n_vars)], len(ops))


class TestTapePayloadV2:
    """The leveled tape payload format: v2 carries levels + bounds,
    v1 payloads re-lower transparently, malformed analyses read as
    corruption."""

    def _tape(self, seed: int = 3) -> GateTape:
        return compile_tape(_compile(random_monotone_cnf(5, 4, 2, seed)))

    def test_v2_payload_carries_levels_and_bounds(self):
        tape = self._tape()
        payload = tape.to_payload()
        assert payload["format"] == GateTape.PAYLOAD_FORMAT == 2
        assert payload["levels"] == tape.level_schedule()
        forward_bits, backward_bits, diff_bits = tape.bound_bits()
        assert payload["bounds"] == {
            "forward_bits": forward_bits,
            "backward_bits": backward_bits,
            "diff_bits": diff_bits,
        }
        clone = GateTape.from_payload(payload)
        assert clone.level_schedule() == tape.level_schedule()
        assert clone.bound_bits() == tape.bound_bits()

    def test_level_schedule_is_topological(self):
        tape = self._tape(seed=5)
        levels = tape.level_schedule()
        for i, op in enumerate(tape.ops):
            if op not in (0, 1, 2, 3):  # non-leaf opcodes
                for child in tape.args[i]:
                    assert levels[child] < levels[i]

    def test_v1_payload_relowers_on_load(self):
        tape = self._tape(seed=7)
        v1 = {
            key: value for key, value in tape.to_payload().items()
            if key not in ("format", "levels", "bounds")
        }
        clone = GateTape.from_payload(v1)
        # re-lowered: the analysis is recomputed, not lost
        assert clone.level_schedule() == tape.level_schedule()
        assert clone.bound_bits() == tape.bound_bits()
        # and a re-serialization upgrades the artifact to v2
        assert clone.to_payload()["format"] == 2
        assert clone.forward() == tape.forward()

    @pytest.mark.parametrize("mutate", [
        lambda p: p.__setitem__("levels", p["levels"][:-1]),
        lambda p: p["levels"].__setitem__(-1, 0),  # root below children
        lambda p: p.__setitem__("levels", ["x"] * len(p["levels"])),
        lambda p: p.__setitem__("levels", [-1] * len(p["levels"])),
        lambda p: p["bounds"].pop("forward_bits"),
        lambda p: p["bounds"].__setitem__("diff_bits", -2),
        lambda p: p["bounds"].__setitem__("backward_bits", "big"),
        lambda p: p.__setitem__("bounds", 7),
    ])
    def test_malformed_analysis_reads_as_corruption(self, mutate):
        payload = compile_tape(
            circuit_from_nested(("or", "a", ("and", "b", "c")))
        ).to_payload()
        mutate(payload)
        with pytest.raises(TapeError):
            GateTape.from_payload(payload)

    def test_store_roundtrip_preserves_the_analysis(self, tmp_path):
        store = PersistentArtifactStore(tmp_path)
        tape = compile_tape(
            _compile(random_monotone_dnf(5, 4, 3, seed=3)).rename(
                {f"x{i}": i for i in range(5)}
            )
        )
        signature = ((0, 1), (1, 2))
        store.store_tape(signature, tape)
        loaded = store.load_tape(signature)
        assert loaded is not None
        assert loaded.level_schedule() == tape.level_schedule()
        assert loaded.bound_bits() == tape.bound_bits()

    def test_with_labels_shares_the_analysis_box(self):
        tape = self._tape(seed=9)
        levels = tape.level_schedule()
        renamed = tape.with_labels({label: (label, "renamed")
                                    for label in tape.var_labels})
        assert renamed.level_schedule() is levels
        assert renamed.bound_bits() == tape.bound_bits()


class TestMachineWidthFastpath:
    """The level-scheduled tape execution tier: arithmetic selection by
    a-priori bounds (float64 / int64 / CRT residue planes, as many as
    the bounds need), and byte-identical Fractions throughout."""

    @staticmethod
    def _reference_diffs(tape):
        diffs = tape.backward_diffs(tape.forward())
        return {slot: [int(v) for v in row] for slot, row in diffs.items()
                if any(row)}

    @staticmethod
    def _assert_same_diffs(fast, reference):
        assert fast is not None
        assert set(fast) == set(reference)
        for slot, row in reference.items():
            got = fast[slot]
            assert got[:len(row)] == row
            assert not any(got[len(row):])

    def test_numpy_falls_back_gracefully_when_missing(self, monkeypatch):
        monkeypatch.setattr(fixed, "HAS_NUMPY", False)
        circuit = random_monotone_cnf(5, 4, 2, seed=3)
        players = [f"x{i}" for i in range(5)]
        stats = FastpathStats()
        values = shapley_all_facts(
            _compile(circuit), players, fastpath_stats=stats)
        assert values == shapley_naive(game_from_circuit(circuit), players)
        assert stats.hits == 0 and stats.ineligible == 1

    @needs_numpy
    def test_tier_selection_by_bounds(self):
        import numpy as np

        small = plan_for(compile_tape(
            _compile(_disjoint_monotone_cnf(12, 3, seed=0))))
        assert small is not None and small.moduli is None
        assert small.dtype == np.float64

        mid = plan_for(compile_tape(
            _compile(_disjoint_monotone_cnf(20, 3, seed=0))))
        assert mid is not None and mid.moduli is None
        assert mid.dtype == np.int64
        assert 52 < mid.bound_bits <= 62

        wide = plan_for(compile_tape(
            _compile(_disjoint_monotone_cnf(23, 3, seed=0))))
        assert wide is not None and wide.moduli is not None
        assert wide.dtype == np.int32
        assert wide.bound_bits > 63
        product = 1
        for prime in wide.moduli:
            product *= prime
        assert product > (1 << (wide.bound_bits + 1))

    @needs_numpy
    @pytest.mark.parametrize("n_clauses,width,seed", [
        (12, 3, 0), (12, 3, 1),   # float64 tier
        (20, 3, 0), (21, 3, 1),   # int64 tier
        (23, 3, 0), (23, 3, 1), (17, 4, 2),  # CRT tier (straddles 2^63)
    ])
    def test_fastpath_matches_reference_across_tiers(
        self, n_clauses, width, seed
    ):
        tape = compile_tape(
            _compile(_disjoint_monotone_cnf(n_clauses, width, seed)))
        self._assert_same_diffs(
            plan_for(tape).execute(), self._reference_diffs(tape))

    @needs_numpy
    @pytest.mark.parametrize("extra_bits", [0, 40, 90, 120, 150, 200])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_vars=st.integers(1, 24))
    @example(seed=0, n_vars=1)
    def test_random_tapes_match_the_reference_on_every_plane_count(
        self, extra_bits, seed, n_vars
    ):
        # From one native sweep up to seven residue planes: the
        # machine-width diffs equal the interpreted reference's.
        tape = _random_decomposable_tape(
            random.Random(seed), n_vars, extra_bits)
        plan = plan_for(tape)
        planes = len(plan.moduli) if plan.moduli else 1
        if extra_bits == 0 and n_vars == 1:
            assert planes == 1
        if extra_bits == 200:
            assert planes >= 6
        self._assert_same_diffs(plan.execute(), self._reference_diffs(tape))

    @needs_numpy
    def test_crt_planes_stream_through_one_int32_buffer(self):
        # A 5-plane shape: the sweeps hold one plane's int32 vals and
        # ders at a time (the residue planes used to be stacked in
        # int64: 10 int64 buffers, 20x one int32 buffer, resident).
        tape = compile_tape(_compile(_disjoint_monotone_cnf(45, 3, seed=0)))
        plan = plan_for(tape)
        assert plan.tier_name == "crt" and len(plan.moduli) == 5
        reference = plan.execute()  # warm the plan's coefficient cache
        buffer_bytes = plan.n_slots * plan.width * 4
        tracemalloc.start()
        try:
            diffs = plan.execute()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diffs == reference
        assert peak < 10 * buffer_bytes

    @needs_numpy
    def test_negated_lineage_on_the_fastpath(self):
        circuit = circuit_from_nested(
            ("or", ("and", "a", ("not", "b")), ("and", ("not", "a"), "b"))
        )
        tape = compile_tape(_compile(circuit))
        self._assert_same_diffs(
            plan_for(tape).execute(), self._reference_diffs(tape))

    @needs_numpy
    def test_wide_bounds_take_more_residue_planes(self, monkeypatch):
        # ~141 bits of magnitude: beyond five 28-bit primes, so the
        # bounds ask for a sixth plane instead of a fallback, and the
        # Fractions match the interpreted pass.
        circuit = _disjoint_monotone_cnf(50, 3, seed=4)
        ddnnf = _compile(circuit)
        players = sorted(ddnnf.reachable_vars(), key=repr)
        tape = compile_tape(ddnnf)
        plan = plan_for(tape)
        assert plan.tier_name == "crt" and len(plan.moduli) == 6
        stats = FastpathStats()
        fast = shapley_all_facts(
            ddnnf, players, tape=tape, fastpath_stats=stats)
        assert stats.hits == 1 and stats.fallbacks == 0
        monkeypatch.setattr(fixed, "HAS_NUMPY", False)
        reference = shapley_all_facts(ddnnf, players, tape=tape)
        assert fast == reference
        for value in fast.values():
            assert type(value) is Fraction

    def test_crt_moduli_cover_twice_the_bound(self):
        for bits, width in ((63, 3), (141, 3), (200, 117), (1000, 40)):
            primes = fixed.crt_moduli(bits, width)
            assert len(set(primes)) == len(primes)
            product = 1
            for prime in primes:
                # residues fit int32, and a width-long row of residue
                # products cannot wrap int64
                assert prime < 1 << 31
                assert width * (prime - 1) ** 2 < 1 << 63
                assert prime % 2 and all(
                    prime % d for d in range(3, isqrt(prime) + 1, 2))
                product *= prime
            assert product >> (bits + 1)
            # minimal: one plane fewer would not certify the bound
            assert not (product // primes[-1]) >> (bits + 1)
        assert fixed.crt_moduli(141, 3) == fixed.crt_moduli(141, 3)

    @needs_numpy
    @pytest.mark.parametrize("n_clauses,seed", [(23, 0), (23, 5), (24, 1)])
    def test_straddling_2_63_stays_byte_identical(self, n_clauses, seed):
        tape = compile_tape(
            _compile(_disjoint_monotone_cnf(n_clauses, 3, seed)))
        forward_bits, _, _ = tape.bound_bits()
        assert forward_bits > 63  # engineered to straddle int64
        plan = plan_for(tape)
        assert plan.tier_name == "crt"
        self._assert_same_diffs(plan.execute(), self._reference_diffs(tape))

    def test_general_negation_is_ineligible(self):
        circuit = Circuit()
        p, q = circuit.var("p"), circuit.var("q")
        circuit.output = circuit.not_(circuit.raw_and((p, q)))
        tape = compile_tape(circuit)
        assert plan_for(tape) is None

    def test_unavailable_without_numpy(self, monkeypatch):
        monkeypatch.setattr(fixed, "HAS_NUMPY", False)
        tape = compile_tape(_compile(random_monotone_cnf(5, 4, 2, seed=1)))
        stats = FastpathStats()
        assert fastpath_diffs(tape, stats) is None
        assert stats.fallbacks == 1

    @needs_numpy
    def test_plan_is_cached_across_retargets(self):
        tape = compile_tape(_compile(random_monotone_cnf(6, 5, 3, seed=2)))
        plan = plan_for(tape)
        renamed = tape.with_labels({label: (label, 2)
                                    for label in tape.var_labels})
        assert plan_for(renamed) is plan

    @needs_numpy
    def test_small_shapes_run_interpreted(self):
        # Per-level NumPy dispatch outweighs a tiny shape's arithmetic:
        # the plan exists but declines, and the decline is counted.
        tape = compile_tape(_compile(_disjoint_monotone_cnf(4, 2, seed=1)))
        plan = plan_for(tape)
        assert plan is not None and not plan.pays_off
        stats = FastpathStats()
        assert fastpath_diffs(tape, stats) is None
        assert stats.small == 1 and stats.fallbacks == 1
        assert stats.hits == 0 and stats.tiers == {}
        big = compile_tape(_compile(_disjoint_monotone_cnf(20, 3, seed=0)))
        assert plan_for(big).pays_off

    @needs_numpy
    def test_provably_small_shapes_build_no_plan(self, monkeypatch):
        # A shape whose interpreted cost is at most LEVEL_COST cannot
        # pay off on any plan (at least one level, one plane): it is
        # refused as small without constructing a LevelPlan.
        built = []
        real_init = fixed.LevelPlan.__init__

        def counting(plan, tape):
            built.append(tape)
            real_init(plan, tape)

        monkeypatch.setattr(fixed.LevelPlan, "__init__", counting)
        circuit = _compile(_disjoint_monotone_cnf(4, 2, seed=1))
        tape = compile_tape(circuit)
        assert fixed._small_without_plan(tape)
        players = sorted(circuit.reachable_vars())
        stats = FastpathStats()
        values = shapley_all_facts(
            circuit, players, tape=tape, fastpath_stats=stats)
        assert built == []
        assert tape._analysis["plan"] == (None, "small")
        assert stats.small == 1 and stats.fallbacks == 1
        monkeypatch.setattr(fixed, "HAS_NUMPY", False)
        interpreted = shapley_all_facts(
            circuit, players, tape=compile_tape(circuit))
        assert list(values.items()) == list(interpreted.items())
        # a shape above the bound still plans, and the plan decides
        monkeypatch.setattr(fixed, "HAS_NUMPY", True)
        big = compile_tape(_compile(_disjoint_monotone_cnf(20, 3, seed=0)))
        assert not fixed._small_without_plan(big)
        assert fastpath_diffs(big, FastpathStats()) is not None
        assert len(built) == 1

    @needs_numpy
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n_vars=st.integers(1, 24),
           extra_bits=st.sampled_from([0, 40, 70]))
    def test_small_bound_never_contradicts_the_plan(
        self, seed, n_vars, extra_bits
    ):
        # the plan-free bound is sound: the plan has at least the levels
        # it assumes, and a shape it calls small is one the plan would
        # accept and find not paying off
        tape = _random_decomposable_tape(
            random.Random(seed), n_vars, extra_bits)
        small = fixed._small_without_plan(tape)
        plan = fixed.LevelPlan(tape)
        assert fixed._min_levels(tape) <= plan.n_levels
        if small:
            assert not plan.pays_off

    @needs_numpy
    def test_session_reports_fastpath_counters(self, monkeypatch):
        db = join_database(4, 16)
        with ExplainSession(db, method="exact") as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert stats["fastpath_hits"] == len(results)
        assert stats["fastpath_fallbacks"] == 0
        monkeypatch.setattr(fixed, "HAS_NUMPY", False)
        with ExplainSession(db, method="exact") as baseline_session:
            baseline = baseline_session.explain_many(JOIN_QUERY)
            assert baseline_session.stats["fastpath_hits"] == 0
        assert {a: r.values for a, r in results.items()} == \
            {a: r.values for a, r in baseline.items()}


class TestWithoutNumpy:
    def test_default_explain_many_matches_and_counts_every_fallback(
        self, monkeypatch
    ):
        db = join_database(4, 2)
        with ExplainSession(db, method="exact") as session:
            default = session.explain_many(JOIN_QUERY)
        monkeypatch.setattr(fixed, "HAS_NUMPY", False)
        with ExplainSession(db, method="exact") as session:
            results = session.explain_many(JOIN_QUERY)
            stats = session.stats
        assert {a: r.values for a, r in results.items()} == \
            {a: r.values for a, r in default.items()}
        assert stats["fastpath_hits"] == 0
        assert stats["fastpath_fallbacks"] == len(results)
        assert stats["fastpath_ineligible_fallbacks"] == len(results)


class TestCoefficientsCacheInfo:
    def test_bounded_cache_reports_hits_and_size(self):
        before = coefficients_cache_info()
        assert before["shapley_coefficients_cache_maxsize"] == 256
        shapley_coefficients(33)
        shapley_coefficients(33)
        KERNEL.equation3([1, 2, 3], None, 33)
        after = coefficients_cache_info()
        assert after["shapley_coefficients_cache_hits"] > \
            before["shapley_coefficients_cache_hits"]
        assert 0 < after["shapley_coefficients_cache_size"] <= 256


class TestFastpathRobustness:
    """Review regressions: stored-payload metadata must never weaken
    the machine-width tier's soundness, and odd-but-valid tapes must
    fall through gracefully instead of crashing."""

    @needs_numpy
    def test_understated_payload_bounds_cannot_arm_unsound_arithmetic(self):
        # A (buggy or foreign) writer understating `bounds` must not be
        # able to select a tier the shape overflows: the plan re-derives
        # its certificate from the instruction arrays.
        honest_tape = compile_tape(
            _compile(_disjoint_monotone_cnf(23, 3, seed=3)))
        payload = honest_tape.to_payload()
        payload["bounds"] = {
            "forward_bits": 8, "backward_bits": 8, "diff_bits": 8,
        }
        lying_tape = GateTape.from_payload(payload)
        plan = plan_for(lying_tape)
        assert plan is not None
        assert plan.bound_bits == max(honest_tape.bound_bits())
        assert plan.bound_bits > 63  # not fooled into a native tier
        TestMachineWidthFastpath._assert_same_diffs(
            plan.execute(),
            TestMachineWidthFastpath._reference_diffs(honest_tape))

    @needs_numpy
    def test_loaded_v2_schedule_is_consumed_and_exact(self):
        ddnnf = _compile(random_monotone_cnf(6, 5, 3, seed=4))
        fresh = compile_tape(ddnnf)
        loaded = GateTape.from_payload(fresh.to_payload())
        assert loaded._analysis["levels"] == fresh.level_schedule()
        fast = plan_for(loaded).execute()
        reference = plan_for(fresh).execute()
        assert fast == reference
        assert fast is not None

    @needs_numpy
    def test_empty_and_instruction_takes_the_fast_path(self):
        # ops=[AND] with no children is schema-valid and evaluates to
        # the constant polynomial [1] on the interpreted pass; the plan
        # must treat it the same way instead of crashing.
        tape = GateTape.from_payload({
            "ops": [4], "args": [[]], "gaps": [None], "nvars": [0],
            "var_labels": [], "source_gates": 1,
        })
        assert tape.forward() == [[1]]
        plan = plan_for(tape)
        assert plan is not None
        assert plan.execute() == {}

    @needs_numpy
    def test_oversized_buffers_decline_the_fast_path(self, monkeypatch):
        monkeypatch.setattr(fixed, "MAX_BUFFER_ELEMENTS", 16)
        tape = compile_tape(_compile(random_monotone_cnf(6, 5, 3, seed=6)))
        stats = FastpathStats()
        assert fastpath_diffs(tape, stats) is None
        assert stats.fallbacks == 1
