"""End-to-end benchmark of ``ExplainSession.explain_many``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Load is closed-loop: one client issues one ``explain_many``
at a time and waits for it.  A run repeats *cycles*.  Each cycle is:

1. set-up: generate the database, then open a session, whose socket
   fleet (if any) has registered (``setup_s``);
2. a cold pass over the workload's queries on that fresh session, cache,
   store, pool and fleet (``cold_s``);
3. a warm pass repeating the same requests on the same session
   (``warm_s``).

Cycles repeat until their timed passes add up to ``--seconds`` and
number at least ``Workload.min_cycles`` (with ``--trace 1``, at least
``2 * MIN_TRACED_CYCLES``).  Before them the run generates the
database and extracts every query's lineage, to build the requests;
that warms imports and the page cache.  Each time is
converted to reference seconds by the host-speed probe
(``hostspeed.py``), and each metric is the median over the run's
cycles.  Correctness is checked outside the timed passes (see
``check.py``).  With ``--trace 1`` every other cycle, starting with the
second, runs with the layer wrappers of ``spans.py`` installed; those
cycles give the per-layer metrics, the others the tracing overhead.
The last line of standard output is the result object; the line before
it holds metadata (digest, fail share, wall and reference times,
tracing overhead, not-applicable layers, environment).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: No run may take longer than this; a cycle that would end past it is
#: not started.
RUN_CAP_SECONDS = 150.0

#: Traced cycles a ``--trace 1`` run makes at least: one traced pass now
#: and then has a collection or a slow spell outside every span, and the
#: median of three leaves it out.
MIN_TRACED_CYCLES = 3

#: Layers whose top-level spans partition the caller thread's wall time.
CALLER_LAYERS = (
    "db.query_eval",
    "db.lineage_extract",
    "engine.cache.canonicalize",
    "engine.scheduler.plan",
    "engine.service.batch",
)

#: Layers that also run in pool threads, pool processes or socket
#: workers: busy seconds summed over all of them.
BUSY_LAYERS = (
    "engine.cache.tseytin",
    "compiler.compile",
    "compiler.component_compile",
    "compiler.stitch",
    "core.numerics.tape_lower",
    "core.shapley.alg1",
    "core.numerics.combine",
    "engine.store.read",
    "engine.store.write",
)

#: Cache counters read from ``session.stats`` (plus ``remote_*`` on the
#: socket), as per-pass deltas.
STAT_KEYS = (
    "tape_hits", "tape_misses", "component_hits", "component_misses",
    "fastpath_hits", "fastpath_fallbacks", "fastpath_ineligible_fallbacks",
)

#: Per-pass layer metrics and their units.
LAYER_UNITS = {
    **{f"{layer}.s": "s" for layer in CALLER_LAYERS},
    "db.lineage_extract.calls": "count",
    "unattributed.s": "s",
    **{f"{layer}.s": "busy_s" for layer in BUSY_LAYERS},
    "engine.cache.tape_hit_ratio": "ratio",
    "engine.scheduler.shapes": "count",
    "compiler.component_compiles": "count",
    "compiler.component_hit_ratio": "ratio",
    "core.shapley.fastpath_ratio": "ratio",
    "core.shapley.ineligible_fallbacks": "count",
    "engine.service.wire.frames": "count",
    "engine.service.wire.bytes": "bytes",
    "engine.store.write_bytes": "bytes",
}

#: Hit ratios: (hits, misses) counters of each.
RATIOS = {
    "engine.cache.tape_hit_ratio": ("tape_hits", "tape_misses"),
    "compiler.component_hit_ratio": ("component_hits", "component_misses"),
    "core.shapley.fastpath_ratio": ("fastpath_hits", "fastpath_fallbacks"),
}

PASSES = ("cold", "warm")


@dataclass
class Pass:
    started: float
    wall: float
    results: dict | None
    layers: dict | None = None
    counters: Counter | None = None
    #: ``wall`` in reference seconds.
    seconds: float = 0.0


@dataclass
class Cycle:
    setup_wall: float
    passes: dict
    traced: bool
    #: Span targets the program no longer has (traced cycles only).
    missing: tuple = ()
    #: ``setup_wall`` in reference seconds.
    setup: float = 0.0


def _counters(session) -> Counter:
    stats = session.stats
    out = Counter({key: stats.get(key, 0) + stats.get(f"remote_{key}", 0)
                   for key in STAT_KEYS})
    out["shapes"] = stats["unique_shapes"]
    return out


def _layers(wall: float, own: dict, children: dict, delta: Counter) -> dict:
    busy = own["busy"] + children["busy"]
    calls = own["calls"] + children["calls"]
    counts = own["counts"] + children["counts"]
    top = own["top"]
    layers = {f"{layer}.s": top[layer] for layer in CALLER_LAYERS}
    layers["db.lineage_extract.calls"] = own["calls"]["db.lineage_extract"]
    layers["unattributed.s"] = wall - sum(top.values())
    layers.update({f"{layer}.s": busy[layer] for layer in BUSY_LAYERS})
    for name, (hits, misses) in RATIOS.items():
        whole = delta[hits] + delta[misses]
        layers[name] = delta[hits] / whole if whole else 0.0
    layers["engine.scheduler.shapes"] = delta["shapes"]
    layers["compiler.component_compiles"] = calls["compiler.component_compile"]
    layers["core.shapley.ineligible_fallbacks"] = (
        delta["fastpath_ineligible_fallbacks"])
    for name in ("engine.service.wire.frames", "engine.service.wire.bytes",
                 "engine.store.write_bytes"):
        layers[name] = counts[name]
    return layers


def _run_pass(session, requests, recorder) -> Pass:
    if recorder is not None:
        recorder.drain()  # set-up spans are not this pass's
        recorder.collect_children()
        before = _counters(session)
    results = {}
    started = time.perf_counter()
    for name, sql, answers in requests:
        for answer, result in session.explain_many(sql, answers=answers).items():
            results[(name, answer)] = result
    wall = time.perf_counter() - started
    if recorder is None:
        return Pass(started, wall, results)
    own = recorder.drain()
    children = recorder.collect_children()
    delta = _counters(session) - before
    return Pass(started, wall, results,
                _layers(wall, own, children, delta), delta)


def _run_cycle(workload, requests, directory: Path, traced: bool, speed):
    from spans import Recorder, install, uninstall
    from workloads import open_session

    directory.mkdir()
    recorder = patches = trace_dir = None
    if traced:
        trace_dir = directory / "trace"
        trace_dir.mkdir()
        recorder = Recorder(trace_dir)
        recorder.caller = threading.get_ident()
        patches = install(recorder)
    try:
        started = time.perf_counter()
        db = workload.database()
        with open_session(workload, db, directory, trace_dir) as session:
            setup = time.perf_counter() - started
            passes = {name: _run_pass(session, requests, recorder)
                      for name in PASSES}
    finally:
        if patches is not None:
            uninstall(patches)
        shutil.rmtree(directory, ignore_errors=True)
    missing = tuple(patches.missing) if patches is not None else ()
    cycle = Cycle(setup, passes, traced, missing)
    cycle.setup = speed.normalise(setup, started, started + setup)
    for pass_ in passes.values():
        pass_.seconds = speed.normalise(pass_.wall, pass_.started,
                                        pass_.started + pass_.wall)
    return cycle, db


def _requests(workload, seed: int):
    """The seeded request list: queries and their answers in a
    seed-dependent order (inputs, not program state)."""
    import check

    rng = random.Random(seed)
    extracted = check.lineages(workload, workload.database())
    names = list(workload.queries)
    rng.shuffle(names)
    requests = []
    for name in names:
        answers = extracted[name].tuples()
        rng.shuffle(answers)
        requests.append((name, workload.sql(name), answers))
    return requests


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    src_lines = sum(
        len(path.read_bytes().splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "torch": importlib.util.find_spec("torch") is not None,
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def _not_applicable(workload, traced: list[Cycle]) -> dict:
    """Per-layer metrics that measure nothing on this workload, and why."""
    static = {}
    if workload.transport != "socket":
        for name in ("engine.service.wire.frames", "engine.service.wire.bytes"):
            static[name] = f"the {workload.transport} transport sends no frames"
    if workload.transport == "thread":
        for name in ("engine.store.read.s", "engine.store.write.s",
                     "engine.store.write_bytes"):
            static[name] = "the thread transport runs without a store"
    reasons = {}
    for pass_name in PASSES:
        for name, why in static.items():
            reasons[f"{pass_name}.{name}"] = why
        for name, (hits, misses) in RATIOS.items():
            if all(c.passes[pass_name].counters[hits]
                   + c.passes[pass_name].counters[misses] == 0
                   for c in traced):
                reasons[f"{pass_name}.{name}"] = (
                    f"no {hits} or {misses} in this pass (0/0)")
    return reasons


def run(workload, seed: int, seconds: float, trace: bool, scratch: Path):
    from hostspeed import HostSpeed

    with HostSpeed(scratch) as speed:
        speed.wait_ready()
        return _run(workload, seed, seconds, trace, scratch, speed)


def _run(workload, seed, seconds, trace, scratch, speed):
    import check
    from workloads import EXPECTED_DIGESTS

    requests = _requests(workload, seed)
    min_cycles = workload.min_cycles
    if trace:
        min_cycles = max(min_cycles, 2 * MIN_TRACED_CYCLES)
    began = time.perf_counter()
    cycles: list[Cycle] = []
    reference = None
    digests = set()
    attempted = failed = 0
    longest = 0.0
    while True:
        gc.collect()  # every cycle starts from a heap without garbage
        cycle_started = time.perf_counter()
        traced = trace and len(cycles) % 2 == 1
        cycle, db = _run_cycle(workload, requests,
                               scratch / f"cycle-{len(cycles)}", traced, speed)
        for pass_ in cycle.passes.values():
            if reference is None:
                wrong = check.verify(workload, db, pass_.results)
                reference = {key: result.values
                             for key, result in pass_.results.items()}
            else:
                wrong = check.compare(pass_.results, reference)
            attempted += len(pass_.results)
            failed += len(wrong)
            digests.add(check.digest(pass_.results))
            pass_.results = None  # checked; later cycles need not keep it
        del db
        cycles.append(cycle)
        print(f"perfbench: cycle {len(cycles)} traced={traced} wall "
              f"setup={cycle.setup_wall:.3f}s "
              + " ".join(f"{n}={p.wall:.3f}s" for n, p in cycle.passes.items())
              + f"; reference setup={cycle.setup:.3f}s "
              + " ".join(f"{n}={p.seconds:.3f}s"
                         for n, p in cycle.passes.items())
              + f"; total={time.perf_counter() - cycle_started:.1f}s",
              file=sys.stderr, flush=True)
        longest = max(longest, time.perf_counter() - cycle_started)
        measured = sum(p.wall for c in cycles for p in c.passes.values())
        if measured >= seconds and len(cycles) >= min_cycles:
            break
        if time.perf_counter() - began + longest > RUN_CAP_SECONDS:
            break

    untraced = [c for c in cycles if not c.traced]
    traced = [c for c in cycles if c.traced]
    if trace and not traced:
        raise RuntimeError("the run ended before a traced cycle")
    expected = EXPECTED_DIGESTS[workload.name]
    digest_ok = digests == {expected}
    if trace:
        metrics = {}
        for pass_name in PASSES:
            for name, unit in LAYER_UNITS.items():
                value = statistics.median(
                    c.passes[pass_name].layers[name] for c in traced)
                metrics[f"{pass_name}.{name}"] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": statistics.median(c.setup for c in untraced),
            "cold_s": statistics.median(
                c.passes["cold"].seconds for c in untraced),
            "warm_s": statistics.median(
                c.passes["warm"].seconds for c in untraced),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
                 "peak_rss_mb": "MB"}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in metrics.items()}

    def total(c: Cycle) -> float:
        return sum(p.seconds for p in c.passes.values())

    meta = {
        "workload": workload.name,
        "seed": seed,
        "cycles": len(untraced),
        "traced_cycles": len(traced),
        "answers_per_pass": len(reference),
        "digest": sorted(digests),
        "expected_digest": expected,
        "fail_frac": failed / attempted,
        "per_cycle": [
            {"traced": c.traced,
             "setup_s": c.setup, "setup_wall_s": c.setup_wall,
             **{f"{name}_s": p.seconds for name, p in c.passes.items()},
             **{f"{name}_wall_s": p.wall for name, p in c.passes.items()}}
            for c in cycles
        ],
        "environment": _environment(),
    }
    if trace:
        meta["tracing_overhead"] = (
            statistics.median(map(total, traced))
            / statistics.median(map(total, untraced)) - 1.0)
        meta["not_applicable"] = _not_applicable(workload, traced)
        meta["missing_span_targets"] = sorted(
            {name for c in traced for name in c.missing})
    result = {
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return meta, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        meta, result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
