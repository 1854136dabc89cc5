"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Generate a benchmark database (tpch / imdb / flights) and save it as
    a CSV directory.
``queries``
    List the benchmark suite queries for a workload.
``explain``
    Run a query over a saved or generated database and print the
    top-contributing facts for an answer, with any method of the paper.
``bench``
    A quick smoke benchmark: the exact engine over one suite query,
    batched through :class:`~repro.engine.session.ExplainSession` with
    artifact caching (``--json`` for machine-readable results).
``serve`` / ``worker``
    The socket shard service: ``serve`` runs a coordinator, ``worker``
    a long-lived worker that answers its task requests (workers given
    the same ``--cache-dir`` share one persistent artifact store).  See
    README.md ("Running a shard service").
``cache``
    Operate on a persistent artifact store directory without running a
    benchmark: ``stats`` / ``ls`` (counts and bytes broken down by
    artifact kind), ``gc`` (age TTL via ``--max-age``, then LRU
    eviction down to ``--kind-budget`` and ``--max-bytes``), and
    ``warm`` (pre-compile a workload's lineage shapes into the store —
    or into a fleet's shared store through a coordinator's
    compile-ahead queue).

Method dispatch goes through the engine registry
(:func:`repro.engine.get_engine`): ``--method`` accepts any registered
engine name and new backends show up here automatically.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from .compiler import CompilationBudget
from .core import to_plan
from .core.attribution import attribute
from .db import lineage
from .engine import (
    ArtifactCache,
    Coordinator,
    EngineOptions,
    ExplainSession,
    PersistentArtifactStore,
    available_engines,
    run_worker,
)
from .engine.service.protocol import parse_address
from .db.database import Database
from .db.io import load_database, save_database
from .workloads import (
    IMDB_ALL_QUERIES,
    TPCH_QUERIES,
    ImdbConfig,
    TpchConfig,
    generate_imdb,
    generate_tpch,
    imdb_query,
    tpch_query,
)
from .workloads.flights import flights_database, flights_query


def _build_db(args: argparse.Namespace) -> Database:
    if getattr(args, "data", None):
        return load_database(args.data)
    workload = args.workload
    if workload == "tpch":
        return generate_tpch(TpchConfig(scale_factor=args.scale, seed=args.seed))
    if workload == "imdb":
        return generate_imdb(ImdbConfig(seed=args.seed))
    if workload == "flights":
        return flights_database()
    raise SystemExit(f"unknown workload {workload!r}")


def _resolve_query(args: argparse.Namespace, db: Database):
    if args.sql:
        return args.sql
    if args.query:
        if args.workload == "tpch":
            return tpch_query(args.query).sql
        if args.workload == "imdb":
            return imdb_query(args.query).sql
        raise SystemExit("--query needs --workload tpch or imdb")
    if args.workload == "flights":
        return flights_query()
    raise SystemExit("pass --sql or --query")


def cmd_generate(args: argparse.Namespace) -> int:
    db = _build_db(args)
    save_database(db, args.out)
    print(f"wrote {db} to {args.out}")
    return 0


def cmd_queries(args: argparse.Namespace) -> int:
    suite = TPCH_QUERIES if args.workload == "tpch" else IMDB_ALL_QUERIES
    for spec in suite:
        description = spec.description.split(".")[0]
        print(f"{spec.name:6s} {description}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected at parse time (a clean
    two-line usage error instead of a deep stack trace)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _byte_size(text: str) -> int:
    """argparse type: a positive byte count, with optional k/m/g suffix
    (binary units: ``64m`` = 64 MiB)."""
    raw = text.strip().lower()
    scale = 1
    for suffix, factor in (("k", 1 << 10), ("m", 1 << 20), ("g", 1 << 30)):
        if raw.endswith(suffix):
            raw, scale = raw[: -len(suffix)], factor
            break
    try:
        value = int(raw) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a byte size (examples: 1048576, 512k, 64m, 2g)"
        )
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _kind_budget(text: str) -> tuple[str, int]:
    """argparse type: ``kind=bytes`` (e.g. ``comp=64m``), one per-kind
    byte budget for ``cache gc``."""
    kind, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not kind=bytes (example: comp=64m)"
        )
    from .engine.store import PersistentArtifactStore

    kind = kind.strip()
    if kind not in PersistentArtifactStore.kinds():
        raise argparse.ArgumentTypeError(
            f"unknown artifact kind {kind!r}; choose from "
            f"{PersistentArtifactStore.kinds()}"
        )
    return kind, _byte_size(raw)


def _address(text: str) -> tuple[str, int]:
    """argparse type: ``host:port``."""
    try:
        return parse_address(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _build_store(args: argparse.Namespace) -> PersistentArtifactStore | None:
    if not getattr(args, "cache_dir", None):
        return None
    return PersistentArtifactStore(
        args.cache_dir, max_bytes=getattr(args, "max_store_bytes", None)
    )


def _build_cache(args: argparse.Namespace) -> ArtifactCache | None:
    """The artifact cache implied by ``--cache-dir`` (None = engine
    default): a two-tier cache whose disk store persists canonical
    compiled artifacts across invocations and processes, bounded by
    ``--max-store-bytes`` when given."""
    store = _build_store(args)
    if store is None:
        return None
    return ArtifactCache(store=store)


def cmd_explain(args: argparse.Namespace) -> int:
    if args.max_store_bytes is not None and not args.cache_dir:
        raise SystemExit("--max-store-bytes needs --cache-dir")
    db = _build_db(args)
    query = _resolve_query(args, db)
    answer = tuple(args.answer) if args.answer else None
    if answer is not None:
        # try to coerce numeric components so they match stored values
        answer = tuple(_coerce(part) for part in answer)
    try:
        result = attribute(
            db, query,
            answer=answer,
            method=args.method,
            timeout=args.timeout,
            samples_per_fact=args.samples,
            seed=args.seed,
            cache=_build_cache(args),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        available = lineage(to_plan(query, db), db).tuples()
        preview = ", ".join(str(t) for t in available[:8])
        print(f"available answers ({len(available)}): {preview} ...",
              file=sys.stderr)
        return 2
    kind = "exact Shapley values" if result.exact else f"{result.method} scores"
    print(f"answer {result.answer}: {kind} "
          f"({len(result.values)} facts, {result.seconds:.3f}s)")
    for fact, value in result.top(args.top):
        print(f"  {float(value):+.6f}  {fact}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.no_cache and args.cache_dir:
        raise SystemExit("--no-cache and --cache-dir are mutually exclusive")
    if args.max_store_bytes is not None and not args.cache_dir:
        raise SystemExit("--max-store-bytes needs --cache-dir")
    if args.jobs_mode == "socket" and args.coordinator is None:
        raise SystemExit("--jobs-mode socket needs --coordinator host:port")
    if args.jobs_mode != "socket" and (
        args.coordinator is not None or args.min_workers is not None
        or args.degrade is not None or args.op_timeout is not None
    ):
        raise SystemExit(
            "--coordinator/--min-workers/--degrade/--op-timeout "
            "only apply to --jobs-mode socket"
        )
    db = _build_db(args)
    query = _resolve_query(args, db)
    store = _build_store(args)
    if args.no_cache:
        cache = ArtifactCache(max_entries=0)
    else:
        cache = ArtifactCache(store=store)
    with ExplainSession(
        db,
        method="exact",
        options=EngineOptions(
            budget=CompilationBudget(max_seconds=args.timeout), timeout=None,
        ),
        cache=cache,
        max_workers=args.jobs,
        executor=args.jobs_mode,
        coordinator=args.coordinator,
        min_workers=args.min_workers,
        op_timeout=(args.op_timeout if args.op_timeout is not None else 30.0),
        degrade=args.degrade,
        # --op-timeout also bounds the dial-retry budget, so a bench
        # against an unreachable coordinator degrades (or fails) within
        # the deadline the caller asked for instead of the 10s default.
        connect_retry_for=(min(10.0, args.op_timeout)
                           if args.op_timeout is not None else 10.0),
    ) as session:
        warmed = args.repeats > 1
        if warmed:
            # One explicit warm-up iteration: the timed repeats then
            # measure the steady state instead of first-call cache and
            # compilation effects.
            session.explain_many(query)
        laps = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            results = session.explain_many(query)
            laps.append(time.perf_counter() - start)
        stats = session.stats
    total = len(results)
    ok = sum(r.ok for r in results.values())
    elapsed = statistics.median(laps)
    profile = _stage_profile(results) if args.profile else None
    if profile is not None:
        # The pipeline stage breakdown comes from the session/cache
        # stats rather than per-answer timings: overlap is a batch-level
        # property (socket batches report it under remote_*).
        profile["pipeline_overlap_seconds"] = round(
            _pipeline_stat(stats, "pipeline_overlap_seconds"), 6)
        profile["component_pass_compiles"] = int(
            _pipeline_stat(stats, "component_pass_compiles"))
        profile["stitch_jobs"] = int(_pipeline_stat(stats, "stitch_jobs"))
    if args.json:
        payload = {
            "workload": args.workload,
            "transport": args.jobs_mode,
            "jobs": args.jobs,
            "outputs": total,
            "ok": ok,
            "seconds": round(elapsed, 6),
            "seconds_min": round(min(laps), 6),
            "repeats": args.repeats,
            "warmup": warmed,
            "stats": stats,
            "store_artifacts": len(store) if store is not None else None,
            # Stable digest of every answer's exact Fractions: two runs
            # (different transports, kernels or hosts) agree iff
            # their digests match — what 'bench compare' checks.
            "fractions_digest": _fractions_digest(results),
        }
        if profile is not None:
            payload["profile"] = profile
        print(json.dumps(payload, sort_keys=True))
        return 0
    timing = (
        f"in {elapsed:.2f}s"
        if args.repeats == 1
        else f"in median {elapsed:.2f}s / min {min(laps):.2f}s "
             f"({args.repeats} warmed repeats)"
    )
    print(f"{total} outputs, {ok} exact successes "
          f"({ok / total:.1%}) {timing}")
    if profile is not None:
        print("profile: "
              f"compile {profile['compile_seconds']:.3f}s "
              f"(component-compile {profile['component_compile_seconds']:.3f}s, "
              f"stitch {profile['stitch_seconds']:.3f}s, "
              f"tape-lower {profile['tape_lower_seconds']:.3f}s), "
              f"kernel-exec {profile['kernel_exec_seconds']:.3f}s, "
              f"batch-exec {profile['batch_exec_seconds']:.3f}s "
              f"(float64 {profile['tier_float64_seconds']:.3f}s, "
              f"int64 {profile['tier_int64_seconds']:.3f}s, "
              f"crt {profile['tier_crt_seconds']:.3f}s) "
              "(summed over the last repeat's answers)")
        print("pipeline: "
              f"{profile['pipeline_overlap_seconds']:.3f}s "
              f"compile/execute overlap, "
              f"{profile['component_pass_compiles']} one-pass component "
              f"compiles, {profile['stitch_jobs']} stitch jobs")
    print(f"cache: {stats['compile_calls']} compilations, "
          f"{stats['tape_compilations']} tape compilations for "
          f"{stats['answers_explained']} answers "
          f"({stats['unique_shapes']} distinct lineage shapes, "
          f"{stats['tape_hits']} tape hits)")
    if stats["component_hits"] or stats["component_compilations"]:
        print(f"components: {stats['component_hits']} hits, "
              f"{stats['component_misses']} misses, "
              f"{stats['component_compilations']} compilations")
    if stats["fastpath_hits"] or stats["fastpath_fallbacks"]:
        print(f"fastpath: {stats['fastpath_hits']} machine-width passes, "
              f"{stats['fastpath_fallbacks']} exact fallbacks "
              f"({stats['fastpath_overflow_fallbacks']} overflow, "
              f"{stats['fastpath_ineligible_fallbacks']} ineligible, "
              f"{stats['fastpath_budget_fallbacks']} over budget, "
              f"{stats['fastpath_small_fallbacks']} too small)")
    if stats["batched_groups"]:
        print(f"batched: {stats['batched_answers']} answers in "
              f"{stats['batched_groups']} same-shape group passes")
    if (_pipeline_stat(stats, "component_pass_compiles")
            or _pipeline_stat(stats, "stitch_jobs")):
        print(f"pipeline: "
              f"{int(_pipeline_stat(stats, 'component_pass_compiles'))} "
              f"one-pass component compiles, "
              f"{int(_pipeline_stat(stats, 'stitch_jobs'))} stitch jobs, "
              f"{_pipeline_stat(stats, 'pipeline_overlap_seconds'):.3f}s "
              f"compile/execute overlap")
    if store is not None:
        print(f"store: {stats['store_hits']} hits, "
              f"{stats['store_misses']} misses, "
              f"{stats['store_writes']} writes, "
              f"{stats['store_corruptions']} corrupt "
              f"({len(store)} artifacts in {args.cache_dir})")
    if "remote_compile_calls" in stats:
        print(f"workers: {stats['remote_workers']} reporting, "
              f"{stats['remote_compile_calls']} compilations, "
              f"{stats['remote_store_hits']} store hits "
              f"(cumulative since worker start)")
    return 0


def _pipeline_stat(stats: dict, key: str) -> float:
    """One pipeline counter across both reporting paths: the local
    cache's value plus — for socket batches — the fleet aggregate
    under ``remote_*``."""
    return float(stats.get(key, 0) or 0) + float(
        stats.get(f"remote_{key}", 0) or 0
    )


def _fractions_digest(results) -> str:
    """A stable hex digest of every answer's exact values.

    Answers and facts are sorted by ``repr`` and values rendered as
    exact ``Fraction`` reprs, so the digest is independent of answer
    order, transport, scheduling, and pipelining — two bench runs agree
    byte-for-byte iff their digests match.  Failed answers contribute
    their status instead of values.
    """
    import hashlib

    entries = []
    for answer, result in results.items():
        if result.values is None:
            entries.append((repr(answer), result.status))
        else:
            entries.append((repr(answer), sorted(
                (repr(fact), repr(value))
                for fact, value in result.values.items()
            )))
    entries.sort()
    return hashlib.sha256(repr(entries).encode()).hexdigest()


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """Compare two ``bench --json`` payloads: per-metric speedup table
    plus a Fractions-parity flag from their digests.  Exits 1 when both
    payloads carry digests and they differ."""
    try:
        a = json.loads(Path(args.baseline).read_text())
        b = json.loads(Path(args.candidate).read_text())
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    digest_a = a.get("fractions_digest")
    digest_b = b.get("fractions_digest")
    if digest_a is None or digest_b is None:
        parity = None
    else:
        parity = digest_a == digest_b
    rows = []
    for label, key in (("seconds (median)", "seconds"),
                       ("seconds (min)", "seconds_min")):
        left, right = a.get(key), b.get(key)
        if left is None or right is None:
            continue
        speedup = (left / right) if right else float("inf")
        rows.append((label, left, right, speedup))
    if args.json:
        payload = {
            "baseline": args.baseline,
            "candidate": args.candidate,
            "speedup": {label: round(speedup, 4)
                        for label, _, _, speedup in rows},
            "baseline_seconds": a.get("seconds"),
            "candidate_seconds": b.get("seconds"),
            "outputs_match": a.get("outputs") == b.get("outputs"),
            "identical_fractions": parity,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        name_a = Path(args.baseline).name
        name_b = Path(args.candidate).name
        print(f"{'metric':<18} {name_a:>14} {name_b:>14} {'speedup':>9}")
        for label, left, right, speedup in rows:
            print(f"{label:<18} {left:>13.4f}s {right:>13.4f}s "
                  f"{speedup:>8.2f}x")
        if a.get("outputs") != b.get("outputs"):
            print(f"outputs differ: {a.get('outputs')} vs "
                  f"{b.get('outputs')}")
        if parity is None:
            print("fractions parity: unknown (digest missing; re-run "
                  "bench --json with this version)")
        elif parity:
            print("fractions parity: identical")
        else:
            print("fractions parity: MISMATCH")
    return 1 if parity is False else 0


def _stage_profile(results) -> dict[str, float]:
    """Per-stage timing breakdown of one batch, summed over the
    answers' exact outcomes.

    ``compile_seconds`` is everything before Algorithm 1
    (:attr:`~repro.core.pipeline.ExactOutcome.compile_seconds`: Tseytin
    plus the tape stage, which carries knowledge compilation); the
    cold-path sub-stages are broken out of it:
    ``component_compile_seconds`` (compiling
    memoizable CNF components from scratch), ``stitch_seconds``
    (importing memoized/fresh component d-DNNFs into the parent), and
    ``tape_lower_seconds`` (d-DNNF → gate-tape lowering).  All three
    sub-stages go to zero on a warm store, which is what the profile is
    for."""
    stages = {"compile_seconds": 0.0, "component_compile_seconds": 0.0,
              "stitch_seconds": 0.0, "tape_lower_seconds": 0.0,
              "kernel_exec_seconds": 0.0, "batch_exec_seconds": 0.0,
              "tier_float64_seconds": 0.0, "tier_int64_seconds": 0.0,
              "tier_crt_seconds": 0.0}
    for result in results.values():
        timings = getattr(result.detail, "timings", None) or {}
        stages["compile_seconds"] += getattr(
            result.detail, "compile_seconds", 0.0)
        stages["component_compile_seconds"] += timings.get(
            "component_compile", 0.0)
        stages["stitch_seconds"] += timings.get("stitch", 0.0)
        stages["tape_lower_seconds"] += timings.get("tape_lower", 0.0)
        stages["kernel_exec_seconds"] += timings.get("shapley", 0.0)
        # Batched answers additionally report their share of the group
        # pass; every answer a machine-width sweep served names its tier.
        stages["batch_exec_seconds"] += timings.get("batch_exec", 0.0)
        for tier in ("float64", "int64", "crt"):
            stages[f"tier_{tier}_seconds"] += timings.get(
                f"tier_{tier}", 0.0)
    return {key: round(value, 6) for key, value in stages.items()}


def cmd_serve(args: argparse.Namespace) -> int:
    coordinator = Coordinator(
        args.host,
        args.port,
        heartbeat_interval=args.heartbeat_interval or None,
        heartbeat_miss_threshold=args.heartbeat_misses,
        op_timeout=args.op_timeout or None,
        max_queue=args.max_queue,
    )
    host, port = coordinator.address
    print(f"coordinator listening on {host}:{port} "
          f"(connect workers with: repro worker --connect {host}:{port})",
          flush=True)
    try:
        coordinator.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.shutdown()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    if args.max_store_bytes is not None and not args.cache_dir:
        raise SystemExit("--max-store-bytes needs --cache-dir")
    host, port = args.connect
    where = f" over store {args.cache_dir}" if args.cache_dir else ""
    print(f"worker connecting to {host}:{port}{where}", flush=True)
    try:
        executed = run_worker(
            (host, port),
            cache_dir=args.cache_dir,
            max_store_bytes=args.max_store_bytes,
            reconnect_for=args.reconnect_for,
        )
    except OSError as error:
        print(f"error: cannot reach coordinator at {host}:{port}: {error}",
              file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0
    print(f"worker done ({executed} tasks)", flush=True)
    return 0


def _open_store(directory: str) -> PersistentArtifactStore:
    if not Path(directory).expanduser().is_dir():
        raise SystemExit(f"error: {directory!r} is not a directory")
    return PersistentArtifactStore(directory)


def cmd_cache(args: argparse.Namespace) -> int:
    store = _open_store(args.dir)
    if args.cache_command == "stats":
        kinds = store.kind_summary()
        orphans = store.orphan_summary()
        payload = {
            "directory": str(store.directory),
            "artifacts": sum(k["files"] for k in kinds.values()),
            "total_bytes": sum(k["bytes"] for k in kinds.values()),
            "kinds": kinds,
            "orphans": orphans,
        }
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            per_kind = ", ".join(
                f"{kinds[kind]['files']} {kind}" for kind in kinds
            )
            print(f"{payload['artifacts']} artifacts ({per_kind}), "
                  f"{payload['total_bytes']} bytes in {payload['directory']}")
            for kind, summary in kinds.items():
                print(f"  {kind:5s} {summary['files']:>6d} files "
                      f"{summary['bytes']:>12d} bytes")
            if orphans["files"]:
                print(f"  {orphans['files']} orphaned temp file(s), "
                      f"{orphans['bytes']} bytes (interrupted writes; "
                      f"'cache gc' sweeps them)")
        return 0
    if args.cache_command == "ls":
        entries = sorted(
            store.entries(), key=lambda e: e.mtime_ns, reverse=True
        )
        if args.kind is not None:
            entries = [e for e in entries if e.kind == args.kind]
        if args.limit is not None:
            entries = entries[: args.limit]
        for entry in entries:  # most recently used first
            when = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(entry.mtime_ns / 1e9)
            )
            print(f"{entry.digest[:16]}  {entry.kind:5s} "
                  f"{entry.size:>10d}  {when}")
        return 0
    # gc
    kind_budgets = dict(args.kind_budget) if args.kind_budget else None
    if (args.max_bytes is None and kind_budgets is None
            and args.max_age is None):
        raise SystemExit(
            "error: cache gc needs at least one of --max-bytes, "
            "--kind-budget, --max-age"
        )
    report = store.gc(
        max_bytes=args.max_bytes,
        kind_budgets=kind_budgets,
        max_age_seconds=args.max_age,
    )
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        print(f"evicted {report.evicted} artifacts "
              f"({report.reclaimed_bytes} bytes reclaimed); "
              f"{report.remaining_files} artifacts / "
              f"{report.remaining_bytes} bytes remain")
        if report.orphans_removed:
            print(f"swept {report.orphans_removed} orphaned temp file(s) "
                  f"({report.orphan_bytes_reclaimed} bytes)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Statically audit a persistent artifact store (read-only)."""
    from .analysis.verify import DETERMINISM_LIMIT, verify_store

    store = _open_store(args.dir)
    limit = (
        args.determinism_limit
        if args.determinism_limit is not None
        else DETERMINISM_LIMIT
    )
    report = verify_store(store.directory, determinism_limit=limit)
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        for kind, summary in report.kinds.items():
            print(f"  {kind:5s} {summary['files']:>6d} files   "
                  f"{summary['ok']:>6d} ok   "
                  f"{summary['violations']:>6d} with violations")
        for violation in report.violations:
            print(f"  {violation.file}: [{violation.check}] "
                  f"{violation.detail}")
        notes = []
        if report.determinism_assumed:
            notes.append(
                f"{report.determinism_assumed} OR gate(s) above the "
                f"determinism enumeration limit (unproven, not violations)"
            )
        if report.skipped:
            notes.append(f"{report.skipped} v1 artifact(s) without stored "
                         f"analysis to audit")
        if report.orphans:
            notes.append(f"{report.orphans} orphaned temp file(s), "
                         f"{report.orphan_bytes} bytes")
        for note in notes:
            print(f"  note: {note}")
        verdict = "OK" if report.ok else "FAILED"
        print(f"{verdict}: {report.files} artifact file(s), "
              f"{len(report.violations)} violation(s)")
    return 0 if report.ok else 1


def cmd_cache_warm(args: argparse.Namespace) -> int:
    """Pre-warm a workload: compile its distinct lineage shapes into a
    store (locally) or a fleet's shared store (via a coordinator's
    compile-ahead queue) before any client asks for them."""
    if args.dir is None and args.coordinator is None:
        raise SystemExit(
            "error: cache warm needs a store directory (local warming) "
            "or --coordinator (fleet warming)"
        )
    db = _build_db(args)
    query = _resolve_query(args, db)
    cache = ArtifactCache()
    if args.dir is not None:
        # Warming may target a directory that does not exist yet — the
        # store creates it (unlike stats/ls/gc, which inspect).
        cache = ArtifactCache(store=PersistentArtifactStore(args.dir))
    executor = "socket" if args.coordinator is not None else "thread"
    with ExplainSession(
        db,
        method="exact",
        options=EngineOptions(
            budget=CompilationBudget(max_seconds=args.timeout), timeout=None,
        ),
        cache=cache,
        executor=executor,
        coordinator=args.coordinator,
    ) as session:
        status = session.warm_ahead(query, wait=not args.no_wait)
        stats = session.stats
    payload = {**status, "transport": executor}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        where = (
            f"coordinator {args.coordinator[0]}:{args.coordinator[1]}"
            if args.coordinator is not None else args.dir
        )
        print(f"warmed {status['completed']}/{status['shapes']} shapes "
              f"({status['failed']} failed, {status['pending']} pending) "
              f"via {where}")
        if status.get("component_tasks"):
            print(f"one-pass component phase: "
                  f"{status['component_tasks']} distinct components "
                  f"compiled ahead of the shape representatives")
        if executor == "thread" and (
            stats["component_hits"] or stats["component_compilations"]
        ):
            print(f"components: {stats['component_hits']} hits, "
                  f"{stats['component_compilations']} compilations")
    return 0 if status["failed"] == 0 else 1


def _coerce(text: str):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shapley values of database facts in query answering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", choices=("tpch", "imdb", "flights"),
                       default="flights")
        p.add_argument("--data", help="CSV directory written by 'generate'")
        p.add_argument("--scale", type=float, default=0.0005,
                       help="TPC-H scale factor")
        p.add_argument("--seed", type=int, default=7)

    g = sub.add_parser("generate", help="generate and save a database")
    common(g)
    g.add_argument("--out", required=True, help="output CSV directory")
    g.set_defaults(func=cmd_generate)

    q = sub.add_parser("queries", help="list suite queries")
    q.add_argument("--workload", choices=("tpch", "imdb"), default="tpch")
    q.set_defaults(func=cmd_queries)

    e = sub.add_parser("explain", help="attribute a query answer to facts")
    common(e)
    e.add_argument("--sql", help="SQL text to run")
    e.add_argument("--query", help="suite query name (e.g. Q3, 8d)")
    e.add_argument("--answer", nargs="*", help="the answer tuple to explain")
    e.add_argument("--method", choices=available_engines(), default="hybrid")
    e.add_argument("--timeout", type=float, default=2.5)
    e.add_argument("--samples", type=int, default=20,
                   help="samples per fact for the sampling methods")
    e.add_argument("--top", type=int, default=10)
    e.add_argument("--cache-dir",
                   help="persistent artifact store directory (compiled "
                        "artifacts are reused across invocations)")
    e.add_argument("--max-store-bytes", type=_byte_size, default=None,
                   help="byte budget of --cache-dir (suffixes k/m/g); "
                        "writes past it evict LRU artifacts")
    e.set_defaults(func=cmd_explain)

    b = sub.add_parser("bench", help="quick exact-pipeline smoke benchmark")
    common(b)
    b.add_argument("--sql")
    b.add_argument("--query")
    b.add_argument("--timeout", type=float, default=2.5)
    b.add_argument("--jobs", type=_positive_int, default=None,
                   help="pool width for the batched run (>= 1)")
    b.add_argument("--jobs-mode", choices=("thread", "process", "socket"),
                   default="thread",
                   help="fan answers out over threads (shared in-memory "
                        "cache), processes (workers share --cache-dir), or "
                        "a socket coordinator's workers (--coordinator)")
    b.add_argument("--coordinator", type=_address, default=None,
                   metavar="HOST:PORT",
                   help="coordinator address for --jobs-mode socket "
                        "(started with 'repro serve')")
    b.add_argument("--degrade", choices=("local",), default=None,
                   metavar="POLICY",
                   help="with --jobs-mode socket: fall back to in-process "
                        "execution (byte-identical results) when the "
                        "coordinator is unreachable, instead of failing; "
                        "counted under degraded_batches")
    b.add_argument("--op-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="with --jobs-mode socket: per-leg deadline on "
                        "coordinator roundtrips (default 30)")
    b.add_argument("--min-workers", type=_positive_int, default=None,
                   help="socket mode: wait until this many workers joined")
    b.add_argument("--no-cache", action="store_true",
                   help="disable the artifact cache (baseline timing)")
    b.add_argument("--cache-dir",
                   help="persistent artifact store directory; a second "
                        "bench run with the same directory compiles nothing")
    b.add_argument("--max-store-bytes", type=_byte_size, default=None,
                   help="byte budget of --cache-dir (suffixes k/m/g); "
                        "writes past it evict LRU artifacts")
    b.add_argument("--repeats", type=_positive_int, default=1,
                   help="timed repetitions of the batch; > 1 adds one "
                        "explicit warm-up iteration first and reports "
                        "median/min over the repeats (default: 1 cold run). "
                        "Warmed repeats relabel each shape's cached Shapley "
                        "values instead of rerunning Algorithm 1; add "
                        "--no-cache to time the repeats without reuse")
    b.add_argument("--profile", action="store_true",
                   help="print a per-stage breakdown (compile / "
                        "tape-lower / kernel-exec / batch-exec with "
                        "per-tier float64/int64/crt splits) of the "
                        "last repeat")
    b.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON object instead of "
                        "the human summary")
    b.set_defaults(func=cmd_bench)
    bsub = b.add_subparsers(dest="bench_command", required=False,
                            metavar="compare")
    bc = bsub.add_parser(
        "compare",
        help="compare two 'bench --json' files: speedup table and "
             "Fractions-parity flag (exit 1 on digest mismatch)",
    )
    bc.add_argument("baseline", help="baseline bench --json file")
    bc.add_argument("candidate", help="candidate bench --json file")
    bc.add_argument("--json", action="store_true")
    bc.set_defaults(func=cmd_bench_compare)

    s = sub.add_parser(
        "serve",
        help="run a shard-service coordinator (pair with 'repro worker')",
    )
    s.add_argument("--host", default="127.0.0.1",
                   help="interface to bind (trusted networks only: the "
                        "wire protocol is pickle)")
    s.add_argument("--port", type=int, default=7341,
                   help="port to bind (0 picks a free port)")
    s.add_argument("--heartbeat-interval", type=float, default=5.0,
                   metavar="SECONDS",
                   help="probe idle workers this often (0 disables "
                        "heartbeats; default 5)")
    s.add_argument("--heartbeat-misses", type=_positive_int, default=3,
                   help="consecutive missed heartbeats before a worker "
                        "is discarded (default 3)")
    s.add_argument("--op-timeout", type=float, default=120.0,
                   metavar="SECONDS",
                   help="base per-leg deadline on worker roundtrips; "
                        "compile and group ops stretch it by the batch's "
                        "budget and size (0 disables; default 120)")
    s.add_argument("--max-queue", type=_positive_int, default=None,
                   help="admission bound: batches queued+running beyond "
                        "this are rejected with an explicit busy reply "
                        "(default: unbounded)")
    s.set_defaults(func=cmd_serve)

    w = sub.add_parser(
        "worker",
        help="run a long-lived explanation worker against a coordinator",
    )
    w.add_argument("--connect", type=_address, required=True,
                   metavar="HOST:PORT",
                   help="coordinator address (from 'repro serve')")
    w.add_argument("--cache-dir",
                   help="persistent artifact store directory; give every "
                        "worker the same one to compile each shape once "
                        "fleet-wide")
    w.add_argument("--max-store-bytes", type=_byte_size, default=None,
                   help="byte budget of --cache-dir (suffixes k/m/g); "
                        "this worker's writes evict LRU artifacts past it")
    w.add_argument("--reconnect-for", type=float, default=60.0,
                   metavar="SECONDS",
                   help="after losing the coordinator, redial with "
                        "jittered backoff for up to this long and "
                        "re-register (0 restores die-on-disconnect; "
                        "default 60)")
    w.set_defaults(func=cmd_worker)

    c = sub.add_parser(
        "cache", help="inspect or trim a persistent artifact store"
    )
    csub = c.add_subparsers(dest="cache_command", required=True)
    cs = csub.add_parser("stats", help="artifact counts and total bytes")
    cs.add_argument("dir", help="store directory")
    cs.add_argument("--json", action="store_true")
    cs.set_defaults(func=cmd_cache)
    cl = csub.add_parser("ls", help="list artifacts, most recently used first")
    cl.add_argument("dir", help="store directory")
    cl.add_argument("--limit", type=_positive_int, default=None,
                    help="show at most this many entries")
    cl.add_argument("--kind", choices=PersistentArtifactStore.kinds(),
                    default=None, help="only list this artifact kind")
    cl.set_defaults(func=cmd_cache)
    cg = csub.add_parser(
        "gc",
        help="evict artifacts: stale ones first (--max-age), then LRU "
             "down to per-kind (--kind-budget) and total (--max-bytes) "
             "byte budgets",
    )
    cg.add_argument("dir", help="store directory")
    cg.add_argument("--max-bytes", type=_byte_size, default=None,
                    help="total byte budget to trim to (suffixes k/m/g)")
    cg.add_argument("--kind-budget", type=_kind_budget, action="append",
                    default=None, metavar="KIND=BYTES",
                    help="per-kind byte budget (repeatable, e.g. "
                         "--kind-budget comp=64m --kind-budget tape=16m)")
    cg.add_argument("--max-age", type=float, default=None, metavar="SECONDS",
                    help="evict artifacts not used for this many seconds, "
                         "regardless of budgets")
    cg.add_argument("--json", action="store_true")
    cg.set_defaults(func=cmd_cache)
    cw = csub.add_parser(
        "warm",
        help="pre-compile a workload's lineage shapes into a store "
             "(or a fleet via a coordinator's compile-ahead queue)",
    )
    common(cw)
    cw.add_argument("dir", nargs="?", default=None,
                    help="store directory to warm (created if missing); "
                         "omit when warming a fleet with --coordinator")
    cw.add_argument("--sql", help="SQL text to warm")
    cw.add_argument("--query", help="suite query name (e.g. Q3, 8d)")
    cw.add_argument("--timeout", type=float, default=2.5,
                    help="compilation budget per shape (seconds)")
    cw.add_argument("--coordinator", type=_address, default=None,
                    metavar="HOST:PORT",
                    help="queue the shapes on this coordinator's "
                         "compile-ahead warmer instead of compiling "
                         "locally (workers build into their shared store)")
    cw.add_argument("--no-wait", action="store_true",
                    help="with --coordinator: return once queued instead "
                         "of waiting for the warmer to drain")
    cw.add_argument("--json", action="store_true")
    cw.set_defaults(func=cmd_cache_warm)

    v = sub.add_parser(
        "verify",
        help="statically audit a store's artifacts (d-DNNF invariants, "
             "tape levels/bounds, component canonical form, cross-"
             "artifact consistency); read-only, exits non-zero on any "
             "violation",
    )
    v.add_argument("dir", help="store directory to audit")
    v.add_argument("--determinism-limit", type=_positive_int, default=None,
                   help="exhaustively enumerate OR gates with up to this "
                        "many variables when literal structure alone "
                        "cannot prove determinism (default 20; larger "
                        "gates are reported as unproven, not violations)")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
