"""Tests for CSV database I/O and the command-line interface."""

import pytest

from repro.cli import main
from repro.core.numerics import HAS_NUMPY
from repro.db import Database, RelationSchema, Schema
from repro.db.io import load_database, save_database
from repro.workloads import TpchConfig, generate_tpch
from repro.workloads.flights import flights_database


class TestDatabaseIo:
    def test_roundtrip_preserves_facts_and_partition(self, tmp_path):
        db = flights_database()
        save_database(db, tmp_path / "flights")
        back = load_database(tmp_path / "flights")
        assert sorted(map(repr, back.facts())) == sorted(map(repr, db.facts()))
        assert sorted(map(repr, back.endogenous_facts())) == sorted(
            map(repr, db.endogenous_facts())
        )

    def test_roundtrip_types(self, tmp_path):
        schema = Schema.of(
            RelationSchema.of("T", ("i", int), ("f", float), ("s", str))
        )
        db = Database(schema)
        db.add("T", 3, 2.5, "x")
        save_database(db, tmp_path / "t")
        back = load_database(tmp_path / "t")
        fact = back.relation("T")[0]
        assert fact.values == (3, 2.5, "x")
        assert isinstance(fact.values[0], int)
        assert isinstance(fact.values[1], float)

    def test_mixed_endogenous_relation(self, tmp_path):
        schema = Schema.of(RelationSchema.of("R", ("a", int)))
        db = Database(schema)
        endo = db.add("R", 1, endogenous=True)
        exo = db.add("R", 2, endogenous=False)
        save_database(db, tmp_path / "mixed")
        back = load_database(tmp_path / "mixed")
        assert back.is_endogenous(endo)
        assert not back.is_endogenous(exo)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_database(tmp_path)

    def test_tpch_roundtrip(self, tmp_path):
        db = generate_tpch(TpchConfig(scale_factor=0.0002))
        save_database(db, tmp_path / "tpch")
        back = load_database(tmp_path / "tpch")
        assert len(back) == len(db)
        assert len(back.relation("lineitem")) == len(db.relation("lineitem"))


class TestCli:
    def test_queries_listing(self, capsys):
        assert main(["queries", "--workload", "tpch"]) == 0
        out = capsys.readouterr().out
        assert "Q3" in out and "Q19" in out

    def test_queries_imdb_includes_extras(self, capsys):
        main(["queries", "--workload", "imdb"])
        out = capsys.readouterr().out
        assert "16a" in out and "14a" in out

    def test_explain_flights_exact(self, capsys):
        code = main(["explain", "--workload", "flights",
                     "--method", "exact", "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exact Shapley values" in out
        assert "+0.409524" in out  # 43/105

    def test_explain_proxy(self, capsys):
        assert main(["explain", "--workload", "flights",
                     "--method", "proxy"]) == 0
        assert "proxy scores" in capsys.readouterr().out

    def test_generate_and_explain_from_data(self, tmp_path, capsys):
        out_dir = str(tmp_path / "db")
        assert main(["generate", "--workload", "tpch",
                     "--scale", "0.0002", "--out", out_dir]) == 0
        capsys.readouterr()
        code = main(["explain", "--data", out_dir, "--workload", "tpch",
                     "--query", "Q11", "--answer", "zzz",
                     "--method", "proxy"])
        # unknown answer: exit 2 with a hint listing real answers
        assert code == 2
        err = capsys.readouterr().err
        assert "available answers" in err

    def test_explain_with_valid_generated_answer(self, tmp_path, capsys):
        out_dir = str(tmp_path / "db")
        main(["generate", "--workload", "tpch", "--scale", "0.0002",
              "--out", out_dir])
        capsys.readouterr()
        main(["explain", "--data", out_dir, "--workload", "tpch",
              "--query", "Q11", "--answer", "bogus", "--method", "proxy"])
        err = capsys.readouterr().err
        listing = err.split(":")[-1]
        first = listing.split("(")[1].split(",")[0]
        code = main(["explain", "--data", out_dir, "--workload", "tpch",
                     "--query", "Q11", "--answer", first,
                     "--method", "hybrid", "--top", "3"])
        assert code == 0
        assert "facts" in capsys.readouterr().out

    def test_bench_flights(self, capsys):
        assert main(["bench", "--workload", "flights"]) == 0
        out = capsys.readouterr().out
        assert "100.0%" in out

    def test_bench_cache_dir_second_run_compiles_nothing(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert main(["bench", "--workload", "flights",
                     "--cache-dir", store]) == 0
        cold = capsys.readouterr().out
        assert "store:" in cold and "0 compilations" not in cold
        assert main(["bench", "--workload", "flights",
                     "--cache-dir", store]) == 0
        warm = capsys.readouterr().out
        assert "cache: 0 compilations" in warm
        assert "0 corrupt" in warm

    def test_bench_jobs_mode_process(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert main(["bench", "--workload", "flights", "--jobs-mode",
                     "process", "--jobs", "2", "--cache-dir", store]) == 0
        assert "100.0%" in capsys.readouterr().out

    def test_bench_no_cache_conflicts_with_cache_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["bench", "--workload", "flights", "--no-cache",
                  "--cache-dir", str(tmp_path / "s")])

    def test_explain_cache_dir(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        for _ in range(2):
            assert main(["explain", "--workload", "flights",
                         "--method", "exact", "--top", "2",
                         "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "+0.409524" in out  # same values as the uncached path
        assert any((tmp_path / "artifacts").iterdir())

    def test_sql_option(self, capsys):
        code = main(["explain", "--workload", "flights",
                     "--sql", "SELECT src FROM Flights WHERE dest = 'ORY'",
                     "--answer", "LHR", "--method", "exact"])
        assert code == 0
        assert "exact" in capsys.readouterr().out

    def test_bench_json_output(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "artifacts")
        assert main(["bench", "--workload", "flights",
                     "--cache-dir", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"] == payload["ok"] == 1
        assert payload["transport"] == "thread"
        assert payload["stats"]["compile_calls"] > 0
        assert payload["stats"]["store_writes"] > 0
        # cnf + dnnf + tape plus the shape's memoized .comp sub-circuits
        assert payload["store_artifacts"] >= 3

    def test_bench_profile_reports_pipeline_stages(self, capsys):
        assert main(["bench", "--workload", "flights", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "pipeline:" in out
        assert "compile/execute overlap" in out

    def test_bench_compare_identical_runs(self, tmp_path, capsys):
        import json

        for name in ("a", "b"):
            assert main(["bench", "--workload", "flights", "--json"]) == 0
            (tmp_path / f"{name}.json").write_text(capsys.readouterr().out)
        assert main(["bench", "compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "fractions parity: identical" in out
        assert main(["bench", "compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical_fractions"] is True
        assert payload["outputs_match"] is True

    def test_bench_compare_flags_divergent_fractions(self, tmp_path, capsys):
        import json

        assert main(["bench", "--workload", "flights", "--json"]) == 0
        text = capsys.readouterr().out
        (tmp_path / "a.json").write_text(text)
        tampered = json.loads(text)
        tampered["fractions_digest"] = "0" * 64
        (tmp_path / "b.json").write_text(json.dumps(tampered))
        assert main(["bench", "compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_bench_compare_unreadable_file(self, tmp_path, capsys):
        assert main(["bench", "compare", str(tmp_path / "missing.json"),
                     str(tmp_path / "also-missing.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cache_warm_reports_component_tasks(self, tmp_path, capsys):
        store = str(tmp_path / "warmstore")
        assert main(["cache", "warm", store, "--workload", "flights"]) == 0
        out = capsys.readouterr().out
        assert "one-pass component phase: 1 distinct components" in out


class TestCliValidation:
    """Bad numeric flags die at argparse level (exit 2, a usage line)
    instead of surfacing a deep stack trace."""

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--workload", "flights", "--jobs", "0"])
        assert exit_info.value.code == 2
        assert "--jobs: must be >= 1" in capsys.readouterr().err

    def test_jobs_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--workload", "flights", "--jobs", "two"])
        assert exit_info.value.code == 2
        assert "not an integer" in capsys.readouterr().err

    def test_max_store_bytes_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--workload", "flights",
                  "--max-store-bytes", "0"])
        assert exit_info.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_max_store_bytes_accepts_suffixes(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert main(["bench", "--workload", "flights", "--cache-dir", store,
                     "--max-store-bytes", "64m"]) == 0
        capsys.readouterr()

    def test_socket_mode_requires_coordinator(self):
        with pytest.raises(SystemExit, match="--coordinator"):
            main(["bench", "--workload", "flights",
                  "--jobs-mode", "socket"])

    def test_max_store_bytes_requires_cache_dir(self):
        with pytest.raises(SystemExit, match="needs --cache-dir"):
            main(["bench", "--workload", "flights",
                  "--max-store-bytes", "64m"])
        with pytest.raises(SystemExit, match="needs --cache-dir"):
            main(["explain", "--workload", "flights",
                  "--max-store-bytes", "64m"])

    def test_coordinator_flags_require_socket_mode(self):
        with pytest.raises(SystemExit, match="only apply"):
            main(["bench", "--workload", "flights",
                  "--coordinator", "127.0.0.1:7341"])
        with pytest.raises(SystemExit, match="only apply"):
            main(["bench", "--workload", "flights", "--min-workers", "2"])

    def test_bad_coordinator_address_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--workload", "flights", "--jobs-mode", "socket",
                  "--coordinator", "noport"])
        assert exit_info.value.code == 2
        assert "host:port" in capsys.readouterr().err

    def test_unknown_numeric_backend_rejected_at_parse_time(self, capsys):
        # The flag itself is gone: the arithmetic tier is chosen per
        # shape, so every backend name is rejected on both commands.
        for command in (["bench"], ["explain", "--method", "exact"]):
            with pytest.raises(SystemExit) as exit_info:
                main([*command, "--workload", "flights",
                      "--numeric-backend=int64"])
            assert exit_info.value.code == 2
            assert "--numeric-backend" in capsys.readouterr().err

    def test_repeats_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--workload", "flights", "--repeats", "0"])
        assert exit_info.value.code == 2
        assert "--repeats: must be >= 1" in capsys.readouterr().err

    def test_bench_repeats_reports_min_and_median(self, capsys):
        import json

        assert main(["bench", "--workload", "flights",
                     "--repeats", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repeats"] == 3
        assert payload["warmup"] is True
        assert payload["seconds_min"] <= payload["seconds"]
        # warm-up plus three timed repeats, all answering
        assert payload["stats"]["answers_explained"] == 4 * payload["outputs"]

    def test_bench_single_run_stays_cold(self, capsys):
        import json

        assert main(["bench", "--workload", "flights", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repeats"] == 1
        assert payload["warmup"] is False

    def test_bench_profile_stage_breakdown(self, capsys):
        import json

        assert main(["bench", "--workload", "flights",
                     "--repeats", "2", "--profile", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        profile = payload["profile"]
        assert set(profile) == {
            "compile_seconds", "component_compile_seconds", "stitch_seconds",
            "tape_lower_seconds", "kernel_exec_seconds",
            "batch_exec_seconds", "tier_float64_seconds",
            "tier_int64_seconds", "tier_crt_seconds",
            "pipeline_overlap_seconds", "component_pass_compiles",
            "stitch_jobs",
        }
        assert all(value >= 0 for value in profile.values())
        # warm repeats relabel the values the warm-up published: their
        # kernel stage is the relabel time, with no sweep behind it
        assert profile["kernel_exec_seconds"] > 0
        stats = payload["stats"]
        assert stats["shapley_reuse_hits"] == 2 * payload["outputs"]
        assert stats["fastpath_hits"] + stats["fastpath_fallbacks"] == \
            payload["outputs"]
        # without the cache every repeat sweeps again
        assert main(["bench", "--workload", "flights", "--no-cache",
                     "--repeats", "2", "--profile", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        assert payload["profile"]["kernel_exec_seconds"] > 0
        assert stats["shapley_reuse_hits"] == 0
        assert stats["fastpath_hits"] + stats["fastpath_fallbacks"] == \
            3 * payload["outputs"]
        assert main(["bench", "--workload", "flights", "--profile"]) == 0
        assert "tape-lower" in capsys.readouterr().out

    def test_bench_json_reports_fastpath_counters(self, capsys):
        import json

        assert main(["bench", "--workload", "flights", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        assert "fastpath_hits" in stats and "fastpath_fallbacks" in stats
        assert "shapley_coefficients_cache_hits" in stats
        assert stats["fastpath_hits"] + stats["fastpath_fallbacks"] == \
            payload["outputs"]
        if HAS_NUMPY:
            # the flights lineage is too small for the tier to pay off
            assert stats["fastpath_small_fallbacks"] == payload["outputs"]


class TestCacheCli:
    def _populate(self, tmp_path, capsys) -> str:
        store = str(tmp_path / "artifacts")
        assert main(["bench", "--workload", "flights",
                     "--cache-dir", store]) == 0
        capsys.readouterr()
        return store

    def test_stats(self, tmp_path, capsys):
        store = self._populate(tmp_path, capsys)
        assert main(["cache", "stats", store]) == 0
        out = capsys.readouterr().out
        assert "1 cnf, 1 dnnf, 1 tape" in out
        assert "comp" in out  # per-kind breakdown includes the new kind

    def test_stats_json(self, tmp_path, capsys):
        import json

        store = self._populate(tmp_path, capsys)
        assert main(["cache", "stats", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        kinds = payload["kinds"]
        assert set(kinds) == {"cnf", "dnnf", "tape", "comp"}
        assert [kinds[k]["files"] for k in ("cnf", "dnnf", "tape")] == [1, 1, 1]
        assert payload["artifacts"] == sum(k["files"] for k in kinds.values())
        assert payload["total_bytes"] == sum(k["bytes"] for k in kinds.values())
        assert payload["total_bytes"] > 0

    def test_ls_lists_artifacts_mru_first(self, tmp_path, capsys):
        store = self._populate(tmp_path, capsys)
        assert main(["cache", "ls", store]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 3
        assert {line.split()[1] for line in lines} >= {"cnf", "dnnf", "tape"}
        assert main(["cache", "ls", store, "--limit", "1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1
        assert main(["cache", "ls", store, "--kind", "tape"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(line.split()[1] == "tape" for line in lines)

    def test_gc_trims_to_budget(self, tmp_path, capsys):
        import json

        store = self._populate(tmp_path, capsys)
        assert main(["cache", "gc", store, "--max-bytes", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evicted"] >= 3
        assert report["remaining_files"] == 0
        assert main(["cache", "stats", store]) == 0
        assert "0 artifacts" in capsys.readouterr().out

    def test_gc_kind_budget_evicts_only_that_kind(self, tmp_path, capsys):
        import json

        store = self._populate(tmp_path, capsys)
        assert main(["cache", "gc", store, "--kind-budget", "tape=1",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evicted"] == 1  # only the tape artifact
        assert main(["cache", "stats", store, "--json"]) == 0
        kinds = json.loads(capsys.readouterr().out)["kinds"]
        assert kinds["tape"]["files"] == 0
        assert kinds["cnf"]["files"] == 1 and kinds["dnnf"]["files"] == 1

    def test_gc_max_age_evicts_stale_artifacts(self, tmp_path, capsys):
        store = self._populate(tmp_path, capsys)
        assert main(["cache", "gc", store, "--max-age", "0"]) == 0
        assert "0 artifacts / 0 bytes remain" in capsys.readouterr().out

    def test_gc_requires_a_knob(self, tmp_path):
        with pytest.raises(SystemExit, match="--max-bytes"):
            main(["cache", "gc", str(tmp_path)])

    def test_warm_then_bench_compiles_nothing(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert main(["cache", "warm", store, "--workload", "flights"]) == 0
        out = capsys.readouterr().out
        assert "warmed 1/1 shapes" in out
        assert main(["bench", "--workload", "flights",
                     "--cache-dir", store]) == 0
        assert "cache: 0 compilations" in capsys.readouterr().out

    def test_warm_needs_a_target(self):
        with pytest.raises(SystemExit, match="--coordinator"):
            main(["cache", "warm", "--workload", "flights"])

    def test_missing_directory_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="not a directory"):
            main(["cache", "stats", str(tmp_path / "nope")])

    def test_bench_with_budget_keeps_store_bounded(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert main(["bench", "--workload", "flights", "--cache-dir", store,
                     "--max-store-bytes", "1k"]) == 0
        capsys.readouterr()
        from repro.engine import PersistentArtifactStore

        assert PersistentArtifactStore(store).total_bytes() <= 1024
