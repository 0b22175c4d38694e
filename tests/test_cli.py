"""CLI tests (fast paths only; the heavy study command is covered by the
benchmark harness)."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_levels_parsing(self):
        args = build_parser().parse_args(["study", "--levels", "2,0,0"])
        assert args.levels == (0, 2)

    def test_engine_choices_cover_all_five_tiers(self):
        from repro.sim.machine import ENGINES
        assert set(ENGINES) == {"compiled", "bytecode", "codegen",
                                "lanes", "reference"}
        for engine in ENGINES:
            args = build_parser().parse_args(
                ["study", "--engine", engine])
            assert args.engine == engine

    def test_invalid_engine_rejected_at_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--engine", "turbo"])
        assert "--engine" in capsys.readouterr().err

    def test_seeds_parsing_keeps_order(self):
        args = build_parser().parse_args(["study", "--seeds", "3,0,2"])
        assert args.seeds == (3, 0, 2)

    def test_empty_seeds_rejected_at_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--seeds", " , "])
        assert "--seeds" in capsys.readouterr().err

    def test_duplicate_seeds_rejected_at_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--seeds", "1,2,1"])
        err = capsys.readouterr().err
        assert "--seeds" in err and "duplicate" in err

    def parse_normalized(self, *argv):
        from repro.cli import _normalize_argv
        return build_parser().parse_args(_normalize_argv(list(argv)))

    def test_negative_seeds_equals_form(self):
        args = self.parse_normalized("study", "--seeds=-1,3")
        assert args.seeds == (-1, 3)

    def test_negative_seeds_separate_token(self):
        # argparse alone swallows "-1,3" as an unknown option; the argv
        # normalization joins it onto the flag so the validator sees it.
        args = self.parse_normalized("study", "--seeds", "-1,3")
        assert args.seeds == (-1, 3)

    def test_single_negative_seed(self):
        args = self.parse_normalized("study", "--seeds", "-1")
        assert args.seeds == (-1,)

    def test_malformed_seeds_get_a_clear_error(self, capsys):
        with pytest.raises(SystemExit):
            self.parse_normalized("study", "--seeds", "1,x")
        err = capsys.readouterr().err
        assert "comma-separated integers" in err

    def test_malformed_negative_seeds_get_a_clear_error(self, capsys):
        # Starts like a negative seed, ends malformed: still reaches the
        # seed parser and its message, not argparse's generic complaint.
        with pytest.raises(SystemExit):
            self.parse_normalized("study", "--seeds", "-1,x")
        err = capsys.readouterr().err
        assert "comma-separated integers" in err

    def test_missing_seeds_value_still_errors(self, capsys):
        with pytest.raises(SystemExit):
            self.parse_normalized("study", "--seeds")
        assert "--seeds" in capsys.readouterr().err

    def test_normalization_leaves_other_flags_alone(self):
        args = self.parse_normalized("study", "--seeds", "4,5",
                                     "--seed", "3")
        assert args.seeds == (4, 5)
        assert args.seed == 3

    def test_empty_levels_rejected_at_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--levels", " , "])
        assert "--levels is empty" in capsys.readouterr().err

    def test_malformed_levels_get_a_clear_error(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--levels", "0,x"])
        err = capsys.readouterr().err
        assert "comma-separated optimization levels" in err

    def test_out_of_range_levels_rejected_at_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--levels", "0,7"])
        err = capsys.readouterr().err
        assert "--levels contains 7" in err
        assert "0, 1, 2" in err

    def test_single_level_flag_validated(self, capsys):
        args = build_parser().parse_args(["explore", "sewha",
                                          "--level", "2"])
        assert args.level == 2
        for command in (["explore", "sewha"], ["explore-study"],
                        ["analyze", "k.c"]):
            for bad in ("7", "x"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(command + ["--level", bad])
                err = capsys.readouterr().err
                assert "one optimization level" in err

    def test_lengths_parsing_dedupes_and_sorts(self):
        args = build_parser().parse_args(["analyze", "k.c",
                                          "--lengths", "3,2,3"])
        assert args.lengths == (2, 3)

    def test_bad_lengths_rejected_at_the_flag(self, capsys):
        # Lengths are chain lengths, not levels: 4 and 5 are fine,
        # 1 is not ("chains have at least two operations").
        args = build_parser().parse_args(["analyze", "k.c",
                                          "--lengths", "4,5"])
        assert args.lengths == (4, 5)
        for value, message in ((" , ", "--lengths is empty"),
                               ("2,x", "comma-separated chain lengths"),
                               ("1,2", "at least two operations")):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["analyze", "k.c",
                                           "--lengths", value])
            assert message in capsys.readouterr().err

    def test_budgets_parsing(self):
        args = build_parser().parse_args(
            ["explore-study", "--budgets", "2500,1500,2500"])
        assert args.budgets == (2500, 1500)  # order kept, dupes dropped

    def test_bad_budgets_rejected_at_the_flag(self, capsys):
        for value in ("0", "1500,x", " , "):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["explore-study", "--budgets", value])
            assert "--budgets" in capsys.readouterr().err

    def test_negative_budgets_get_the_parser_message(self, capsys):
        # Same normalization as --seeds: a leading-negative value must
        # reach _parse_budgets' message, not argparse's generic one.
        with pytest.raises(SystemExit):
            self.parse_normalized("explore-study", "--budgets",
                                  "-100,2500")
        assert "must be positive" in capsys.readouterr().err


class TestList:
    def test_lists_all_twelve(self):
        code, text = run_cli("list")
        assert code == 0
        assert len(text.strip().splitlines()) == 12
        assert "fir" in text and "feowf" in text


class TestAnalyze:
    KERNEL = """
    int x[16];
    int y[16];
    int n = 16;
    int main() {
        int i;
        for (i = 0; i < n; i++) { y[i] = x[i] * 3 + 1; }
        return 0;
    }
    """

    @pytest.fixture()
    def kernel_file(self, tmp_path):
        path = tmp_path / "kernel.c"
        path.write_text(self.KERNEL)
        return str(path)

    def test_analyze_reports_sequences(self, kernel_file):
        code, text = run_cli("analyze", kernel_file, "--lengths", "2,3")
        assert code == 0
        assert "multiply-add" in text
        assert "coverage" in text

    def test_analyze_level0(self, kernel_file):
        code, text = run_cli("analyze", kernel_file, "--level", "0")
        assert code == 0
        assert "level 0" in text

    def test_analyze_missing_file(self):
        code, _text = run_cli("analyze", "/nonexistent/path.c")
        assert code == 2

    def test_analyze_bad_source(self, tmp_path):
        path = tmp_path / "bad.c"
        path.write_text("int main( {")
        code, _text = run_cli("analyze", str(path))
        assert code == 2

    def test_analyze_seed_changes_inputs_not_structure(self, kernel_file):
        _code, a = run_cli("analyze", kernel_file, "--seed", "1")
        _code, b = run_cli("analyze", kernel_file, "--seed", "2")
        # Same static structure: same sequence names.
        names_a = {line.split()[0] for line in a.splitlines()
                   if "%" in line}
        names_b = {line.split()[0] for line in b.splitlines()
                   if "%" in line}
        assert names_a == names_b


class TestExplore:
    def test_explore_sewha(self):
        code, text = run_cli("explore", "sewha", "--budget", "1500")
        assert code == 0
        assert "best measured design" in text
        assert "x" in text  # speedup figure

    def test_explore_unknown_benchmark(self):
        code, _text = run_cli("explore", "nope")
        assert code == 2


class TestExploreStudy:
    def test_explore_study_on_a_subset(self):
        code, text = run_cli("explore-study", "--benchmarks", "sewha,dft",
                             "--budgets", "1500,2500")
        assert code == 0
        assert "sewha @ base" in text
        assert "sewha @ budget 1500" in text
        for row in ("sewha", "dft"):
            assert text.count(row + " ") >= 2  # one table row per budget
        assert "best design" in text

    def test_explore_study_json_export(self, tmp_path):
        out_file = tmp_path / "explore.json"
        code, text = run_cli("explore-study", "--benchmarks", "sewha",
                             "--budgets", "1500", "--json",
                             str(out_file))
        assert code == 0
        import json
        data = json.loads(out_file.read_text())
        assert data["config"]["budgets"] == [1500]
        assert data["cells"][0]["benchmark"] == "sewha"
        assert data["cells"][0]["best_speedup"] > 1.0

    def test_explore_study_unknown_benchmark(self):
        code, _text = run_cli("explore-study", "--benchmarks", "nope")
        assert code == 2


class TestFrontierStudy:
    def test_frontier_report_sections(self):
        code, text = run_cli("explore-study", "--frontier",
                             "--benchmarks", "sewha",
                             "--max-budget", "1200")
        assert code == 0
        assert "sewha @ base" in text
        assert "sewha @ frontier" in text
        assert "sewha @ measure" in text
        assert "# Frontier study report" in text
        assert "## Summary" in text
        assert "## Suite-wide chains" in text
        assert "## sewha: frontier breakpoints" in text
        assert "Sweep ceiling: 1200" in text
        assert "of 1 frontiers" in text

    def test_frontier_json_export(self, tmp_path):
        out_file = tmp_path / "frontier.json"
        code, text = run_cli("explore-study", "--frontier",
                             "--benchmarks", "sewha",
                             "--max-budget", "1200",
                             "--json", str(out_file))
        assert code == 0
        assert "written to" in text
        import json
        data = json.loads(out_file.read_text())
        assert data["config"]["max_budget"] == 1200
        assert data["frontiers"]["sewha"]["breakpoints"]
        assert data["cells"][0]["benchmark"] == "sewha"
        assert data["cells"][0]["speedup"] > 1.0
        assert data["suite_chains"][0]["frontier_count"] == 1
        assert "of 1 frontiers" in data["suite_chains"][0]["reason"]

    def test_frontier_unknown_benchmark(self):
        code, _text = run_cli("explore-study", "--frontier",
                              "--benchmarks", "nope")
        assert code == 2

    def test_frontier_bad_max_budget(self):
        code, _text = run_cli("explore-study", "--frontier",
                              "--max-budget", "0")
        assert code == 2


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def restore_cache_env(self, monkeypatch):
        # --cache-dir writes REPRO_CACHE (so pool workers inherit it);
        # re-register the current value with monkeypatch so the write is
        # undone when the test ends.
        import os
        current = os.environ.get("REPRO_CACHE")
        if current is None:
            monkeypatch.delenv("REPRO_CACHE", raising=False)
        else:
            monkeypatch.setenv("REPRO_CACHE", current)

    def test_show_clear_cycle(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, text = run_cli("cache", "show", "--cache-dir", cache_dir)
        assert code == 0
        assert "entries:         none" in text
        # Prime the cache through a real command on a disk-cached tier.
        code, _ = run_cli("explore", "sewha", "--budget", "1500",
                          "--engine", "codegen", "--cache-dir", cache_dir)
        assert code == 0
        code, text = run_cli("cache", "show", "--cache-dir", cache_dir)
        assert code == 0
        # codegen entries embed their lowering: no bytecode entry
        assert "codegen" in text and "bytecode" not in text
        code, text = run_cli("cache", "clear", "--cache-dir", cache_dir)
        assert code == 0
        assert "removed" in text
        code, text = run_cli("cache", "show", "--cache-dir", cache_dir)
        assert "entries:         none" in text

    def test_show_disabled(self):
        code, text = run_cli("cache", "show", "--cache-dir", "none")
        assert code == 0
        assert "disabled" in text

    def test_show_surfaces_store_failures(self, tmp_path, monkeypatch):
        # DiskCache.store never raises — a payload that cannot pickle
        # just bumps the ``failures`` counter.  ``cache show`` reuses
        # the live process-wide handle, so that counter must appear in
        # its per-kind line (it used to be silently dropped from the
        # counter-kind union).
        from repro.sim import diskcache
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
        diskcache.reset_cache_state()
        try:
            cache = diskcache.get_cache()
            assert cache.store("codegen", "ab" * 32, lambda: None) is False
            assert cache.failures["codegen"] == 1
            code, text = run_cli("cache", "show")
            assert code == 0
            assert "this process:" in text
            assert "codegen" in text
            assert "1 store failure" in text
        finally:
            diskcache.reset_cache_state()

    def test_show_pluralizes_store_failures(self, tmp_path, monkeypatch):
        from repro.sim import diskcache
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
        diskcache.reset_cache_state()
        try:
            cache = diskcache.get_cache()
            for _ in range(2):
                assert cache.store("bytecode", "cd" * 32,
                                   lambda: None) is False
            code, text = run_cli("cache", "show")
            assert code == 0
            assert "2 store failures" in text
        finally:
            diskcache.reset_cache_state()


class TestTables:
    def test_table1_fast_path(self):
        code, text = run_cli("tables", "1")
        assert code == 0
        assert "Table 1" in text

    def test_table2_on_subset(self):
        code, text = run_cli("tables", "2", "--benchmarks", "sewha,dft")
        assert code == 0
        assert "multiply-add" in text


class TestReport:
    def test_report_to_file(self, tmp_path):
        out_file = tmp_path / "report.md"
        code, text = run_cli("report", "--benchmarks", "sewha,dft",
                             "--output", str(out_file))
        assert code == 0
        assert "written to" in text
        content = out_file.read_text()
        assert content.startswith("# Study report")
        assert "## Iterative coverage" in content

    def test_report_to_stdout(self):
        code, text = run_cli("report", "--benchmarks", "dft",
                             "--levels", "0,1")
        assert code == 0
        assert "## Cycle counts" in text


class TestServeCommand:
    def test_serve_requires_endpoint(self):
        code, _text = run_cli("serve")
        assert code == 2

    def test_serve_status_queries_daemon(self, tmp_path, monkeypatch):
        from repro.serve import ReproServer, ServeClient
        from repro.sim import diskcache
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR,
                           str(tmp_path / "cache"))
        diskcache.reset_cache_state()
        sock = str(tmp_path / "s.sock")
        srv = ReproServer(socket_path=sock, jobs=1)
        thread = srv.run_in_thread()
        try:
            code, text = run_cli("serve", "--socket", sock, "--status")
            assert code == 0
            assert '"result_cache_enabled"' in text
            assert '"stats"' in text
        finally:
            with ServeClient(socket_path=sock) as client:
                client.request({"op": "shutdown"})
            thread.join(30)
            diskcache.reset_cache_state()
        assert not thread.is_alive()

    def test_result_cache_flag_exports_env(self, tmp_path, monkeypatch):
        import os

        from repro.sim import diskcache
        # setenv first so monkeypatch restores the pre-test state even
        # though main() overwrites the variable.
        monkeypatch.setenv(diskcache.RESULT_ENV_VAR, "0")
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
        diskcache.reset_cache_state()
        code, _text = run_cli("study", "--benchmarks", "sewha",
                              "--levels", "0", "--result-cache")
        assert code == 0
        assert os.environ[diskcache.RESULT_ENV_VAR] == "1"
        cache = diskcache.get_cache()
        assert cache.stores[diskcache.RESULT_KIND] == 1
        diskcache.reset_cache_state()
