"""The compile-artifact disk cache: equivalence, robustness, lifecycle.

The disk tier may only ever change *wall time*: a run served from a warm
cache must be bit-identical to a regenerated run on every engine, any
broken entry must read as a miss (then be rewritten), and concurrent
writers must never publish a torn file.  Everything here runs against a
throwaway cache directory via ``REPRO_CACHE``.
"""

import os
import pickle
import subprocess
import sys
import threading

import pytest

from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim import diskcache
from repro.sim.diskcache import (DISABLE_VALUE, DiskCache, FORMAT_VERSION,
                                 get_cache, module_digest,
                                 resolve_cache_root)
from repro.sim.machine import ENGINES, run_module
from repro.suite.registry import get_benchmark
from repro.suite.runner import compile_benchmark

SPEC = get_benchmark("sewha")
INPUTS = SPEC.generate_inputs(0)
DISK_ENGINES = ("bytecode", "codegen")  # the tiers the disk cache holds


def fresh_graph_module(level=1):
    """A structurally-identical-but-new module: what a cold process (or a
    pool worker receiving a cache-stripped pickle) starts from."""
    gm, _ = optimize_module(compile_benchmark(SPEC), OptLevel(level))
    return gm


def result_projection(result):
    return (result.return_value, result.globals_after, result.cycles,
            result.profile.node_counts, result.profile.edge_counts,
            result.profile.call_counts)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
    diskcache.reset_cache_state()
    yield tmp_path
    diskcache.reset_cache_state()


class TestDigest:
    def test_process_invariant_across_recompiles(self):
        # Same source, two front-end runs: instruction uids differ, the
        # structural digest must not (it is the cold-process cache key).
        assert module_digest(fresh_graph_module()) == \
            module_digest(fresh_graph_module())

    def test_distinguishes_levels_and_benchmarks(self):
        digests = {module_digest(fresh_graph_module(level))
                   for level in (0, 1, 2)}
        assert len(digests) == 3
        other, _ = optimize_module(
            compile_benchmark(get_benchmark("dft")), OptLevel(1))
        assert module_digest(other) not in digests

    def test_changes_on_graph_mutation(self):
        gm = fresh_graph_module()
        before = module_digest(gm)
        graph = gm.entry
        node = next(iter(graph.nodes.values()))
        node.succs = list(node.succs)  # same structure: same digest
        assert module_digest(gm) == before
        nid = next(iter(graph.nodes))
        graph.nodes[nid].succs.append(nid)
        assert module_digest(gm) != before


class TestEquivalence:
    def test_warm_hit_bit_identical_on_all_engines(self, cache_dir,
                                                   monkeypatch):
        # Reference: the tier disabled entirely.
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, DISABLE_VALUE)
        diskcache.reset_cache_state()
        assert get_cache() is None
        reference = {(engine, level):
                     result_projection(run_module(
                         fresh_graph_module(level), INPUTS, engine=engine))
                     for engine in ENGINES for level in (0, 1, 2)}

        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(cache_dir))
        diskcache.reset_cache_state()
        cold = {key: result_projection(run_module(
                    fresh_graph_module(key[1]), INPUTS, engine=key[0]))
                for key in reference}
        cache = get_cache()
        assert cache.stores["bytecode"] == 3
        assert cache.stores["codegen"] == 3
        warm = {key: result_projection(run_module(
                    fresh_graph_module(key[1]), INPUTS, engine=key[0]))
                for key in reference}
        assert cache.hits["bytecode"] >= 3
        assert cache.hits["codegen"] == 3
        assert not cache.corrupt
        assert cold == reference
        assert warm == reference

    def test_warm_hit_skips_lowering_and_generation(self, cache_dir,
                                                    monkeypatch):
        from repro.sim import codegen as codegen_mod
        from repro.sim import engine as engine_mod
        for engine in DISK_ENGINES:  # prime
            run_module(fresh_graph_module(), INPUTS, engine=engine)

        def refuse(*_args, **_kwargs):
            raise AssertionError(
                "warm disk cache must skip lowering/generation")
        monkeypatch.setattr(engine_mod.LoweredModule, "__init__", refuse)
        monkeypatch.setattr(codegen_mod, "_FunctionEmitter", refuse)
        before = dict(get_cache().hits)
        warm = {engine: result_projection(run_module(
                    fresh_graph_module(), INPUTS, engine=engine))
                for engine in DISK_ENGINES}
        assert warm["bytecode"] == warm["codegen"]
        assert get_cache().hits["bytecode"] > before.get("bytecode", 0)
        assert get_cache().hits["codegen"] > before.get("codegen", 0)

    def test_cold_process_hits_warm_cache(self, cache_dir):
        # A genuinely cold interpreter: prime from one subprocess, then
        # assert a second subprocess serves both tiers from disk and
        # produces the same outputs.
        script = (
            "import os, sys\n"
            "from repro.opt.pipeline import OptLevel, optimize_module\n"
            "from repro.sim.diskcache import get_cache\n"
            "from repro.sim.machine import run_module\n"
            "from repro.suite.registry import get_benchmark\n"
            "from repro.suite.runner import compile_benchmark\n"
            "spec = get_benchmark('sewha')\n"
            "gm, _ = optimize_module(compile_benchmark(spec), OptLevel(1))\n"
            "res = [run_module(gm, spec.generate_inputs(0), engine=e)\n"
            "       for e in ('bytecode', 'codegen')]\n"
            "cache = get_cache()\n"
            "print(sorted(cache.hits.items()), res[0].cycles,\n"
            "      res[0].return_value == res[1].return_value\n"
            "      and res[0].globals_after == res[1].globals_after)\n"
        )
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, REPRO_CACHE=str(cache_dir),
                   PYTHONPATH=src)
        outputs = [subprocess.run(
            [sys.executable, "-c", script], env=env, text=True,
            capture_output=True, check=True).stdout for _ in range(2)]
        first_hits, cycles, agree = outputs[0].rsplit(maxsplit=2)
        second_hits, cycles2, agree2 = outputs[1].rsplit(maxsplit=2)
        # First interpreter: everything generated, nothing served.
        assert first_hits == "[]"
        # Second interpreter: both tiers served straight from disk.
        assert second_hits == "[('bytecode', 1), ('codegen', 1)]"
        assert cycles == cycles2 and agree == "True" and agree2 == "True"


class TestRobustness:
    def prime(self):
        run_module(fresh_graph_module(), INPUTS, engine="bytecode")
        cache = get_cache()
        digest = module_digest(fresh_graph_module())
        path = cache.entry_path("bytecode", digest)
        assert path.is_file()
        return cache, digest, path

    def test_truncated_entry_is_ignored_and_rewritten(self, cache_dir):
        cache, digest, path = self.prime()
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 3])
        assert cache.load("bytecode", digest) is None
        assert cache.corrupt["bytecode"] == 1
        # The normal run path regenerates and rewrites the entry...
        result = run_module(fresh_graph_module(), INPUTS,
                            engine="bytecode")
        assert cache.stores["bytecode"] >= 2
        # ...after which it is a valid hit again.
        assert cache.load("bytecode", digest) is not None
        assert result_projection(result) == result_projection(
            run_module(fresh_graph_module(), INPUTS, engine="bytecode"))

    def test_garbage_entry_is_ignored(self, cache_dir):
        cache, digest, path = self.prime()
        path.write_bytes(b"not a pickle at all")
        assert cache.load("bytecode", digest) is None
        run_module(fresh_graph_module(), INPUTS, engine="bytecode")

    def test_version_mismatch_is_a_miss(self, cache_dir):
        cache, digest, path = self.prime()
        entry = pickle.loads(path.read_bytes())
        entry["version"] = FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(entry))
        assert cache.load("bytecode", digest) is None

    def test_digest_mismatch_is_a_miss(self, cache_dir):
        cache, digest, path = self.prime()
        other = "0" * len(digest)
        path.rename(cache.entry_path("bytecode", other))
        assert cache.load("bytecode", other) is None

    def test_corrupted_marshal_blob_falls_back_to_source(self, cache_dir):
        # marshal.loads may hard-crash on damaged bytes, so a blob whose
        # checksum no longer matches must be rejected *before* marshal
        # sees it — the entry still serves via its stored source text.
        run_module(fresh_graph_module(), INPUTS, engine="codegen")
        cache = get_cache()
        digest = module_digest(fresh_graph_module())
        path = cache.entry_path("codegen", digest)
        entry = pickle.loads(path.read_bytes())
        blob = entry["payload"]["code"]
        entry["payload"]["code"] = blob[:10] + b"\xff" * 8 + blob[18:]
        path.write_bytes(pickle.dumps(entry))
        warm = run_module(fresh_graph_module(), INPUTS, engine="codegen")
        assert cache.hits["codegen"] == 1  # served (via the source text)
        assert result_projection(warm) == result_projection(
            run_module(fresh_graph_module(), INPUTS, engine="codegen"))

    def test_compiler_source_change_is_a_miss(self, cache_dir,
                                              monkeypatch):
        # Lowered words embed raw opcode numbers assigned by a counter
        # in engine.py, so entries must not survive a compiler edit:
        # the source token partitions the namespace and a changed token
        # simply misses (no manual FORMAT_VERSION bump required).
        cache, digest, path = self.prime()
        monkeypatch.setattr(diskcache, "_source_token_cache",
                            "fedcba987654")
        assert cache.load("bytecode", digest) is None
        run_module(fresh_graph_module(), INPUTS, engine="bytecode")
        assert cache.entry_path("bytecode", digest).is_file()

    def test_kind_mismatch_is_a_miss(self, cache_dir):
        cache, digest, path = self.prime()
        path.rename(cache.entry_path("codegen", digest))
        assert cache.load("codegen", digest) is None

    def test_concurrent_writers_publish_complete_entries(self, cache_dir):
        cache = DiskCache(cache_dir)
        payload = {"blob": list(range(4096))}
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    assert cache.store("bytecode", "k" * 64, payload)
                    loaded = cache.load("bytecode", "k" * 64)
                    # A reader racing the writers sees a *complete*
                    # entry (atomic rename), never a torn one.
                    assert loaded == payload
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.load("bytecode", "k" * 64) == payload
        assert not list(cache_dir.glob("**/*.tmp"))

    def test_unpicklable_payload_counted_not_raised(self, cache_dir):
        cache = get_cache()
        assert not cache.store("bytecode", "x" * 64,
                               {"fn": lambda: None})
        assert cache.failures["bytecode"] == 1
        assert cache.load("bytecode", "x" * 64) is None

    def test_intrinsic_heavy_benchmarks_are_cacheable(self, cache_dir):
        # dft's sin/cos intrinsics are inlined as function objects in the
        # lowered words and codegen constants; they must pickle (named
        # module-level functions, not lambdas) or the whole benchmark
        # silently loses the disk tier.
        spec = get_benchmark("dft")
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(1))
        for engine in DISK_ENGINES:
            run_module(gm, spec.generate_inputs(0), engine=engine)
        cache = get_cache()
        assert not cache.failures
        assert cache.stores["bytecode"] == 1
        assert cache.stores["codegen"] == 1
        gm2, _ = optimize_module(compile_benchmark(spec), OptLevel(1))
        warm = run_module(gm2, spec.generate_inputs(0), engine="codegen")
        assert cache.hits["codegen"] == 1
        assert result_projection(warm) == result_projection(
            run_module(gm, spec.generate_inputs(0), engine="codegen"))

    def test_unwritable_directory_never_crashes(self, tmp_path,
                                                monkeypatch):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(blocked))
        diskcache.reset_cache_state()
        result = run_module(fresh_graph_module(), INPUTS,
                            engine="bytecode")
        assert result.cycles > 0  # simulation unaffected
        diskcache.reset_cache_state()


class TestLifecycle:
    def test_none_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, DISABLE_VALUE)
        diskcache.reset_cache_state()
        assert resolve_cache_root() is None
        assert get_cache() is None
        run_module(fresh_graph_module(), INPUTS, engine="codegen")
        diskcache.reset_cache_state()

    def test_default_root_used_when_unset(self, monkeypatch):
        monkeypatch.delenv(diskcache.CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg-probe")
        assert str(resolve_cache_root()) == "/tmp/xdg-probe/repro"

    def test_set_cache_dir_exports_to_environment(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, DISABLE_VALUE)
        diskcache.set_cache_dir(str(tmp_path))
        assert os.environ[diskcache.CACHE_ENV_VAR] == str(tmp_path)
        assert resolve_cache_root() == tmp_path
        diskcache.set_cache_dir(None)
        assert resolve_cache_root() is None
        diskcache.reset_cache_state()

    def test_clear_spares_unrelated_directories(self, cache_dir):
        # A cache root pointed at a shared directory: clear() may only
        # touch the cache's own v<digits> layout, never siblings that
        # happen to start with "v".
        run_module(fresh_graph_module(), INPUTS, engine="bytecode")
        bystander = cache_dir / "vendor"
        bystander.mkdir()
        (bystander / "keep.txt").write_text("precious")
        assert get_cache().clear() == 1
        assert (bystander / "keep.txt").read_text() == "precious"

    def test_entries_and_clear(self, cache_dir):
        for level in (0, 1):
            for engine in DISK_ENGINES:
                run_module(fresh_graph_module(level), INPUTS,
                           engine=engine)
        cache = get_cache()
        kinds = sorted(kind for kind, _ in cache.entries())
        assert kinds == ["bytecode", "bytecode", "codegen", "codegen"]
        assert cache.clear() == 4
        assert list(cache.entries()) == []
        # clearing is idempotent and the tier keeps working afterwards
        assert cache.clear() == 0
        run_module(fresh_graph_module(), INPUTS, engine="bytecode")
        assert len(list(cache.entries())) == 1

    def test_worker_processes_share_the_cache(self, cache_dir):
        # A jobs=2 study on the codegen engine: pool workers inherit
        # REPRO_CACHE and publish their generated forms, so the
        # parent-side cache directory fills up from worker processes.
        # Codegen entries embed their lowering, so no bytecode entry is
        # written alongside them.
        # The persistent pool snapshots the environment when its workers
        # fork, so it is recycled around this test's private directory.
        from repro.exec.pool import shutdown_pool
        from repro.feedback.study import StudyConfig, run_study
        shutdown_pool()
        try:
            run_study(StudyConfig(benchmarks=("sewha", "dft"), jobs=2,
                                  engine="codegen"))
            kinds = {kind for kind, _ in get_cache().entries()}
            assert kinds == {"codegen"}
        finally:
            shutdown_pool()


class TestSizeCapEviction:
    """The LRU eviction pass (REPRO_CACHE_MAX_MB) and its accounting."""

    def fill(self, cache, count, kind="bytecode", size=4096):
        digests = []
        for i in range(count):
            digest = f"{i:064x}"
            assert cache.store(kind, digest, {"blob": "x" * size})
            digests.append(digest)
        return digests

    def backdate(self, cache, kind, digests, start=1_000_000_000):
        # Distinct, strictly increasing recencies, far in the past.
        for i, digest in enumerate(digests):
            path = cache.entry_path(kind, digest)
            os.utime(path, (start + i, start + i))

    def test_lru_order_oldest_first(self, cache_dir):
        cache = DiskCache(cache_dir)
        digests = self.fill(cache, 4)
        self.backdate(cache, "bytecode", digests)
        entry_size = cache.entry_path(
            "bytecode", digests[0]).stat().st_size
        evicted = cache.evict_to_cap(max_bytes=2 * entry_size)
        assert evicted == 2
        survivors = [d for d in digests
                     if cache.entry_path("bytecode", d).exists()]
        assert survivors == digests[2:]  # the two most recent
        assert cache.evictions["bytecode"] == 2
        assert cache.evicted_bytes["bytecode"] == 2 * entry_size
        assert cache.op_count["evict"] == 1
        assert cache.op_seconds["evict"] >= 0.0
        assert cache.total_bytes() <= 2 * entry_size

    def test_hit_refreshes_recency(self, cache_dir):
        cache = DiskCache(cache_dir)
        digests = self.fill(cache, 2)
        self.backdate(cache, "bytecode", digests)
        # digests[0] is the older entry, but a hit bumps its atime...
        assert cache.load("bytecode", digests[0]) is not None
        entry_size = cache.entry_path(
            "bytecode", digests[0]).stat().st_size
        cache.evict_to_cap(max_bytes=entry_size)
        # ...so the *unread* entry is the LRU one and goes first.
        assert cache.entry_path("bytecode", digests[0]).exists()
        assert not cache.entry_path("bytecode", digests[1]).exists()

    def test_pinned_entries_never_evicted(self, cache_dir):
        cache = DiskCache(cache_dir)
        digests = self.fill(cache, 3)
        self.backdate(cache, "bytecode", digests)
        cache.pin("bytecode", digests[0])
        cache.pin("bytecode", digests[0])  # refcounted: two holders
        assert cache.is_pinned("bytecode", digests[0])
        assert cache.evict_to_cap(max_bytes=0) == 2
        assert cache.entry_path("bytecode", digests[0]).exists()
        cache.unpin("bytecode", digests[0])
        assert cache.is_pinned("bytecode", digests[0])  # one holder left
        cache.unpin("bytecode", digests[0])
        assert not cache.is_pinned("bytecode", digests[0])
        assert cache.evict_to_cap(max_bytes=0) == 1
        assert not cache.entry_path("bytecode", digests[0]).exists()

    def test_store_triggers_eviction_under_env_cap(self, cache_dir,
                                                   monkeypatch):
        monkeypatch.setenv(diskcache.MAX_MB_ENV_VAR, "0.02")  # ~20 KiB
        cache = DiskCache(cache_dir)
        self.fill(cache, 12, size=4096)  # ~4 KiB+ each, 12 stores
        cap = diskcache.resolve_max_bytes()
        assert cap == int(0.02 * 1024 * 1024)
        assert cache.total_bytes() <= cap
        assert sum(cache.evictions.values()) > 0
        # the freshest entry always survives its own store's eviction
        assert cache.entry_path("bytecode", f"{11:064x}").exists()

    def test_malformed_cap_is_uncapped_on_hot_path(self, cache_dir,
                                                   monkeypatch):
        monkeypatch.setenv(diskcache.MAX_MB_ENV_VAR, "banana")
        assert diskcache.resolve_max_bytes() is None
        with pytest.raises(Exception, match="REPRO_CACHE_MAX_MB"):
            diskcache.resolve_max_bytes(strict=True)
        monkeypatch.setenv(diskcache.MAX_MB_ENV_VAR, "-3")
        assert diskcache.resolve_max_bytes() is None
        cache = DiskCache(cache_dir)
        self.fill(cache, 2)  # stores never raise under a bad knob
        assert not cache.evictions


class TestStaleTmpSweep:
    """Orphaned atomic-write temporaries are age-gated and reaped."""

    def plant(self, cache, age, name="deadbeef0000.orphan.tmp"):
        cache.entry_dir.mkdir(parents=True, exist_ok=True)
        orphan = cache.entry_dir / f".{name}"
        orphan.write_bytes(b"half-written entry")
        stamp = __import__("time").time() - age
        os.utime(orphan, (stamp, stamp))
        return orphan

    def test_eviction_scan_reaps_old_spares_fresh(self, cache_dir):
        cache = DiskCache(cache_dir)
        old = self.plant(cache, age=2 * diskcache.TMP_SWEEP_AGE_SECONDS)
        fresh = self.plant(cache, age=0, name="deadbeef0001.live.tmp")
        assert cache.evict_to_cap(max_bytes=1 << 30) == 0
        assert not old.exists()  # crashed writer's leftover: reaped
        assert fresh.exists()    # presumed still-racing writer: kept
        assert cache.tmp_swept == 1

    def test_clear_reaps_tmp_files_of_any_age(self, cache_dir):
        cache = DiskCache(cache_dir)
        run_module(fresh_graph_module(), INPUTS, engine="bytecode")
        live = get_cache()
        self.plant(live, age=0)
        assert live.clear() == 2  # one entry + one orphan
        assert not live.tmp_files()
        assert live.tmp_swept == 1
        _ = cache

    def test_sweep_is_idempotent(self, cache_dir):
        cache = DiskCache(cache_dir)
        self.plant(cache, age=2 * diskcache.TMP_SWEEP_AGE_SECONDS)
        assert cache.sweep_stale_tmp() == 1
        assert cache.sweep_stale_tmp() == 0
        assert cache.tmp_swept == 1


class TestCounterGuards:
    """unusable()/reject() can never drive the counters negative."""

    def seed_hit(self, cache):
        assert cache.store("bytecode", "a" * 64, {"blob": 1})
        assert cache.load("bytecode", "a" * 64) is not None

    def test_reject_without_hit_is_a_counted_noop(self, cache_dir):
        cache = DiskCache(cache_dir)
        assert cache.reject("bytecode") is False
        assert cache.unusable("bytecode") is False
        assert cache.hits["bytecode"] == 0
        assert cache.rejected["bytecode"] == 0
        assert cache.corrupt["bytecode"] == 0

    def test_double_reject_stops_at_zero(self, cache_dir):
        cache = DiskCache(cache_dir)
        self.seed_hit(cache)
        assert cache.reject("bytecode") is True
        assert cache.hits["bytecode"] == 0
        assert cache.rejected["bytecode"] == 1
        assert cache.misses["bytecode"] == 1
        # a second reclassification has no hit to convert
        assert cache.reject("bytecode") is False
        assert cache.unusable("bytecode") is False
        snapshot = cache.stats_snapshot()
        for kind_stats in snapshot["kinds"].values():
            for value in kind_stats.values():
                assert value >= 0

    def test_snapshot_shape_and_nonnegativity(self, cache_dir):
        cache = DiskCache(cache_dir)
        self.seed_hit(cache)
        cache.load("bytecode", "0" * 64)  # a miss
        cache.evict_to_cap(max_bytes=0)
        snapshot = cache.stats_snapshot()
        assert snapshot["root"] == str(cache_dir)
        assert set(snapshot["ops"]) == {"hit", "miss", "store", "evict"}
        for op_stats in snapshot["ops"].values():
            assert op_stats["count"] >= 1
            assert op_stats["seconds"] >= 0.0
        assert snapshot["pinned"] == 0
        assert snapshot["tmp_swept"] >= 0


class TestResultTier:
    """The whole-result tier: opt-in, round-trip, invalidation token."""

    def test_off_by_default(self, cache_dir, monkeypatch):
        monkeypatch.delenv(diskcache.RESULT_ENV_VAR, raising=False)
        assert not diskcache.result_cache_enabled()
        for truthy in ("1", "true", "ON", "yes"):
            monkeypatch.setenv(diskcache.RESULT_ENV_VAR, truthy)
            assert diskcache.result_cache_enabled()
        monkeypatch.setenv(diskcache.RESULT_ENV_VAR, "0")
        assert not diskcache.result_cache_enabled()

    def test_source_token_is_stable(self):
        token = diskcache.result_source_token()
        assert token == diskcache.result_source_token()
        assert len(token) == 16
        int(token, 16)  # hex

    def test_run_study_round_trips_through_disk(self, cache_dir,
                                                monkeypatch):
        from repro.feedback.results import study_summary
        from repro.feedback.study import StudyConfig, run_study
        monkeypatch.setenv(diskcache.RESULT_ENV_VAR, "1")
        config = StudyConfig(benchmarks=("sewha",), levels=(0, 1))
        first = run_study(config)
        cache = get_cache()
        assert cache.stores[diskcache.RESULT_KIND] == 1
        # The repeat is served whole from disk: no run_benchmark calls.
        import repro.feedback.study as study_mod

        def boom(*_a, **_k):
            raise AssertionError("result-tier hit must not simulate")

        monkeypatch.setattr(study_mod, "run_benchmark", boom)
        second = run_study(config)
        assert cache.hits[diskcache.RESULT_KIND] == 1
        assert study_summary(second) == study_summary(first)
        assert second.config is config  # jobs-twin config swapped in

    def test_jobs_knob_shares_one_result_key(self, cache_dir):
        from repro.feedback.study import StudyConfig, result_request_key
        base = StudyConfig(benchmarks=("sewha",))
        assert result_request_key("study", base) == \
            result_request_key("study", StudyConfig(benchmarks=("sewha",),
                                                    jobs=4))
        assert result_request_key("study", base) != \
            result_request_key("study", StudyConfig(benchmarks=("sewha",),
                                                    seed=1))
        assert result_request_key("study", base) != \
            result_request_key("explore-study", base)
