"""Mutation tests for the static artifact verifier (``repro.analysis``).

Every test seeds one specific corruption — a lowered word, a generated
source line, a disk-cache payload, a task graph — and asserts the
verifier rejects it *naming the violated invariant*.  Positive tests pin
that pristine artifacts of every tier pass with zero violations.
"""

from __future__ import annotations

import glob
import pickle

import pytest

from repro.analysis import VerificationError, VerifyResult
from repro.analysis.cfg import (build_word_cfg, immediate_dominators,
                                immediate_postdominators, verify_words)
from repro.analysis.lint import lint_determinism, lint_source
from repro.analysis.sweep import render_markdown, run_sweep, scan_cache_entries
from repro.analysis.taskgraph import check_task_graph, verify_task_graph
from repro.analysis.verify_codegen import (verify_generated_module,
                                           verify_generated_source,
                                           verify_lane_module)
from repro.analysis.verify_lowered import (verify_compiled_module,
                                           verify_graph,
                                           verify_lowered_module)
from repro.errors import IRError, ReproError
from repro.frontend import compile_source
from repro.ir.function import Function
from repro.ir.instr import Instruction
from repro.ir.module import Module
from repro.ir.ops import Op
from repro.ir.values import ArraySymbol, Constant, VirtualReg
from repro.ir.verify import verify_function
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim import engine as _eng
from repro.sim import diskcache
from repro.sim.codegen import generate_module
from repro.sim.engine import compile_module, lower_module
from repro.sim.lanes import generate_lane_module

# Same kernels as tests/conftest.py (duplicated here rather than imported:
# `from conftest import ...` is ambiguous when the benchmark harness's
# conftest is also on the collection path).
FIR_LIKE_SOURCE = """
float x[40];
float h[8];
float y[40];
int n = 40;
int taps = 8;

int main() {
    int i; int k;
    for (i = 0; i < n; i++) {
        float acc;
        acc = 0.0;
        for (k = 0; k < taps; k++) {
            if (i - k >= 0) {
                acc += h[k] * x[i - k];
            }
        }
        y[i] = acc;
    }
    return 0;
}
"""

INT_KERNEL_SOURCE = """
int x[64];
int y[64];
int n = 64;

int main() {
    int i;
    y[0] = x[0];
    for (i = 1; i < n - 1; i++) {
        int acc;
        acc = x[i - 1] + 3 * x[i] + x[i + 1];
        y[i] = acc >> 2;
    }
    y[n - 1] = x[n - 1];
    return 0;
}
"""


def _graph_module(source=FIR_LIKE_SOURCE, level=1):
    module = compile_source(source)
    gm, _ = optimize_module(module, OptLevel(level))
    return gm


def _invariants(result: VerifyResult):
    return {v.invariant for v in result.violations}


# -- positive: pristine artifacts pass every tier ----------------------------------


class TestPristineArtifacts:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_all_tiers_clean(self, level):
        gm = _graph_module(level=level)
        for graph in gm.graphs.values():
            assert verify_graph(graph).ok
        assert verify_compiled_module(gm, compile_module(gm)).ok
        lower_module(gm)
        lowered = verify_lowered_module(gm, gm._lowered_cache)
        assert lowered.ok and lowered.checks > 100
        assert verify_generated_module(gm, generate_module(gm)).ok
        assert verify_lane_module(gm, generate_lane_module(gm, 4)).ok

    def test_int_kernel_clean(self):
        gm = _graph_module(INT_KERNEL_SOURCE, level=2)
        lower_module(gm)
        assert verify_lowered_module(gm, gm._lowered_cache).ok
        assert verify_generated_module(gm, generate_module(gm)).ok

    def test_raise_if_failed(self):
        result = VerifyResult()
        result.check(False, "some-invariant", "broken thing")
        with pytest.raises(VerificationError, match="some-invariant"):
            result.raise_if_failed()
        assert VerifyResult().ok


# -- word-level mutations ----------------------------------------------------------


def _lowered_graph(gm):
    lower_module(gm)
    name = sorted(gm.graphs)[0]
    return name, gm._lowered_cache.graphs[name]


def _first_word(lg, op):
    for word in lg.words:
        if word[0] == op:
            return word
    raise AssertionError(f"no word with opcode {op}")


class TestWordMutations:
    def test_successor_ref_to_foreign_word(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        br = _first_word(lg, _eng.BR)
        br[3] = [_eng.RET_N]  # a fresh list that is not a member word
        result = verify_lowered_module(gm, gm._lowered_cache)
        assert "successor-ref" in _invariants(result)

    def test_register_slot_above_frame(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        word = next(w for w in lg.words
                    if w[0] in (_eng.ADD_RR, _eng.ADD_RR_J, _eng.ADD_RC,
                                _eng.ADD_RC_J, _eng.MOV_C, _eng.MOV_C_J))
        word[1] = lg.n_regs + 5
        result = verify_words(lg)
        assert "register-slot-range" in _invariants(result)

    def test_missing_terminator(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        word = next(w for w in lg.words
                    if w and isinstance(w[-1], list))
        word[-1] = None
        result = verify_words(lg)
        assert "missing-terminator" in _invariants(result)

    def test_dead_word(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        lg.words.append([_eng.RET_N])  # orphan: no word references it
        result = verify_lowered_module(gm, gm._lowered_cache)
        assert "dead-word" in _invariants(result)

    def test_edge_table_swap(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        assert len(lg.edge_pairs) >= 2
        lg.edge_pairs[0], lg.edge_pairs[1] = \
            lg.edge_pairs[1], lg.edge_pairs[0]
        result = verify_lowered_module(gm, gm._lowered_cache)
        assert "edge-table" in _invariants(result)

    def test_branch_counter_pair(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        br = _first_word(lg, _eng.BR)
        br[4] = br[2] + 2  # legs must carry adjacent counters
        result = verify_lowered_module(gm, gm._lowered_cache)
        assert "branch-counter-pair" in _invariants(result)

    def test_counter_out_of_range(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        br = _first_word(lg, _eng.BR)
        br[2] = lg.n_counters + 7
        result = verify_words(lg)
        assert "edge-index-range" in _invariants(result)

    def test_unknown_opcode(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        lg.words[0][0] = 10_000
        result = verify_words(lg)
        assert "unknown-opcode" in _invariants(result)


# -- CFG reconstruction ------------------------------------------------------------


class TestWordCFG:
    def test_dominators_and_postdominators(self):
        gm = _graph_module()
        _, lg = _lowered_graph(gm)
        cfg = build_word_cfg(lg)
        idom = immediate_dominators(cfg)
        ipdom = immediate_postdominators(cfg)
        assert idom[cfg.entry] == cfg.entry
        # every reachable non-entry word has a dominator
        for i in cfg.reachable:
            if i != cfg.entry:
                assert idom[i] is not None
        assert len(ipdom) == cfg.n

    def test_reachable_covers_member_words(self):
        gm = _graph_module(level=2)
        _, lg = _lowered_graph(gm)
        cfg = build_word_cfg(lg)
        assert set(range(len(lg.words))) <= cfg.reachable


# -- generated-source mutations ----------------------------------------------------


class TestCodegenSourceMutations:
    def _source_parts(self, gm):
        gen = generate_module(gm)
        return gen.lowered.graphs, gen.source, gen.consts

    def test_deleted_counter_writeback(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        lines = source.splitlines()
        idx = next(i for i, line in enumerate(lines)
                   if "eh[" in line and "+=" in line)
        mutated = "\n".join(lines[:idx] + lines[idx + 1:])
        result = verify_generated_source(gm, graphs, mutated, consts,
                                         lanes=False)
        assert "counter-writeback" in _invariants(result)

    def test_deleted_cycle_writeback(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        mutated = "\n".join(line for line in source.splitlines()
                            if line.strip() != "cyc[0] = n")
        result = verify_generated_source(gm, graphs, mutated, consts,
                                         lanes=False)
        assert "cycle-writeback" in _invariants(result)

    def test_deleted_limit_exit_writeback(self):
        # The cycle-limit guard raises instead of returning, so only the
        # limit-exit sweep sees it: drop just its write-back (the first
        # occurrence — the guard is emitted before any block body).
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        mutated = source.replace("cyc[0] = n", "pass", 1)
        assert mutated != source
        result = verify_generated_source(gm, graphs, mutated, consts,
                                         lanes=False)
        assert "cycle-writeback" in _invariants(result)

    def test_disabled_bounds_guard(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        assert "if 0 <= " in source
        mutated = source.replace("if 0 <= ", "if True or 0 <= ", 1)
        result = verify_generated_source(gm, graphs, mutated, consts,
                                         lanes=False)
        assert "unguarded-load" in _invariants(result)

    def test_unbound_name(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        assert "limit = state.max_cycles" in source
        mutated = source.replace("limit = state.max_cycles",
                                 "limit = missing_state.max_cycles", 1)
        result = verify_generated_source(gm, graphs, mutated, consts,
                                         lanes=False)
        assert "unbound-name" in _invariants(result)

    def test_unknown_const_default(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        assert consts  # fir-like kernel folds constants
        key = sorted(consts)[0]
        broken = {k: v for k, v in consts.items() if k != key}
        result = verify_generated_source(gm, graphs, source, broken,
                                         lanes=False)
        assert "const-binding" in _invariants(result)

    def test_missing_function_def(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        mutated = source.replace("def _f0(", "def _g0(")
        result = verify_generated_source(gm, graphs, mutated, consts,
                                         lanes=False)
        assert "function-table" in _invariants(result)

    def test_syntax_error(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        result = verify_generated_source(gm, graphs, source + "\n  ):",
                                         consts, lanes=False)
        assert "source-syntax" in _invariants(result)


class TestLanesSourceMutations:
    def _parts(self, gm, n_lanes=4):
        lm = generate_lane_module(gm, n_lanes)
        return lm.lowered.graphs, lm.source, lm.consts

    def test_deleted_counter_fold(self):
        gm = _graph_module()
        graphs, source, consts = self._parts(gm)
        lines = source.splitlines()
        idx = next(i for i, line in enumerate(lines)
                   if "_a[" in line and "+=" in line)
        mutated = "\n".join(lines[:idx] + lines[idx + 1:])
        result = verify_generated_source(gm, graphs, mutated, consts,
                                         lanes=True, n_lanes=4)
        assert "counter-fold" in _invariants(result)

    def test_reconvergence_respects_block_starts(self):
        gm = _graph_module()
        graphs, source, consts = self._parts(gm)
        clean = verify_generated_source(gm, graphs, source, consts,
                                        lanes=True, n_lanes=4)
        assert clean.ok
        # Pretend the emitter produced a single block: every branch
        # postdominator now falls mid-block and must be flagged.
        override = {name: [0] for name in graphs}
        result = verify_generated_source(gm, graphs, source, consts,
                                         lanes=True, n_lanes=4,
                                         starts_override=override)
        assert "lanes-reconvergence" in _invariants(result)


# -- disk cache: verify-on-load ----------------------------------------------------


@pytest.fixture
def verified_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
    monkeypatch.setenv(diskcache.VERIFY_ENV_VAR, "1")
    diskcache.reset_cache_state()
    yield tmp_path
    diskcache.reset_cache_state()


def _entry_paths(kind):
    cache = diskcache.get_cache()
    return [path for k, path in cache.entries() if k == kind]


def _rewrite(path, mutate):
    with open(path, "rb") as fh:
        entry = pickle.load(fh)
    mutate(entry["payload"])
    with open(path, "wb") as fh:
        pickle.dump(entry, fh)


class TestVerifyOnLoad:
    def test_clean_warm_load_not_rejected(self, verified_cache):
        generate_module(_graph_module())
        diskcache.reset_cache_state()
        generate_module(_graph_module())
        cache = diskcache.get_cache()
        assert cache.hits["codegen"] == 1
        assert not cache.rejected

    def test_tampered_codegen_source_rejected(self, verified_cache):
        generate_module(_graph_module())
        [path] = _entry_paths("codegen")

        def strip_writeback(payload):
            lines = payload["source"].splitlines()
            idx = next(i for i, line in enumerate(lines)
                       if "eh[" in line and "+=" in line)
            payload["source"] = "\n".join(lines[:idx] + lines[idx + 1:])

        _rewrite(path, strip_writeback)
        diskcache.reset_cache_state()
        gm = _graph_module()
        generated = generate_module(gm)
        cache = diskcache.get_cache()
        assert cache.rejected["codegen"] == 1
        assert cache.stores["codegen"] == 1  # regenerated and re-stored
        assert verify_generated_module(gm, generated).ok

    def test_tampered_bytecode_word_rejected(self, verified_cache):
        gm = _graph_module()
        lower_module(gm)
        [path] = _entry_paths("bytecode")

        def corrupt_word(payload):
            name = sorted(payload["graphs"])[0]
            lg = payload["graphs"][name]
            word = next(w for w in lg.words
                        if w[0] in (_eng.ADD_RR, _eng.ADD_RR_J,
                                    _eng.MOV_C, _eng.MOV_C_J,
                                    _eng.ADD_RC, _eng.ADD_RC_J))
            word[1] = lg.n_regs + 9

        _rewrite(path, corrupt_word)
        diskcache.reset_cache_state()
        gm2 = _graph_module()
        lower_module(gm2)
        cache = diskcache.get_cache()
        assert cache.rejected["bytecode"] == 1
        assert verify_lowered_module(gm2, gm2._lowered_cache).ok

    def test_cache_scan_reports_corrupt_entry(self, verified_cache):
        generate_module(_graph_module())
        [path] = _entry_paths("codegen")
        well, corrupt, details = scan_cache_entries(diskcache.get_cache())
        assert corrupt == 0 and well >= 1

        def garble(payload):
            payload["source"] = "def _f0(:\n"

        _rewrite(path, garble)
        well, corrupt, details = scan_cache_entries(diskcache.get_cache())
        assert corrupt == 1
        assert any("source-syntax" in d for d in details)


# -- task graphs -------------------------------------------------------------------


def _noop(*args):
    return args


class TestTaskGraph:
    def test_cycle_named(self):
        from repro.exec.scheduler import Task
        tasks = [Task("a", _noop, deps=("c",)),
                 Task("b", _noop, deps=("a",)),
                 Task("c", _noop, deps=("b",))]
        result = verify_task_graph(tasks)
        assert "dependency-cycle" in _invariants(result)
        detail = next(v.detail for v in result.violations
                      if v.invariant == "dependency-cycle")
        assert "->" in detail
        with pytest.raises(ReproError,
                           match="dependency cycle in schedule"):
            check_task_graph(tasks)

    def test_unknown_dep_and_duplicates(self):
        from repro.exec.scheduler import Task
        result = verify_task_graph([Task("a", _noop, deps=("zz",)),
                                    Task("a", _noop)])
        invs = _invariants(result)
        assert "unknown-dep" in invs and "duplicate-task-key" in invs

    def test_affinity_hints(self):
        from repro.exec.scheduler import Task
        tasks = [Task("a", _noop, affinity="fir"),
                 Task("b", _noop, affinity="ghost")]
        result = verify_task_graph(tasks, affinities=["fir"])
        assert "unknown-affinity" in _invariants(result)
        assert verify_task_graph(tasks).ok  # hints unchecked without list

    def test_run_tasks_rejects_cycle_before_execution(self):
        from repro.exec.scheduler import Task, run_tasks
        ran = []
        tasks = [Task("ok", ran.append, ("x",)),
                 Task("a", _noop, deps=("b",)),
                 Task("b", _noop, deps=("a",))]
        with pytest.raises(ReproError,
                           match="dependency cycle in schedule"):
            run_tasks(tasks, jobs=1)
        assert ran == []  # validation happened before any task ran

    def test_run_tasks_names_cycle_members(self):
        from repro.exec.scheduler import Task, run_tasks
        tasks = [Task("lvl0", _noop, deps=("lvl1",)),
                 Task("lvl1", _noop, deps=("lvl0",))]
        with pytest.raises(ReproError, match="lvl0"):
            run_tasks(tasks, jobs=1)


# -- IR call sites -----------------------------------------------------------------


def _ret(value=None):
    return Instruction(Op.RET, srcs=(value,) if value is not None else ())


class TestIRCallSites:
    def _module_with(self, callee_params, return_type="void"):
        module = Module()
        callee = Function("g", params=callee_params,
                          return_type=return_type)
        callee.emit(_ret())
        module.add_function(callee)
        return module

    def test_argument_count_mismatch(self):
        module = self._module_with([VirtualReg("a", False)])
        caller = Function("main", return_type="int")
        caller.emit(Instruction(Op.CALL, srcs=(), callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        with pytest.raises(IRError, match="passes 0 argument"):
            verify_function(caller, module)

    def test_scalar_class_mismatch(self):
        module = self._module_with([VirtualReg("a", True)])  # float param
        caller = Function("main", return_type="int")
        caller.emit(Instruction(Op.CALL, srcs=(Constant(1, False),),
                                callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        with pytest.raises(IRError, match="register class mismatches"):
            verify_function(caller, module)

    def test_array_for_scalar_param(self):
        module = self._module_with([VirtualReg("a", False)])
        caller = Function("main", return_type="int")
        caller.emit(Instruction(
            Op.CALL, srcs=(ArraySymbol("x", 8, False),), callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        with pytest.raises(IRError, match="must be a scalar"):
            verify_function(caller, module)

    def test_array_element_type_mismatch(self):
        module = self._module_with([ArraySymbol("p", 8, True)])
        caller = Function("main", return_type="int")
        caller.emit(Instruction(
            Op.CALL, srcs=(ArraySymbol("x", 8, False),), callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        with pytest.raises(IRError, match="is int, parameter"):
            verify_function(caller, module)

    def test_void_call_must_not_define(self):
        module = self._module_with([])
        caller = Function("main", return_type="int")
        caller.emit(Instruction(Op.CALL, dest=VirtualReg("t0", False),
                                srcs=(), callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        with pytest.raises(IRError, match="void function"):
            verify_function(caller, module)

    def test_valid_call_passes(self):
        module = self._module_with([VirtualReg("a", False)],
                                   return_type="int")
        caller = Function("main", return_type="int")
        caller.emit(Instruction(Op.CALL, dest=VirtualReg("t0", False),
                                srcs=(Constant(1, False),), callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        verify_function(caller, module)  # must not raise

    def test_frontend_modules_pass(self):
        from repro.ir.verify import verify_module
        verify_module(compile_source(FIR_LIKE_SOURCE))


# -- determinism lint --------------------------------------------------------------


class TestDeterminismLint:
    def test_repo_is_clean(self):
        result = lint_determinism()
        assert result.ok, [str(v) for v in result.violations]

    def test_flags_set_iteration(self):
        source = ("def f(xs):\n"
                  "    s = set(xs)\n"
                  "    for x in s:\n"
                  "        print(x)\n")
        result = lint_source("x.py", source, VerifyResult())
        assert "unordered-set-iteration" in _invariants(result)

    def test_flags_dictcomp_over_set(self):
        # the exact shape of the lanes _LaneState bug
        source = ("def f(globals_):\n"
                  "    names = set()\n"
                  "    for g in globals_:\n"
                  "        names.update(g)\n"
                  "    return {n: 1 for n in names}\n")
        result = lint_source("x.py", source, VerifyResult())
        assert "unordered-set-iteration" in _invariants(result)

    def test_sorted_iteration_allowed(self):
        source = ("def f(xs):\n"
                  "    s = set(xs)\n"
                  "    return sorted(s), len(s), 3 in s\n")
        assert lint_source("x.py", source, VerifyResult()).ok

    def test_flags_unsorted_listdir(self):
        source = ("import os\n"
                  "def f():\n"
                  "    return [p for p in os.listdir('.')]\n")
        result = lint_source("x.py", source, VerifyResult())
        assert "unordered-fs-iteration" in _invariants(result)

    def test_sorted_listdir_allowed(self):
        source = ("import os\n"
                  "def f():\n"
                  "    return sorted(p for p in os.listdir('.'))\n")
        assert lint_source("x.py", source, VerifyResult()).ok

    def test_suppression_comment(self):
        source = ("def f(xs):\n"
                  "    s = set(xs)\n"
                  "    for x in s:  # lint: ordered\n"
                  "        print(x)\n")
        assert lint_source("x.py", source, VerifyResult()).ok


# -- sweep and CLI -----------------------------------------------------------------


class TestSweepAndCli:
    def test_sweep_single_benchmark(self):
        report = run_sweep(benchmarks=["fir"], levels=(1,))
        assert report.ok and report.checks > 1000
        text = render_markdown(report)
        assert "| fir | 1 |" in text
        assert "0 cell(s) failed" in text

    def test_cli_verify(self, capsys):
        from repro.cli import main
        code = main(["verify", "--benchmarks", "iir", "--levels", "0",
                     "--skip-lint"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Static artifact verification" in out

    def test_cli_cache_show_verify(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
        diskcache.reset_cache_state()
        generate_module(_graph_module())
        code = main(["cache", "show", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "well-formed" in out
        diskcache.reset_cache_state()
