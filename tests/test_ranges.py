"""Value-range abstract interpretation as a static verifier.

Covers the interval domain in isolation, the whole-module analysis, the
sweep/CLI surface (``repro verify --ranges`` / ``--json``) and the
contract that code generation never runs the analysis.
"""

from __future__ import annotations

import json

from repro.analysis import ranges as R
from repro.analysis.sweep import report_json, run_sweep
from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.codegen import generate_module
from repro.sim.lanes import generate_lane_module
from repro.sim.machine import run_module, run_module_batch

# Same FIR-like kernel as tests/conftest.py (duplicated: importing from
# conftest is ambiguous when other conftests share the collection path).
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

# A definite out-of-bounds read: constant index 12 into an 8-element
# array, no input can make it legal.
OOB_SOURCE = """
int x[8];

int main() {
    return x[12];
}
"""


def _graph_module(source=FIR_LIKE_SOURCE, level=2, name="t"):
    module = compile_source(source, name)
    gm, _ = optimize_module(module, OptLevel(level))
    return gm


# -- interval domain ---------------------------------------------------------------


class TestIntervalDomain:
    def test_join_meet(self):
        assert R._join_iv((0, 3), (2, 9)) == (0, 9)
        assert R._join_iv((None, 3), (2, 9)) == (None, 9)
        assert R._meet_iv((0, 9), (4, None)) == (4, 9)
        assert R._meet_iv((0, 3), (5, 9)) is None  # empty = dead edge

    def test_arithmetic(self):
        assert R._add_iv((1, 2), (10, 20)) == (11, 22)
        assert R._sub_iv((1, 2), (10, 20)) == (-19, -8)
        assert R._neg_iv((1, 2)) == (-2, -1)
        assert R._mul_iv((-2, 3), (4, 5)) == (-10, 15)
        assert R._mul_iv((0, None), (1, 1)) == R.TOP

    def test_widening_thresholds(self):
        # growing upper bound jumps to +inf, stable bounds survive
        assert R._widen_iv((0, 4), (0, 5)) == (0, None)
        assert R._widen_iv((0, 4), (0, 4)) == (0, 4)
        # shrinking lower bound pauses at the 0 threshold first
        assert R._widen_iv((2, 4), (1, 4)) == (0, 4)
        assert R._widen_iv((0, 4), (-1, 4)) == (None, 4)

    def test_classification(self):
        assert R._classify((0, 7), 8) == R.SAFE
        assert R._classify((0, 8), 8) == R.UNKNOWN
        assert R._classify((8, 12), 8) == R.UNSAFE
        assert R._classify((None, 7), 8) == R.UNKNOWN
        assert R._classify(None, 8) == R.UNKNOWN
        assert R._classify((0, 7), None) == R.UNKNOWN

    def test_refinement_narrows_on_both_edges(self):
        env = {3: (0, 100)}
        pred = ("cmp", "lt", ("r", 3), ("c", 10))
        assert R._refine(env, pred, True)[3] == (0, 9)
        assert R._refine(env, pred, False)[3] == (10, 100)

    def test_refinement_kills_dead_edge(self):
        env = {3: (20, 30)}
        pred = ("cmp", "lt", ("r", 3), ("c", 10))
        assert R._refine(env, pred, True) is None
        assert R._refine(env, pred, False)[3] == (20, 30)

    def test_truth_refinement_excludes_zero(self):
        env = {2: (0, 5)}
        assert R._refine(env, ("truth", 2), True)[2] == (1, 5)
        assert R._refine(env, ("truth", 2), False)[2] == (0, 0)
        assert R._refine({2: (0, 0)}, ("truth", 2), True) is None


# -- whole-module analysis ---------------------------------------------------------


class TestModuleAnalysis:
    def test_fir_like_proves_safe_loads(self):
        gm = _graph_module()
        mranges = R.analyze_module(gm)
        counts = mranges.counts()
        assert counts[R.SAFE] > 0
        assert counts[R.UNSAFE] == 0
        assert not mranges.unsafe_accesses()
        # the loop-bound premises are global scalars with stable values
        assert mranges.premises  # n / taps used to bound the loops

    def test_oob_program_classified_unsafe(self):
        gm = _graph_module(OOB_SOURCE)
        mranges = R.analyze_module(gm)
        assert mranges.counts()[R.UNSAFE] == 1
        [(graph, proof)] = mranges.unsafe_accesses()
        assert proof.index_interval == (12, 12)
        assert proof.length == 8


# -- sweep / CLI surface -----------------------------------------------------------


class TestVerifySurface:
    def test_sweep_reports_range_counts(self):
        report = run_sweep(benchmarks=["fir"], levels=[1],
                           tiers=("bytecode",), ranges=True)
        assert report.ok
        counts = report.ranges[("fir", 1)]
        assert counts[R.SAFE] > 0 and counts[R.UNSAFE] == 0

    def test_sweep_flags_seeded_oob_statically(self, monkeypatch):
        from repro.suite import registry
        from repro.suite.registry import BenchmarkSpec
        spec = BenchmarkSpec(
            name="oob", description="seeded out-of-bounds read",
            data_description="none", source=OOB_SOURCE,
            inputs=(), outputs=(), generator=lambda seed: {})
        monkeypatch.setitem(registry._REGISTRY, "oob", spec)
        # tiers=() : nothing is executed or even code-generated — the
        # UNSAFE verdict comes from the analysis alone
        report = run_sweep(benchmarks=["oob"], levels=[0], tiers=(),
                           ranges=True)
        assert not report.ok
        assert report.ranges[("oob", 0)][R.UNSAFE] == 1
        invariants = {v.invariant for _, v in report.violations}
        assert invariants == {"bounds-unsafe"}

    def test_report_json_shape(self):
        report = run_sweep(benchmarks=["fir"], levels=[1],
                           tiers=("bytecode",), ranges=True)
        doc = report_json(report)
        text = json.dumps(doc)  # must be serializable
        doc = json.loads(text)
        assert doc["ok"] is True
        assert doc["ranges"][0]["benchmark"] == "fir"
        assert {"SAFE", "UNKNOWN", "UNSAFE"} <= set(doc["ranges"][0])

    def test_cli_verify_json(self, capsys):
        from repro.cli import main
        rc = main(["verify", "--benchmarks", "fir", "--levels", "1",
                   "--tiers", "bytecode", "--ranges", "--json",
                   "--skip-lint"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["ranges"]


# -- generation path: the analysis never runs ------------------------------------


def _same_result(a, b):
    assert a.return_value == b.return_value
    assert a.globals_after == b.globals_after
    assert vars(a.profile) == vars(b.profile)


def test_generation_never_runs_range_analysis(monkeypatch, tmp_path):
    """Codegen and lanes generate and run fir L2 with the analysis
    broken; both still match the reference oracle."""
    from repro.sim import diskcache
    from repro.suite.registry import get_benchmark
    from repro.suite.runner import compile_benchmark

    def refuse(*_args, **_kwargs):
        raise AssertionError("range analysis ran during generation")

    monkeypatch.setattr(R, "analyze_lowered", refuse)
    # An empty cache: every module below is generated, not loaded.
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
    diskcache.reset_cache_state()
    try:
        spec = get_benchmark("fir")
        batch = [spec.generate_inputs(seed) for seed in range(3)]

        def fresh():
            gm, _ = optimize_module(compile_benchmark(spec), OptLevel(2))
            return gm

        gm = fresh()
        generate_module(gm)
        _same_result(run_module(gm, batch[0], engine="codegen"),
                     run_module(fresh(), batch[0], engine="reference"))
        gm = fresh()
        generate_lane_module(gm, len(batch))
        lanes = run_module_batch(gm, batch, engine="lanes")
        for got, inputs in zip(lanes, batch):
            _same_result(got, run_module(fresh(), inputs,
                                         engine="reference"))
        stores = diskcache.get_cache().stores
        assert stores["codegen"] == 1 and stores["lanes"] == 1
    finally:
        diskcache.reset_cache_state()
