"""The design-point measurement kernel simulates each fused program once.

Finalists that fuse the same sites yield the same fused program, and
:func:`repro.asip.evaluate.measure_chain_sets` groups them by
``module_digest`` so each distinct program is simulated once per call.
fir at budget 1000 (seed 0) is the pinned example: 4 finalists, 2
distinct fused programs, areas 695/955/995/995.  pse at budget 2000 has
4 finalists that all fuse nothing, so they share 1 program.
"""

import pytest

import repro.asip.evaluate as evaluate_mod
from repro.asip import select as select_mod
from repro.asip.evaluate import evaluate_on_sequential, measure_chain_sets
from repro.asip.explore import explore_designs
from repro.asip.resequence import resequence_module
from repro.errors import AsipError, SimulationError
from repro.feedback.study import FrontierStudyConfig, run_frontier_study
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.diskcache import module_digest
from repro.suite.registry import get_benchmark
from repro.suite.runner import compile_benchmark


def _explore(name, budget, jobs=1):
    spec = get_benchmark(name)
    return explore_designs(compile_benchmark(spec), spec.generate_inputs(0),
                           area_budget=budget, jobs=jobs)


def _projection(point):
    evaluation = point.evaluation
    return (tuple(point.labels()), evaluation.base_cycles,
            evaluation.chained_cycles, evaluation.extension_area,
            evaluation.selection.sites, evaluation.selection.nodes_removed,
            evaluation.chain_issues)


@pytest.fixture
def simulations(monkeypatch):
    """Digest of every module the measurement kernel simulates."""
    seen = []
    original = evaluate_mod.run_module_batch_auto

    def counting(module, *args, **kwargs):
        seen.append(module_digest(module))
        return original(module, *args, **kwargs)

    def counting_single(module, *args, **kwargs):
        seen.append(module_digest(module))
        from repro.sim.machine import run_module
        return run_module(module, *args, **kwargs)

    monkeypatch.setattr(evaluate_mod, "run_module_batch_auto", counting)
    # Any per-design-point single run the evaluator might make is
    # counted too, so a kernel that stops grouping fails here.
    monkeypatch.setattr(evaluate_mod, "run_module", counting_single,
                        raising=False)
    return seen


class TestOneSimulationPerProgram:
    def test_explore_designs_runs_base_plus_distinct_programs(
            self, simulations):
        result = _explore("fir", 1000)
        assert [point.area for point in result.measured] == \
            [695, 955, 995, 995]
        # 1 base + 2 distinct fused programs, not 1 + 4.
        assert len(simulations) == 3
        assert len(set(simulations[1:])) == 2

    def test_design_points_match_independent_evaluation(self):
        spec = get_benchmark("fir")
        module = compile_benchmark(spec)
        inputs = spec.generate_inputs(0)
        result = explore_designs(module, inputs, area_budget=1000, jobs=1)
        graph_module, _ = optimize_module(module, OptLevel.PIPELINED,
                                          unroll_factor=2)
        sequential = resequence_module(graph_module)
        for point in result.measured:
            alone = evaluate_on_sequential(sequential, point.isa, inputs)
            got = point.evaluation
            assert got.base_cycles == alone.base_cycles
            assert got.chained_cycles == alone.chained_cycles
            assert got.extension_area == alone.extension_area
            assert got.selection.sites == alone.selection.sites
            assert got.chain_issues == alone.chain_issues

    def test_shared_program_keeps_each_point_own_isa(self):
        result = _explore("pse", 2000)
        assert len(result.measured) == 4
        assert len({point.area for point in result.measured}) == 4
        assert all(point.evaluation.selection.total_sites == 0
                   for point in result.measured)

    def test_frontier_simulates_each_distinct_program_once(
            self, simulations):
        frontier = run_frontier_study(FrontierStudyConfig(
            benchmarks=("fir", "pse"), jobs=1))
        design_points = sum(len(bench.designs)
                            for bench in frontier.benchmarks.values())
        # The frontier derives its base results from the VLIW run, so
        # every kernel simulation here is a fused program.
        assert len(simulations) == len(set(simulations))
        assert len(simulations) < design_points

    def test_empty_chain_set_list_simulates_nothing(self, simulations):
        spec = get_benchmark("fir")
        graph_module, _ = optimize_module(compile_benchmark(spec),
                                          OptLevel.PIPELINED)
        sequential = resequence_module(graph_module)
        assert measure_chain_sets(sequential, [],
                                  [spec.generate_inputs(0)]) == []
        assert simulations == []


class TestParallelMeasurement:
    # Maps of <= 2 items run serially, so sewha at budget 2500 (3
    # distinct fused programs) is the case that reaches the pool.
    @pytest.mark.parametrize("name,budget", [("fir", 1000), ("pse", 2000),
                                             ("sewha", 2500)])
    def test_jobs_2_identical_to_jobs_1(self, name, budget):
        serial = _explore(name, budget, jobs=1)
        parallel = _explore(name, budget, jobs=2)
        assert [_projection(p) for p in parallel.measured] == \
            [_projection(p) for p in serial.measured]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sabotaged_fusion_raises_through_the_kernel(self, monkeypatch,
                                                        jobs):
        original_fuse = select_mod._fuse_run

        def sabotaged(graph, run, chain):
            original_fuse(graph, run, chain)
            # Drop the last part of the freshly fused instruction.
            graph.nodes[run[0]].ops[0].parts.pop()

        monkeypatch.setattr(select_mod, "_fuse_run", sabotaged)
        with pytest.raises((AsipError, SimulationError)):
            _explore("sewha", 2500, jobs=jobs)
