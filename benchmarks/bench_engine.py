"""Engine micro-benchmarks: throughput of the toolchain's hot stages.

These are performance benchmarks for the reproduction's own machinery
(front end, simulator, percolation, detector) on a mid-sized benchmark —
the numbers a contributor watches for regressions.
"""

import pytest

from repro.cfg.build import build_module_graphs
from repro.chaining.detect import detect_sequences
from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel, optimize_module
from repro.opt.percolation import compact_graph
from repro.sim.machine import run_module, run_module_batch
from repro.suite.registry import get_benchmark
from repro.suite.runner import compile_benchmark


@pytest.fixture(scope="module")
def edge_spec():
    return get_benchmark("edge")


@pytest.fixture(scope="module")
def edge_module(edge_spec):
    return compile_benchmark(edge_spec)


@pytest.fixture(scope="module")
def edge_level1(edge_module, edge_spec):
    gm, _ = optimize_module(edge_module, OptLevel.PIPELINED)
    result = run_module(gm, edge_spec.generate_inputs(0))
    return gm, result


def test_frontend_throughput(benchmark, edge_spec):
    module = benchmark(compile_source, edge_spec.source, "edge")
    assert module.total_instructions() > 100


def test_graph_build_throughput(benchmark, edge_module):
    gm = benchmark(build_module_graphs, edge_module)
    assert gm.total_nodes() > 100


def test_compaction_throughput(benchmark, edge_module):
    def compact_fresh():
        gm = build_module_graphs(edge_module)
        for g in gm.graphs.values():
            compact_graph(g)
        return gm

    gm = benchmark(compact_fresh)
    assert any(len(n.ops) > 1 for g in gm.graphs.values()
               for n in g.nodes.values())


def test_simulator_throughput(benchmark, edge_module, edge_spec):
    """Reference interpreter baseline (the pre-engine hot path)."""
    gm = build_module_graphs(edge_module)
    inputs = edge_spec.generate_inputs(0)
    result = benchmark(run_module, gm, inputs, engine="reference")
    assert result.cycles > 10_000


def test_simulator_throughput_compiled(benchmark, edge_module, edge_spec):
    """Compiled engine on the same workload; the ratio against
    ``test_simulator_throughput`` is the engine speedup (target >= 3x)."""
    gm = build_module_graphs(edge_module)
    inputs = edge_spec.generate_inputs(0)
    # compile once outside the timed region (engine pinned so the
    # numbers are stable under any REPRO_ENGINE)
    run_module(gm, inputs, engine="compiled")
    result = benchmark(run_module, gm, inputs, engine="compiled")
    assert result.cycles > 10_000


def test_simulator_throughput_bytecode(benchmark, edge_module, edge_spec):
    """Bytecode engine on the same workload; the ratio against
    ``test_simulator_throughput_compiled`` is the tier-3 speedup
    (target >= 1.5x)."""
    gm = build_module_graphs(edge_module)
    inputs = edge_spec.generate_inputs(0)
    run_module(gm, inputs, engine="bytecode")  # lower once outside timing
    result = benchmark(run_module, gm, inputs, engine="bytecode")
    assert result.cycles > 10_000


def test_simulator_throughput_codegen(benchmark, edge_module, edge_spec):
    """Codegen engine on the same workload; the ratio against
    ``test_simulator_throughput_bytecode`` is the tier-4 speedup
    (target >= 1.5x)."""
    gm = build_module_graphs(edge_module)
    inputs = edge_spec.generate_inputs(0)
    run_module(gm, inputs, engine="codegen")  # generate once outside
    result = benchmark(run_module, gm, inputs, engine="codegen")
    assert result.cycles > 10_000


#: The acceptance pairs: per-benchmark, per-level columns in the bench
#: JSON so the >= 1.5x tier-over-tier simulator speedups are recorded at
#: every optimization level, not just the sequential graphs.
SIM_BENCHES = ("edge", "sewha")
SIM_LEVELS = (0, 1, 2)


def _optimized(name, level):
    spec = get_benchmark(name)
    gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
    return gm, spec.generate_inputs(0)


@pytest.mark.parametrize("name", SIM_BENCHES)
def test_sim_compiled(benchmark, name):
    gm, inputs = _optimized(name, 0)
    run_module(gm, inputs, engine="compiled")
    result = benchmark(run_module, gm, inputs, engine="compiled")
    assert result.cycles > 1_000


@pytest.mark.parametrize("level", SIM_LEVELS)
@pytest.mark.parametrize("name", SIM_BENCHES)
def test_sim_bytecode(benchmark, name, level):
    """Paired with ``test_sim_codegen[name-level]``: the bytecode/codegen
    ratio per cell is the recorded tier-4 speedup."""
    gm, inputs = _optimized(name, level)
    run_module(gm, inputs, engine="bytecode")
    result = benchmark(run_module, gm, inputs, engine="bytecode")
    assert result.cycles > 500


@pytest.mark.parametrize("level", SIM_LEVELS)
@pytest.mark.parametrize("name", SIM_BENCHES)
def test_sim_codegen(benchmark, name, level):
    """The tier-4 acceptance leg: >= 1.5x over the matching
    ``test_sim_bytecode[name-level]`` on edge/sewha at levels 0-2."""
    gm, inputs = _optimized(name, level)
    run_module(gm, inputs, engine="codegen")
    result = benchmark(run_module, gm, inputs, engine="codegen")
    assert result.cycles > 500


#: Batch width for the lane-vs-per-seed legs — the smallest batch the
#: auto-upgrade reroutes to the lane tier (``LANE_SHARD_MIN``), i.e. the
#: least favorable many-seed shape for lanes.
BATCH_SEEDS = tuple(range(8))


def _batch_cell(name, level):
    spec = get_benchmark(name)
    gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
    return gm, [spec.generate_inputs(s) for s in BATCH_SEEDS]


@pytest.mark.parametrize("level", SIM_LEVELS)
@pytest.mark.parametrize("name", SIM_BENCHES)
def test_sim_batch_codegen(benchmark, name, level):
    """Eight seeds as eight per-seed codegen runs through one batch: the
    denominator of the lane speedup (paired with
    ``test_sim_batch_lanes[name-level]``)."""
    gm, inputs_list = _batch_cell(name, level)
    run_module_batch(gm, inputs_list, engine="codegen")  # generate once
    results = benchmark(run_module_batch, gm, inputs_list,
                        engine="codegen")
    assert len(results) == len(BATCH_SEEDS)


@pytest.mark.parametrize("level", SIM_LEVELS)
@pytest.mark.parametrize("name", SIM_BENCHES)
def test_sim_batch_lanes(benchmark, name, level):
    """The tier-5 acceptance leg: the same eight seeds in one
    lane-parallel pass, target >= 2x over the matching
    ``test_sim_batch_codegen[name-level]`` (recorded in
    ``benchmarks/results/bench_lanes.json``)."""
    gm, inputs_list = _batch_cell(name, level)
    run_module_batch(gm, inputs_list, engine="lanes")  # generate once
    results = benchmark(run_module_batch, gm, inputs_list, engine="lanes")
    assert len(results) == len(BATCH_SEEDS)


def test_simulator_compile_cost(benchmark, edge_module):
    """Cost of one cold compilation (paid once per module thanks to the
    on-module cache)."""
    from repro.sim.engine import CompiledModule

    gm = build_module_graphs(edge_module)
    compiled = benchmark(CompiledModule, gm)
    assert compiled.graphs


def test_simulator_lowering_cost(benchmark, edge_module):
    """Cost of one cold bytecode lowering (cached like the compiled
    form, stripped and rebuilt per worker at pickle boundaries)."""
    from repro.sim.engine import LoweredModule

    gm = build_module_graphs(edge_module)
    lowered = benchmark(LoweredModule, gm)
    assert lowered.graphs


def test_simulator_codegen_cost(benchmark, edge_module):
    """Cost of one cold source generation + exec-compile (cached under
    the same structural signature as the other compiled forms)."""
    from repro.sim.codegen import GeneratedModule

    gm = build_module_graphs(edge_module)
    generated = benchmark(GeneratedModule, gm)
    assert generated.fns


def test_simulator_lanegen_cost(benchmark, edge_module):
    """Cost of one cold lane-module generation at width 8 (cached per
    width, in memory and on disk, so a study pays it once per cell)."""
    from repro.sim.lanes import LaneModule

    gm = build_module_graphs(edge_module)
    lanes = benchmark(LaneModule, gm, 8)
    assert lanes.fns


def _explore_edge(edge_module, edge_spec, engine):
    from repro.asip.explore import explore_designs

    result = explore_designs(edge_module, edge_spec.generate_inputs(0),
                             area_budget=2500, engine=engine)
    assert result.measured
    return result


def test_exploration_end_to_end(benchmark, edge_module, edge_spec):
    """Full design-space exploration on the compiled engine (cached base
    simulation + compilation reuse across finalists)."""
    result = benchmark.pedantic(
        _explore_edge, args=(edge_module, edge_spec, "compiled"),
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.best is not None


def test_exploration_end_to_end_reference(benchmark, edge_module, edge_spec):
    """Same exploration on the reference interpreter, for the ratio."""
    result = benchmark.pedantic(
        _explore_edge, args=(edge_module, edge_spec, "reference"),
        rounds=2, iterations=1)
    assert result.best is not None


def test_exploration_end_to_end_bytecode(benchmark, edge_module, edge_spec):
    """Same exploration on the bytecode tier (shared base simulation +
    lowered-form reuse across finalists)."""
    result = benchmark.pedantic(
        _explore_edge, args=(edge_module, edge_spec, "bytecode"),
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.best is not None


def test_exploration_end_to_end_codegen(benchmark, edge_module, edge_spec):
    """Same exploration on the codegen tier (shared base simulation +
    generated-source reuse across finalists)."""
    result = benchmark.pedantic(
        _explore_edge, args=(edge_module, edge_spec, "codegen"),
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.best is not None


def test_detector_throughput(benchmark, edge_level1):
    gm, result = edge_level1
    detection = benchmark(detect_sequences, gm, result.profile,
                          (2, 3, 4, 5))
    assert detection.stats.occurrences_found > 0
