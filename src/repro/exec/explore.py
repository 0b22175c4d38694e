"""The suite-wide exploration executor: benchmark × budget on the pool.

:func:`repro.feedback.study.run_exploration_study` lands here.  The
paper's exploration loop (:func:`repro.asip.explore.explore_designs`)
is estimate-then-measure for *one* benchmark and *one* area budget;
this module schedules the whole matrix as dependency tasks on the same
persistent pool the study executor uses:

* one **base task** per benchmark — optimize at the study level, run
  *one* simulation batch over every seed (lane-parallel past the shard
  threshold), detect sequences on the primary seed's profile, build the
  budget-agnostic candidate pool, and re-sequentialize.  The unchained
  single-issue base results are *derived* from that batch rather than
  simulated again: re-sequentialization preserves semantics (outputs
  are shared — and still independently guarded by the fused-vs-base
  check inside every evaluation), and the chain expansion recorded by
  :func:`~repro.asip.resequence.resequence_module_mapped` determines
  the sequential node counts, hence the exact single-issue cycle
  count, from the VLIW profile.  This is the part every budget of a
  benchmark shares, so it runs exactly once — and it is one simulation
  per seed, not two (nor the former batch-plus-primary-profile run);
* one **measurement task** per (benchmark, budget) cell — gated on the
  benchmark's base task, whose result arrives as a bound argument the
  moment it completes.  The cell re-derives its finalist subsets with
  the same pure helpers the per-benchmark loop uses
  (:func:`~repro.asip.explore.rank_candidates` /
  :func:`~repro.asip.explore.select_finalists`) and measures each
  finalist ISA against the shipped base-processor results;
* multi-seed configurations **shard by seed** exactly like study cells
  (:func:`repro.exec.study.shard_seeds`): each shard measures every
  finalist on its contiguous seed slice against the matching slice of
  the base results, and the parent reassembles per-seed evaluations in
  seed order before folding them
  (:func:`~repro.asip.evaluate.merge_evaluations`).

Tasks carry the benchmark as their scheduler *affinity* and resolve
the front-end/optimize/re-sequentialize derivations through the
per-worker memo (:func:`repro.exec.pool.worker_cached`, bounded per
operation by the epoch protocol), so a benchmark's base and its budget
cells typically share one compile per worker.  Results are reassembled
in canonical (benchmark, budget) order, never completion order — which
is what makes ``jobs=N`` bit-identical to ``jobs=1`` and both identical
to running ``explore_designs`` per benchmark, pinned by
``tests/test_explore_study.py``.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro.asip.cost import DEFAULT_COST_MODEL
from repro.asip.evaluate import measure_chain_sets, merge_evaluations
from repro.asip.explore import (DesignPoint, ExplorationResult, _isa_for,
                                candidate_pool, frontier_sweep,
                                rank_candidates, select_finalists)
from repro.asip.resequence import resequence_module_mapped
from repro.chaining.detect import detect_sequences
from repro.errors import SimulationError
from repro.exec.pool import next_epoch, sync_epoch, worker_cached
from repro.exec.scheduler import Task, run_tasks
from repro.exec.study import _optimized_cell, shard_seeds
from repro.opt.pipeline import OptLevel
from repro.sim.machine import MachineResult, run_module_batch_auto
from repro.sim.profile import ProfileData
from repro.suite.registry import get_benchmark

def _sequential_module(name: str, level: int, unroll_factor: int):
    """The benchmark's re-sequentialized optimized module plus its node
    expansion map, memoized per process (the base-processor program
    every finalist is measured against; shares the study executor's
    per-worker optimize memo)."""
    def build():
        graph_module, _report = _optimized_cell(name, level, unroll_factor)
        return resequence_module_mapped(graph_module)
    return worker_cached(("sequential", name, level, unroll_factor), build)


def _derived_base_result(graph_result: MachineResult, mapping,
                         entry_name: str,
                         max_cycles: int = 200_000_000) -> MachineResult:
    """One seed's single-issue base result, derived from its VLIW run.

    Outputs and return value carry over unchanged (re-sequentialization
    preserves semantics; every evaluation's fused-vs-base check still
    guards this independently).  Node counts expand through the chain
    map — each sequential node executes exactly as often as the
    original node it was split from — giving the exact cycle count the
    sequential simulation would have measured.  Edge counts are left
    empty: nothing downstream of the base result reads them.
    """
    profile = ProfileData()
    for fn, counts in graph_result.profile.node_counts.items():
        chain_map = mapping.get(fn)
        if not chain_map:
            continue
        seq_counts: dict = {}
        for nid, count in counts.items():
            for snid in chain_map.get(nid, ()):
                seq_counts[snid] = count
        if seq_counts:
            profile.node_counts[fn] = seq_counts
    profile.call_counts = dict(graph_result.profile.call_counts)
    if profile.total_cycles() > max_cycles:
        raise SimulationError(
            f"cycle limit ({max_cycles}) exceeded; "
            f"infinite loop in {entry_name!r}?")
    return MachineResult(graph_result.return_value,
                         graph_result.globals_after, profile)


def _explore_base(name: str, level: int, lengths: Tuple[int, ...],
                  seed: int, seeds: Optional[Tuple[int, ...]],
                  unroll_factor: int, engine: str,
                  epoch: Optional[int] = None):
    """Per-benchmark budget-independent stage (module-level: runs in
    pool workers).

    Returns ``(candidate pool, per-seed base-processor results, total
    dynamic ops)`` — everything a budget cell cannot cheaply re-derive,
    plus the benchmark's share of suite execution the cross-benchmark
    aggregation weights by.  Profiling and sequence detection use the
    primary seed, exactly like the study matrix and the per-benchmark
    loop; all seeds ride one batch of the optimized graph
    (lane-parallel past the shard threshold) and the sequential base
    results are derived from it, one simulation per seed total.
    """
    sync_epoch(epoch)
    spec = get_benchmark(name)
    graph_module, _report = _optimized_cell(name, level, unroll_factor)
    seed_list = seeds if seeds else (seed,)
    graph_results = run_module_batch_auto(
        graph_module, [spec.generate_inputs(s) for s in seed_list],
        engine=engine)
    detection = detect_sequences(graph_module, graph_results[0].profile,
                                 lengths)
    pool = candidate_pool(detection, DEFAULT_COST_MODEL)
    _sequential, mapping = _sequential_module(name, level, unroll_factor)
    base_results = tuple(
        _derived_base_result(result, mapping, graph_module.entry.name)
        for result in graph_results)
    return pool, base_results, detection.total_ops


def _measure_pattern_sets(name: str, level: int,
                          shard: Optional[Tuple[int, ...]], seed: int,
                          unroll_factor: int, engine: str,
                          pattern_sets: Sequence[Tuple], base_results
                          ) -> Tuple:
    """Measure each chain set of *pattern_sets* on one seed slice.

    The shared measurement step of both executor shapes: a budget cell
    measures its finalist subsets, a frontier chunk measures its slice
    of the deduplicated breakpoint chain sets — same inputs, same base
    results, same ``(isa, per-seed evaluations)`` tuples out, in the
    order given.  :func:`~repro.asip.evaluate.measure_chain_sets`
    simulates each distinct fused program among them once.
    """
    sequential, _mapping = _sequential_module(name, level, unroll_factor)
    spec = get_benchmark(name)
    inputs_list = [spec.generate_inputs(s)
                   for s in (shard if shard is not None else (seed,))]
    isas = [_isa_for(patterns, DEFAULT_COST_MODEL)
            for patterns in pattern_sets]
    measured = measure_chain_sets(sequential, isas, inputs_list,
                                  DEFAULT_COST_MODEL,
                                  base_results=base_results, engine=engine)
    return tuple(zip(isas, measured))


def _measure_cell(name: str, level: int, budget: int,
                  shard: Optional[Tuple[int, ...]], seed: int,
                  unroll_factor: int, engine: str, max_candidates: int,
                  measure_top: int, epoch: Optional[int] = None,
                  base=None) -> Tuple:
    """Measure every finalist of one (benchmark, budget) cell on this
    task's seed slice (module-level: runs in pool workers).

    ``base`` is bound by the scheduler: the benchmark's candidate pool
    plus the base-processor results for exactly this shard's seeds.
    Returns one ``(isa, per-seed evaluations)`` pair per finalist, in
    the canonical finalist order.
    """
    sync_epoch(epoch)
    pool, base_results = base
    candidates = rank_candidates(pool, budget, max_candidates)
    if not candidates:
        return ()
    combos = select_finalists(candidates, budget, measure_top)
    pattern_sets = [tuple(candidates[i].pattern for i in combo)
                    for combo in combos]
    return _measure_pattern_sets(name, level, shard, seed, unroll_factor,
                                 engine, pattern_sets, base_results)


def _shard_bounds(shards: List[Optional[Tuple[int, ...]]]
                  ) -> List[Tuple[int, Optional[int]]]:
    """Per-shard ``(lo, hi)`` slice of the base-results tuple."""
    if shards == [None]:
        return [(0, None)]  # single seed or unsharded batch: everything
    bounds: List[Tuple[int, Optional[int]]] = []
    at = 0
    for shard in shards:
        bounds.append((at, at + len(shard)))
        at += len(shard)
    return bounds


def build_exploration_schedule(config, names: Sequence[str], jobs: int = 1,
                               epoch: Optional[int] = None) -> List[Task]:
    """The task DAG for one exploration study (importable for tests).

    Every benchmark contributes one base task plus one measurement task
    per (budget, seed shard); measurement tasks depend on their
    benchmark's base.  ``jobs`` only informs seed sharding — the
    schedule is valid on any worker count.
    """
    names = list(dict.fromkeys(names))
    budgets = list(dict.fromkeys(config.budgets))
    shards = shard_seeds(config.seeds, jobs)
    bounds = _shard_bounds(shards)
    level = int(OptLevel(config.level))
    tasks: List[Task] = []
    for name in names:
        base_key: Hashable = ("base", name)
        tasks.append(Task(
            key=base_key, fn=_explore_base,
            args=(name, level, config.lengths, config.seed, config.seeds,
                  config.unroll_factor, config.engine, epoch),
            affinity=name))
        for budget in budgets:
            for j, shard in enumerate(shards):
                def bind(args, results, _dep=base_key, _b=bounds[j]):
                    pool, base_results, _total_ops = results[_dep]
                    lo, hi = _b
                    sliced = base_results[lo:] if hi is None \
                        else base_results[lo:hi]
                    return args + ((pool, sliced),)
                tasks.append(Task(
                    key=("fin", name, budget, j), fn=_measure_cell,
                    args=(name, level, budget, shard, config.seed,
                          config.unroll_factor, config.engine,
                          config.max_candidates, config.measure_top,
                          epoch),
                    deps=(base_key,), bind=bind, affinity=name))
    return tasks


def execute_exploration_study(config, jobs: int,
                              progress: Optional[
                                  Callable[[str, str], None]] = None,
                              stats=None):
    """Run the benchmark × budget matrix on *jobs* workers; see
    :func:`repro.feedback.study.run_exploration_study` for the public
    entry point (and :data:`repro.feedback.study.ExploreProgressFn` for
    the progress-callback contract).  ``stats`` collects scheduler
    accounting (see :func:`repro.exec.study.execute_study`)."""
    from repro.feedback.study import ExplorationStudyResult
    from repro.suite.registry import all_benchmarks

    names = (list(dict.fromkeys(config.benchmarks))
             if config.benchmarks is not None
             else [spec.name for spec in all_benchmarks()])
    for name in names:  # fail on unknown names before any worker spawns
        get_benchmark(name)
    budgets = list(dict.fromkeys(config.budgets))

    on_start = None
    if progress is not None:
        def on_start(key):
            if key[0] == "base":
                progress(key[1], "base")
            elif key[3] == 0:  # extra shards are internal to their cell
                progress(key[1], f"budget {key[2]}")

    shards = shard_seeds(config.seeds, jobs)
    cells = run_tasks(
        build_exploration_schedule(config, names, jobs=jobs,
                                   epoch=next_epoch()),
        jobs=jobs, on_start=on_start, stats=stats)

    result = ExplorationStudyResult(config=config)
    for name in names:
        pool, _base_results, _total_ops = cells[("base", name)]
        for budget in budgets:
            candidates = rank_candidates(pool, budget,
                                         config.max_candidates)
            exploration = ExplorationResult(candidates=candidates)
            if candidates:
                shard_cells = [cells[("fin", name, budget, j)]
                               for j in range(len(shards))]
                for i, (isa, first_evals) in enumerate(shard_cells[0]):
                    evals = list(first_evals)
                    for cell in shard_cells[1:]:
                        evals.extend(cell[i][1])
                    evaluation = merge_evaluations(tuple(evals)) \
                        if config.seeds else evals[0]
                    exploration.measured.append(
                        DesignPoint(isa=isa, evaluation=evaluation))
            result.explorations[(name, budget)] = exploration
    return result


# -- the frontier sweep as an executor stage ---------------------------------------
#
# :func:`repro.feedback.study.run_frontier_study` lands here.  Instead
# of one measurement task per (budget, shard) cell, each benchmark gets
# one *frontier task* — gated on the same base task — that walks the
# candidate pool once (:func:`~repro.asip.explore.frontier_sweep`), and
# the deduplicated breakpoint chain sets fan out as measurement chunks:
# every distinct chain set on the frontier is measured exactly once per
# seed shard, however many budgets it answers.


def _frontier_stage(max_candidates: int, measure_top: int,
                    max_budget: Optional[int], epoch: Optional[int] = None,
                    base=None):
    """One benchmark's breakpoint sweep (module-level: runs in pool
    workers).  ``base`` is bound by the scheduler from the base task."""
    sync_epoch(epoch)
    pool, _base_results, _total_ops = base
    return frontier_sweep(pool, max_candidates=max_candidates,
                          measure_top=measure_top, max_budget=max_budget)


def _measure_frontier_chunk(name: str, level: int,
                            shard: Optional[Tuple[int, ...]], seed: int,
                            unroll_factor: int, engine: str,
                            epoch: Optional[int] = None,
                            work=None) -> Tuple:
    """Measure one chunk of a benchmark's frontier chain sets on this
    task's seed slice (module-level: runs in pool workers).

    ``work`` is bound by the scheduler: this chunk's slice of the
    frontier's deduplicated chain sets plus the base-processor results
    for exactly this shard's seeds.  Empty chunks (fewer chain sets
    than chunks) return ``()``.
    """
    sync_epoch(epoch)
    pattern_sets, base_results = work
    if not pattern_sets:
        return ()
    return _measure_pattern_sets(name, level, shard, seed, unroll_factor,
                                 engine, pattern_sets, base_results)


def _chunk_bounds(count: int, chunks: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` slices splitting *count* items into
    *chunks* parts (trailing chunks may be empty); deterministic in its
    arguments, like :func:`repro.exec.study.shard_seeds`."""
    base, rem = divmod(count, chunks)
    bounds = []
    at = 0
    for i in range(chunks):
        size = base + (1 if i < rem else 0)
        bounds.append((at, at + size))
        at += size
    return bounds


def build_frontier_schedule(config, names: Sequence[str], jobs: int = 1,
                            epoch: Optional[int] = None) -> List[Task]:
    """The task DAG for one frontier study (importable for tests).

    Per benchmark: the shared base task, one frontier task depending on
    it, and ``chunks × shards`` measurement tasks depending on both.
    ``jobs`` informs seed sharding and the chunk count only — the
    schedule is valid on any worker count, and reassembly in canonical
    (benchmark, chunk, shard) order keeps every ``jobs`` value
    bit-identical.
    """
    names = list(dict.fromkeys(names))
    shards = shard_seeds(config.seeds, jobs)
    bounds = _shard_bounds(shards)
    chunks = max(1, jobs)
    level = int(OptLevel(config.level))
    tasks: List[Task] = []
    for name in names:
        base_key: Hashable = ("base", name)
        frontier_key: Hashable = ("frontier", name)
        tasks.append(Task(
            key=base_key, fn=_explore_base,
            args=(name, level, config.lengths, config.seed, config.seeds,
                  config.unroll_factor, config.engine, epoch),
            affinity=name))
        tasks.append(Task(
            key=frontier_key, fn=_frontier_stage,
            args=(config.max_candidates, config.measure_top,
                  config.max_budget, epoch),
            deps=(base_key,),
            bind=lambda args, results, _dep=base_key:
                args + (results[_dep],),
            affinity=name))
        for c in range(chunks):
            for j, shard in enumerate(shards):
                def bind(args, results, _base=base_key,
                         _frontier=frontier_key, _c=c, _b=bounds[j]):
                    _pool, base_results, _total_ops = results[_base]
                    pattern_sets = results[_frontier].pattern_sets()
                    lo, hi = _chunk_bounds(len(pattern_sets), chunks)[_c]
                    slo, shi = _b
                    sliced = base_results[slo:] if shi is None \
                        else base_results[slo:shi]
                    return args + ((pattern_sets[lo:hi], sliced),)
                tasks.append(Task(
                    key=("fchunk", name, c, j), fn=_measure_frontier_chunk,
                    args=(name, level, shard, config.seed,
                          config.unroll_factor, config.engine, epoch),
                    deps=(base_key, frontier_key), bind=bind,
                    affinity=name))
    return tasks


def execute_frontier_study(config, jobs: int,
                           progress: Optional[
                               Callable[[str, str], None]] = None,
                           stats=None):
    """Run one frontier sweep + breakpoint measurements per benchmark
    on *jobs* workers; see :func:`repro.feedback.study.
    run_frontier_study` for the public entry point.  ``stats`` collects
    scheduler accounting (see :func:`repro.exec.study.execute_study`)."""
    from repro.feedback.study import BenchmarkFrontier, FrontierResult
    from repro.suite.registry import all_benchmarks

    names = (list(dict.fromkeys(config.benchmarks))
             if config.benchmarks is not None
             else [spec.name for spec in all_benchmarks()])
    for name in names:  # fail on unknown names before any worker spawns
        get_benchmark(name)

    on_start = None
    if progress is not None:
        def on_start(key):
            if key[0] == "base":
                progress(key[1], "base")
            elif key[0] == "frontier":
                progress(key[1], "frontier")
            elif key[2] == 0 and key[3] == 0:  # chunks/shards: internal
                progress(key[1], "measure")

    shards = shard_seeds(config.seeds, jobs)
    chunks = max(1, jobs)
    cells = run_tasks(
        build_frontier_schedule(config, names, jobs=jobs,
                                epoch=next_epoch()),
        jobs=jobs, on_start=on_start, stats=stats)

    result = FrontierResult(config=config)
    for name in names:
        _pool, _base_results, total_ops = cells[("base", name)]
        frontier = cells[("frontier", name)]
        pattern_sets = frontier.pattern_sets()
        # Chunks concatenate back into pattern_sets order; each chain
        # set's per-shard evaluations concatenate in seed order before
        # folding — exactly the budget-cell reassembly, per chain set.
        designs = {}
        at = 0
        for c in range(chunks):
            shard_cells = [cells[("fchunk", name, c, j)]
                           for j in range(len(shards))]
            for i, (isa, first_evals) in enumerate(shard_cells[0]):
                evals = list(first_evals)
                for cell in shard_cells[1:]:
                    evals.extend(cell[i][1])
                evaluation = merge_evaluations(tuple(evals)) \
                    if config.seeds else evals[0]
                designs[pattern_sets[at + i]] = DesignPoint(
                    isa=isa, evaluation=evaluation)
            at += len(shard_cells[0])
        result.benchmarks[name] = BenchmarkFrontier(
            name=name, frontier=frontier, designs=designs,
            total_ops=total_ops)
    return result
