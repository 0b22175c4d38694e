"""Run the paper's full experimental matrix.

A *study* is: for each selected benchmark, run optimization levels 0/1/2,
profile each on the Table-1 inputs, verify levels 1/2 against level 0's
outputs (semantic preservation oracle), run sequence detection at lengths
2–5, and keep everything for the reporting layer.

An *exploration study* (:func:`run_exploration_study`) is the design-
space counterpart: the full benchmark × area-budget matrix of the
paper's estimate-then-measure ASIP loop, executed by
:mod:`repro.exec.explore` on the same persistent pool (per-benchmark
base simulation first, then that benchmark's budget cells fan out), with
``jobs=N`` bit-identical to ``jobs=1`` and to per-benchmark
:func:`~repro.asip.explore.explore_designs` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaining.aggregate import (CombinedSequences, FrontierChain,
                                      combine_frontier_chains,
                                      combine_results)
from repro.chaining.coverage import CoverageReport, analyze_coverage
from repro.chaining.detect import DEFAULT_LENGTHS, DetectionResult
from repro.errors import ReproError
from repro.opt.pipeline import OptLevel
from repro.sim.machine import DEFAULT_ENGINE
from repro.suite.registry import BenchmarkSpec, all_benchmarks, get_benchmark
from repro.suite.runner import BenchmarkRun, compile_benchmark, run_benchmark


@dataclass(frozen=True)
class StudyConfig:
    """Knobs of one study run."""

    benchmarks: Optional[Tuple[str, ...]] = None  # None = whole suite
    levels: Tuple[int, ...] = (0, 1, 2)
    lengths: Tuple[int, ...] = DEFAULT_LENGTHS
    seed: int = 0
    unroll_factor: int = 2
    verify: bool = True
    engine: str = DEFAULT_ENGINE  # simulation engine (one of ENGINES)
    #: Input seeds batched through each compiled cell; ``None`` keeps the
    #: single-seed behavior (``seed``).  The first entry is primary.
    seeds: Optional[Tuple[int, ...]] = None
    #: Worker processes for the benchmark×level matrix.  ``None`` defers
    #: to ``$REPRO_JOBS`` (default 1 = today's serial path, guaranteed
    #: bit-identical); ``0`` means one worker per core.
    jobs: Optional[int] = None


@dataclass
class BenchmarkStudy:
    """One benchmark across all levels."""

    spec: BenchmarkSpec
    runs: Dict[OptLevel, BenchmarkRun] = field(default_factory=dict)

    def run_at(self, level) -> BenchmarkRun:
        return self.runs[OptLevel(level)]

    def detection_at(self, level) -> DetectionResult:
        return self.run_at(level).detection

    def cycles_at(self, level) -> int:
        return self.run_at(level).cycles


@dataclass
class StudyResult:
    """The full matrix plus aggregation helpers."""

    config: StudyConfig
    benchmarks: Dict[str, BenchmarkStudy] = field(default_factory=dict)

    def benchmark(self, name: str) -> BenchmarkStudy:
        try:
            return self.benchmarks[name]
        except KeyError:
            raise ReproError(f"study has no benchmark {name!r}")

    def names(self) -> List[str]:
        return list(self.benchmarks)

    def combined(self, level) -> CombinedSequences:
        """Suite-wide sequence frequencies at one level (paper §6.1)."""
        level = OptLevel(level)
        pairs = [(name, bs.detection_at(level))
                 for name, bs in self.benchmarks.items()]
        return combine_results(pairs)

    def coverage(self, name: str, level,
                 threshold: float = 4.0,
                 lengths: Optional[Sequence[int]] = None,
                 max_sequences: int = 12) -> CoverageReport:
        """Iterative coverage analysis (paper §7) for one benchmark."""
        run = self.benchmark(name).run_at(level)
        return analyze_coverage(
            run.graph_module, run.profile,
            lengths=lengths or self.config.lengths,
            threshold=threshold, max_sequences=max_sequences)


@dataclass(frozen=True)
class ExplorationStudyConfig:
    """Knobs of one suite-wide design-space exploration."""

    benchmarks: Optional[Tuple[str, ...]] = None  # None = whole suite
    #: Area budgets explored per benchmark (duplicates collapsed).
    budgets: Tuple[int, ...] = (2500,)
    #: Optimization level the exploration compiles at.
    level: int = 1
    #: Sequence lengths considered for chaining.
    lengths: Tuple[int, ...] = (2, 3)
    seed: int = 0
    #: Input seeds every design point is measured on; ``None`` keeps the
    #: single-seed behavior (``seed``).  The first entry is primary
    #: (it feeds profiling and sequence detection); measured speedups
    #: aggregate cycle totals over all seeds.  Large seed lists shard
    #: across workers like study cells.
    seeds: Optional[Tuple[int, ...]] = None
    unroll_factor: int = 2
    max_candidates: int = 8
    measure_top: int = 4
    engine: str = DEFAULT_ENGINE
    #: Worker processes for the benchmark×budget matrix (``None`` defers
    #: to ``$REPRO_JOBS``, ``0`` = all cores; any value bit-identical).
    jobs: Optional[int] = None


@dataclass
class ExplorationStudyResult:
    """Every (benchmark, budget) exploration of one study."""

    config: ExplorationStudyConfig
    #: ``(benchmark name, area budget) -> ExplorationResult``.
    explorations: Dict[Tuple[str, int], "ExplorationResult"] = \
        field(default_factory=dict)

    def exploration(self, name: str, budget: int) -> "ExplorationResult":
        try:
            return self.explorations[(name, int(budget))]
        except KeyError:
            raise ReproError(
                f"exploration study has no cell ({name!r}, {budget})")

    def names(self) -> List[str]:
        return list(dict.fromkeys(name for name, _ in self.explorations))

    def budgets(self) -> List[int]:
        return list(dict.fromkeys(b for _, b in self.explorations))

    def best(self, name: str, budget: int):
        """The measured winner of one cell (``None`` if nothing viable)."""
        return self.exploration(name, budget).best

    def summary_rows(self) -> List[Dict[str, object]]:
        """One flat record per cell (CLI table / JSON export)."""
        rows: List[Dict[str, object]] = []
        for (name, budget), exploration in self.explorations.items():
            best = exploration.best
            rows.append({
                "benchmark": name,
                "budget": budget,
                "candidates": len(exploration.candidates),
                "measured": len(exploration.measured),
                "best_speedup": best.speedup if best else None,
                "best_area": best.area if best else None,
                "best_chains": best.labels() if best else [],
            })
        return rows


@dataclass(frozen=True)
class FrontierStudyConfig:
    """Knobs of one suite-wide incremental frontier sweep.

    The frontier counterpart of :class:`ExplorationStudyConfig`: no
    budget grid — one sweep per benchmark answers *every* budget (up to
    ``max_budget``, when set) — otherwise the same knobs with the same
    defaults, so a frontier study and a budget study over the same
    configuration answer identically on shared budgets.
    """

    benchmarks: Optional[Tuple[str, ...]] = None  # None = whole suite
    #: Optimization level the exploration compiles at.
    level: int = 1
    #: Sequence lengths considered for chaining.
    lengths: Tuple[int, ...] = (2, 3)
    seed: int = 0
    #: Input seeds every design point is measured on (see
    #: :class:`ExplorationStudyConfig.seeds`).
    seeds: Optional[Tuple[int, ...]] = None
    unroll_factor: int = 2
    max_candidates: int = 8
    measure_top: int = 4
    #: Budget ceiling for the sweep.  ``None`` walks the whole pool, so
    #: any budget is answerable; a ceiling caps the breakpoint count
    #: (and the measurement work) when only a budget range matters —
    #: queries beyond it raise instead of answering wrong.
    max_budget: Optional[int] = None
    engine: str = DEFAULT_ENGINE
    #: Worker processes (``None`` defers to ``$REPRO_JOBS``, ``0`` = all
    #: cores; any value bit-identical).
    jobs: Optional[int] = None


@dataclass
class BenchmarkFrontier:
    """One benchmark's swept frontier plus its measured breakpoints."""

    name: str
    frontier: "Frontier"
    #: Deduplicated finalist chain set -> its measured design point
    #: (covers every combo of every segment).
    designs: Dict[Tuple, "DesignPoint"] = field(default_factory=dict)
    #: The benchmark's dynamic operation count — its weight in the
    #: suite-wide aggregation.
    total_ops: int = 0

    def breakpoints(self) -> List[int]:
        return self.frontier.breakpoints()

    def result_at(self, budget: int) -> "ExplorationResult":
        """The exact :class:`~repro.asip.explore.ExplorationResult` a
        per-budget exploration of *budget* would produce, answered by
        bisection into the swept segments."""
        from repro.asip.explore import ExplorationResult
        segment = self.frontier.segment_at(budget)
        if segment is None:
            return ExplorationResult(candidates=[])
        result = ExplorationResult(
            candidates=self.frontier.candidates_at(budget))
        for patterns in self.frontier.segment_patterns(segment):
            result.measured.append(self.designs[patterns])
        return result

    def best_at(self, budget: int):
        """The measured winner at *budget* (``None`` if nothing fits)."""
        return self.result_at(budget).best

    def points(self) -> List[Tuple[int, "DesignPoint"]]:
        """The cost/performance curve: ``(breakpoint budget, winner)``
        per segment, ascending budget (no-candidate segments skipped)."""
        rows = []
        for segment in self.frontier.segments:
            best = self.result_at(segment.budget).best
            if best is not None:
                rows.append((segment.budget, best))
        return rows

    def frontier_patterns(self) -> List[Tuple]:
        """Chain patterns appearing in some budget's *winning* design —
        the chains that actually pay off somewhere on this frontier."""
        seen: Dict[Tuple, None] = {}
        for _budget, best in self.points():
            for chain in best.isa.chains:
                seen.setdefault(tuple(chain.pattern), None)
        return list(seen)


@dataclass
class FrontierResult:
    """Every benchmark's frontier from one sweep study."""

    config: FrontierStudyConfig
    benchmarks: Dict[str, BenchmarkFrontier] = field(default_factory=dict)

    def frontier(self, name: str) -> BenchmarkFrontier:
        try:
            return self.benchmarks[name]
        except KeyError:
            raise ReproError(f"frontier study has no benchmark {name!r}")

    def names(self) -> List[str]:
        return list(self.benchmarks)

    def result_at(self, name: str, budget: int) -> "ExplorationResult":
        """Answer one (benchmark, budget) query from the swept frontier
        — bit-identical to the corresponding ``explore-study`` cell."""
        return self.frontier(name).result_at(budget)

    def suite_chains(self) -> List[FrontierChain]:
        """Cross-benchmark aggregation (paper §6.1 applied to design):
        which chains appear on multiple benchmarks' frontiers, weighted
        by each benchmark's share of suite dynamic operations."""
        entries = []
        for name, bench in self.benchmarks.items():
            cycles = {tuple(c.pattern): c.cycles_accounted
                      for c in bench.frontier.pool}
            entries.append((name, bench.total_ops, cycles,
                            bench.frontier_patterns()))
        return combine_frontier_chains(entries)

    def summary_rows(self) -> List[Dict[str, object]]:
        """One flat record per (benchmark, breakpoint) — CLI/JSON
        export, mirroring ``ExplorationStudyResult.summary_rows``."""
        rows: List[Dict[str, object]] = []
        for name, bench in self.benchmarks.items():
            for budget, best in bench.points():
                rows.append({
                    "benchmark": name,
                    "budget": budget,
                    "speedup": best.speedup,
                    "area": best.area,
                    "chains": best.labels(),
                })
        return rows


ProgressFn = Callable[[str, int], None]


# -- front-loaded validation -------------------------------------------------------
#
# Shared by the run_* entry points and the serve daemon's protocol
# layer, so a malformed request fails before any compile, worker spawn
# or socket dispatch, attributed to the knob it came from.


def validate_study_config(config: StudyConfig) -> None:
    """Raise :class:`~repro.errors.ReproError` on a malformed config."""
    from repro.sim.machine import ensure_engine
    from repro.suite.runner import validate_seeds
    ensure_engine(config.engine)
    validate_seeds(config.seeds, source="StudyConfig.seeds")
    for level in config.levels:
        try:
            OptLevel(level)
        except ValueError:
            raise ReproError(
                f"StudyConfig.levels contains {level!r}: not an "
                f"optimization level (expected 0, 1 or 2)")


def validate_exploration_config(config: ExplorationStudyConfig) -> None:
    """Raise :class:`~repro.errors.ReproError` on a malformed config."""
    from repro.sim.machine import ensure_engine
    from repro.suite.runner import validate_seeds
    ensure_engine(config.engine)
    validate_seeds(config.seeds, source="ExplorationStudyConfig.seeds")
    if not config.budgets:
        raise ReproError(
            "ExplorationStudyConfig.budgets is empty: pass at least one "
            "area budget (e.g. budgets=(2500,))")
    for budget in config.budgets:
        if budget <= 0:
            raise ReproError(
                f"ExplorationStudyConfig.budgets contains {budget}: area "
                f"budgets must be positive")
    try:
        OptLevel(config.level)
    except ValueError:
        raise ReproError(
            f"ExplorationStudyConfig.level={config.level!r} is not an "
            f"optimization level (expected 0, 1 or 2)")


def validate_frontier_config(config: FrontierStudyConfig) -> None:
    """Raise :class:`~repro.errors.ReproError` on a malformed config."""
    from repro.sim.machine import ensure_engine
    from repro.suite.runner import validate_seeds
    ensure_engine(config.engine)
    validate_seeds(config.seeds, source="FrontierStudyConfig.seeds")
    if config.max_budget is not None and config.max_budget <= 0:
        raise ReproError(
            f"FrontierStudyConfig.max_budget={config.max_budget}: the "
            f"sweep ceiling must be positive (or None for unbounded)")
    try:
        OptLevel(config.level)
    except ValueError:
        raise ReproError(
            f"FrontierStudyConfig.level={config.level!r} is not an "
            f"optimization level (expected 0, 1 or 2)")


# -- the whole-result tier ---------------------------------------------------------


def result_request_key(op: str, config) -> str:
    """The whole-result disk-tier digest for one ``run_*`` call.

    Keys over the operation, every config knob except ``jobs`` (``jobs=N``
    is bit-identical to ``jobs=1`` by the executors' contract, so the
    worker count must not partition results), the resolved benchmark
    names each paired with a digest of its registered source, and
    :func:`~repro.sim.diskcache.result_source_token` — an edit to any
    toolchain source, a different seed list or a re-registered benchmark
    all key differently, while the same question asked twice (daemon or
    warm CLI, any worker count) keys identically.
    """
    import dataclasses
    import hashlib
    from repro.sim.diskcache import result_source_token
    fields = dataclasses.asdict(config)
    fields.pop("jobs", None)
    names = (list(dict.fromkeys(config.benchmarks))
             if config.benchmarks is not None
             else [spec.name for spec in all_benchmarks()])
    fields["benchmarks"] = [
        (name,
         hashlib.sha256(get_benchmark(name).source.encode()).hexdigest())
        for name in names]
    blob = f"{op}|{result_source_token()}|{sorted(fields.items())!r}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _result_tier(op: str, config):
    """``(cache, key)`` when the whole-result tier applies, else
    ``(None, None)``.  The tier is opt-in
    (:data:`~repro.sim.diskcache.RESULT_ENV_VAR`) on top of an enabled
    disk cache; the serve daemon turns it on for its process."""
    from repro.sim.diskcache import get_cache, result_cache_enabled
    if not result_cache_enabled():
        return None, None
    cache = get_cache()
    if cache is None:
        return None, None
    return cache, result_request_key(op, config)


def _load_cached_result(cache, key: str, result_type):
    """A stored whole result of the expected type, or ``None``.

    A payload of the wrong type (a stale or colliding entry) is
    reclassified as corrupt via the guarded
    :meth:`~repro.sim.diskcache.DiskCache.unusable` and regenerated.
    """
    from repro.sim.diskcache import RESULT_KIND
    cached = cache.load(RESULT_KIND, key)
    if cached is None:
        return None
    if not isinstance(cached, result_type):
        cache.unusable(RESULT_KIND)
        return None
    return cached


def _store_result(cache, key: str, result) -> None:
    from repro.sim.diskcache import RESULT_KIND
    cache.store(RESULT_KIND, key, result)


def run_study(config: StudyConfig = StudyConfig(),
              progress: Optional[ProgressFn] = None,
              stats=None) -> StudyResult:
    """Execute the study described by *config*.

    With an effective ``jobs`` of 1 (the default) this is the serial
    reference path.  ``jobs > 1`` dispatches the benchmark×level matrix
    to :func:`repro.exec.study.execute_study`, which schedules cells on a
    process pool (level 0 first per benchmark — it is the semantic
    oracle — then levels 1/2 fan out) and produces bit-identical results.

    With the whole-result tier on (:data:`~repro.sim.diskcache.
    RESULT_ENV_VAR`), a repeat of a previously answered config returns
    the stored result from disk — no compile, no simulation; ``progress``
    does not fire on such a hit.  ``stats`` (a
    :class:`~repro.exec.scheduler.ScheduleStats`) collects scheduler
    accounting on the parallel path.
    """
    from repro.exec.pool import resolve_jobs
    validate_study_config(config)
    cache, key = _result_tier("study", config)
    if cache is not None:
        cached = _load_cached_result(cache, key, StudyResult)
        if cached is not None:
            cached.config = config  # the stored twin differs in jobs only
            return cached
    jobs = resolve_jobs(config.jobs)
    if jobs > 1:
        from repro.exec.study import execute_study
        result = execute_study(config, jobs=jobs, progress=progress,
                               stats=stats)
        if cache is not None:
            _store_result(cache, key, result)
        return result

    names = (list(config.benchmarks) if config.benchmarks is not None
             else [spec.name for spec in all_benchmarks()])
    result = StudyResult(config=config)
    for name in names:
        spec = get_benchmark(name)
        module = compile_benchmark(spec)
        study = BenchmarkStudy(spec=spec)
        reference = None
        for level in sorted(config.levels):
            if progress is not None:
                progress(name, level)
            run = run_benchmark(
                spec, OptLevel(level),
                lengths=config.lengths,
                seed=config.seed,
                seeds=config.seeds,
                unroll_factor=config.unroll_factor,
                check_against=reference if config.verify else None,
                module=module,
                engine=config.engine,
            )
            if level == 0 and config.verify:
                reference = (run.seed_results if len(run.seeds) > 1
                             else run.machine_result)
            study.runs[OptLevel(level)] = run
        result.benchmarks[name] = study
    if cache is not None:
        _store_result(cache, key, result)
    return result


#: ``progress(benchmark, stage)`` for exploration studies; stage is
#: ``"base"`` or ``"budget N"``.
ExploreProgressFn = Callable[[str, str], None]


def run_exploration_study(
        config: ExplorationStudyConfig = ExplorationStudyConfig(),
        progress: Optional[ExploreProgressFn] = None,
        stats=None) -> ExplorationStudyResult:
    """Execute the suite-wide design-space exploration.

    Every (benchmark, budget) cell produces exactly the
    :class:`~repro.asip.explore.ExplorationResult` a standalone
    ``explore_designs(module, inputs, area_budget=budget, ...)`` call
    would (multi-seed configurations aggregate each design point's
    cycles over all seeds), but the matrix runs as dependency tasks on
    the persistent worker pool: each benchmark's base-processor
    simulation gates its budget cells, different benchmarks proceed
    independently, and large seed lists shard across workers.  Results
    are bit-identical for any ``jobs`` value.

    The whole-result tier and ``stats`` behave exactly as on
    :func:`run_study`.
    """
    from repro.exec.explore import execute_exploration_study
    from repro.exec.pool import resolve_jobs
    validate_exploration_config(config)
    cache, key = _result_tier("explore-study", config)
    if cache is not None:
        cached = _load_cached_result(cache, key, ExplorationStudyResult)
        if cached is not None:
            cached.config = config
            return cached
    jobs = resolve_jobs(config.jobs)
    result = execute_exploration_study(config, jobs=jobs,
                                       progress=progress, stats=stats)
    if cache is not None:
        _store_result(cache, key, result)
    return result


def run_frontier_study(
        config: FrontierStudyConfig = FrontierStudyConfig(),
        progress: Optional[ExploreProgressFn] = None,
        stats=None) -> FrontierResult:
    """Execute one incremental Pareto-frontier sweep per benchmark.

    Where :func:`run_exploration_study` re-ranks the candidate pool per
    budget cell, this walks each benchmark's pool once in breakpoint
    order, measures each distinct finalist chain set exactly once (per
    seed shard), and returns a :class:`FrontierResult` whose
    ``result_at(name, budget)`` answers *any* budget by bisection —
    bit-identical to the ``explore-study`` cell for that budget (pinned
    by ``tests/test_frontier.py``).  Results are identical for any
    ``jobs`` value.

    The whole-result tier and ``stats`` behave exactly as on
    :func:`run_study`.
    """
    from repro.exec.explore import execute_frontier_study
    from repro.exec.pool import resolve_jobs
    validate_frontier_config(config)
    cache, key = _result_tier("frontier", config)
    if cache is not None:
        cached = _load_cached_result(cache, key, FrontierResult)
        if cached is not None:
            cached.config = config
            return cached
    jobs = resolve_jobs(config.jobs)
    result = execute_frontier_study(config, jobs=jobs, progress=progress,
                                    stats=stats)
    if cache is not None:
        _store_result(cache, key, result)
    return result
