"""Budgeted design-space exploration over chain sets.

Given a benchmark and an area budget, pick the set of chained instructions
that maximizes measured speedup:

1. run the paper's analysis (optimize, profile, detect) to rank candidate
   sequences by dynamic frequency;
2. estimate each candidate's value as ``frequency × cycles-saved-per-
   traversal / length`` — the share of execution time it could remove;
3. enumerate candidate subsets under the budget (the candidate list is
   small, so exhaustive enumeration with the additive estimate is exact for
   the estimator), keep the top few plus the greedy value-density pick;
4. *measure* the finalists with
   :func:`~repro.asip.evaluate.measure_chain_sets` and return the
   measured winner.

This is deliberately a two-stage estimate-then-measure loop: the estimate
is optimistic (it ignores overlap between candidates — an op fused into one
chain cannot join another), so the final ranking always comes from the
simulator.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asip.cost import CostModel, DEFAULT_COST_MODEL
from repro.asip.evaluate import AsipEvaluation, measure_chain_sets
from repro.asip.isa import ChainedInstruction, InstructionSet
from repro.asip.resequence import resequence_module
from repro.chaining.detect import detect_sequences
from repro.chaining.frequency import dynamic_frequency
from repro.chaining.sequence import SequenceName, sequence_label
from repro.errors import AsipError
from repro.ir.module import Module
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.machine import DEFAULT_ENGINE, run_module


@dataclass
class Candidate:
    """One sequence considered for hardware."""

    pattern: SequenceName
    frequency: float       # dynamic frequency (%) from the analysis
    area: int
    cycles_saved: int      # per traversal
    #: Op-slots of execution time the analysis attributed to the pattern
    #: (the numerator of ``frequency``); cross-benchmark aggregation
    #: re-weights it by each benchmark's share of suite dynamic ops.
    cycles_accounted: int = 0

    @property
    def estimate(self) -> float:
        """Estimated % of execution time removed if fully exploited."""
        return self.frequency * self.cycles_saved / len(self.pattern)

    @property
    def label(self) -> str:
        return sequence_label(self.pattern)


@dataclass
class DesignPoint:
    """A measured ISA design."""

    isa: InstructionSet
    evaluation: AsipEvaluation

    @property
    def speedup(self) -> float:
        return self.evaluation.speedup

    @property
    def area(self) -> int:
        return self.evaluation.extension_area

    def labels(self) -> List[str]:
        return [c.label for c in self.isa.chains]


@dataclass
class ExplorationResult:
    """Everything one exploration produced."""

    candidates: List[Candidate]
    measured: List[DesignPoint] = field(default_factory=list)

    @property
    def best(self) -> Optional[DesignPoint]:
        if not self.measured:
            return None
        return max(self.measured, key=lambda p: p.speedup)


def _isa_for(patterns: Sequence[SequenceName],
             cost: CostModel) -> InstructionSet:
    isa = InstructionSet(cost_model=cost)
    for pattern in patterns:
        isa.add_chain(ChainedInstruction.from_sequence(pattern))
    return isa


# -- the estimate-then-measure stages, exposed for the suite-wide executor --------
#
# ``explore_designs`` composes these three pure helpers; the exploration
# *study* (:mod:`repro.exec.explore`) runs the same helpers from
# scheduler tasks, which is what makes its results bit-identical to the
# per-benchmark loop.


def candidate_pool(detection, cost: CostModel) -> List[Candidate]:
    """Every sequence that could ever be worth hardware, budget-agnostic.

    Applies only the budget-*independent* filters (a chain must save
    cycles and actually execute); the area-vs-budget cut happens in
    :func:`rank_candidates`, so one pool serves every budget of a study.
    """
    pool: List[Candidate] = []
    for seq in detection.all_sequences():
        freq = dynamic_frequency(seq.cycles_accounted, detection.total_ops)
        saved = cost.cycles_saved_per_traversal(seq.name)
        area = cost.chain_area(seq.name)
        if saved <= 0 or freq <= 0.0:
            continue
        pool.append(Candidate(tuple(seq.name), freq, area, saved,
                              cycles_accounted=seq.cycles_accounted))
    return pool


def rank_candidates(pool: Sequence[Candidate], area_budget: int,
                    max_candidates: int) -> List[Candidate]:
    """The budget's candidate list: affordable, best-estimate-first."""
    candidates = [c for c in pool if c.area <= area_budget]
    candidates.sort(key=lambda c: (-c.estimate, c.pattern))
    return candidates[:max_candidates]


def select_finalists(candidates: Sequence[Candidate], area_budget: int,
                     measure_top: int) -> List[Tuple[int, ...]]:
    """The candidate-index subsets worth simulating, in canonical order.

    Stage 1 of the paper loop: exhaustive enumeration under the additive
    estimate (exact for the estimator on these small candidate lists),
    keeping the ``measure_top`` best subsets plus the greedy
    value-density pick.  Deterministic in its inputs; the returned order
    is the order the measured design points appear in.
    """
    # ``estimate`` is an uncached property; the exhaustive enumeration
    # below reads it O(2^n) times per candidate, so both it and the area
    # are hoisted into plain lists once per call.
    areas = [c.area for c in candidates]
    estimates = [c.estimate for c in candidates]
    scored: List[Tuple[float, Tuple[int, ...]]] = []
    indices = range(len(candidates))
    for r in range(1, len(candidates) + 1):
        for combo in itertools.combinations(indices, r):
            area = sum(areas[i] for i in combo)
            if area > area_budget:
                continue
            estimate = sum(estimates[i] for i in combo)
            scored.append((estimate, combo))
    scored.sort(key=lambda item: (-item[0], item[1]))

    greedy: List[int] = []
    remaining = area_budget
    for i in sorted(indices, key=lambda i: -estimates[i] / max(1, areas[i])):
        if areas[i] <= remaining:
            greedy.append(i)
            remaining -= areas[i]
    finalists = {tuple(sorted(greedy))} if greedy else set()
    for _, combo in scored[:measure_top]:
        finalists.add(combo)
    return sorted(finalists)


def explore_designs(module: Module,
                    inputs: Optional[dict] = None,
                    area_budget: int = 3000,
                    level: OptLevel = OptLevel.PIPELINED,
                    lengths: Sequence[int] = (2, 3),
                    max_candidates: int = 8,
                    measure_top: int = 4,
                    unroll_factor: int = 2,
                    cost_model: Optional[CostModel] = None,
                    engine: str = DEFAULT_ENGINE,
                    jobs: Optional[int] = None) -> ExplorationResult:
    """Run the full feedback-driven exploration for one benchmark.

    ``jobs`` parallelizes stage 2, the finalist measurements: the
    distinct fused programs (finalists that fuse the same sites share
    one) are simulated on a process pool.  The
    measured design points come back in the same deterministic finalist
    order as the serial loop (``jobs=None``/1, bit-identical).
    """
    from repro.sim.machine import ensure_engine
    ensure_engine(engine)  # before the pipeline, not deep in a worker
    cost = cost_model or DEFAULT_COST_MODEL
    graph_module, _ = optimize_module(module, level,
                                      unroll_factor=unroll_factor)
    profile = run_module(graph_module, inputs, engine=engine).profile
    detection = detect_sequences(graph_module, profile, lengths)

    candidates = rank_candidates(candidate_pool(detection, cost),
                                 area_budget, max_candidates)
    result = ExplorationResult(candidates=candidates)
    if not candidates:
        return result

    # Stage 1: additive-estimate enumeration under the budget, plus the
    # greedy value-density pick.
    combos = select_finalists(candidates, area_budget, measure_top)

    # Stage 2: measure the finalists on the simulator.  The kernel runs
    # the unchained base processor once and each distinct fused program
    # once, however many finalists share it.
    sequential = resequence_module(graph_module)
    isas = [_isa_for([candidates[idx].pattern for idx in combo], cost)
            for combo in combos]
    measured = measure_chain_sets(sequential, isas, [inputs], cost,
                                  engine=engine, jobs=jobs)
    for isa, (evaluation,) in zip(isas, measured):
        result.measured.append(DesignPoint(isa=isa, evaluation=evaluation))
    return result


# -- the incremental Pareto-frontier sweep ----------------------------------------
#
# ``explore-study`` answers one budget per cell by re-running
# ``rank_candidates``/``select_finalists``.  Both stages are piecewise
# constant in the budget: the ranked candidate list changes only where
# the budget crosses a candidate's area, and — with the candidate list
# fixed — the finalist subsets (exhaustive enumeration *and* the greedy
# value-density pick) change only where the budget crosses the summed
# area of some candidate subset.  ``frontier_sweep`` walks those
# breakpoints once, in increasing-area order, and emits one segment per
# distinct answer, so *any* budget query is a bisection into the
# segment list instead of a fresh rank/select/measure pass.


@dataclass(frozen=True)
class FrontierSegment:
    """One constant piece of the budget → exploration answer function.

    The segment answers every budget in ``[budget, next segment's
    budget)`` — for all of them, ``rank_candidates`` returns exactly the
    pool entries named by ``candidate_indices`` (in ranked order) and
    ``select_finalists`` returns exactly ``combos`` (indices into that
    ranked list, canonical order).
    """

    budget: int
    candidate_indices: Tuple[int, ...]
    combos: Tuple[Tuple[int, ...], ...]


@dataclass
class Frontier:
    """The full cost/performance frontier of one candidate pool.

    Segments are sorted by ascending ``budget``; budgets below the first
    segment afford no candidate and answer as an empty exploration.
    """

    pool: List[Candidate]
    max_candidates: int
    measure_top: int
    #: Budget ceiling the sweep covered (``None`` = unbounded: queries
    #: above the last breakpoint hit the final, fully-afforded segment).
    max_budget: Optional[int]
    segments: List[FrontierSegment] = field(default_factory=list)

    def breakpoints(self) -> List[int]:
        return [segment.budget for segment in self.segments]

    def segment_at(self, budget: int) -> Optional[FrontierSegment]:
        """The segment answering *budget* (``None`` below the first)."""
        if self.max_budget is not None and budget > self.max_budget:
            raise AsipError(
                f"budget {budget} is beyond this frontier's sweep limit "
                f"({self.max_budget}); re-sweep with a higher max_budget")
        at = bisect_right([s.budget for s in self.segments], budget) - 1
        return self.segments[at] if at >= 0 else None

    def candidates_at(self, budget: int) -> List[Candidate]:
        segment = self.segment_at(budget)
        if segment is None:
            return []
        return [self.pool[i] for i in segment.candidate_indices]

    def segment_patterns(self, segment: FrontierSegment
                         ) -> List[Tuple[SequenceName, ...]]:
        """Each finalist combo of *segment* as its chain-pattern tuple."""
        return [tuple(self.pool[segment.candidate_indices[i]].pattern
                      for i in combo)
                for combo in segment.combos]

    def pattern_sets(self) -> List[Tuple[SequenceName, ...]]:
        """Every distinct finalist chain set on the frontier.

        First-appearance order (segments by ascending budget, combos in
        canonical order) — the measurement schedule and the reassembly
        both iterate this list, so the order must be a pure function of
        the frontier.
        """
        seen: Dict[Tuple[SequenceName, ...], None] = {}
        for segment in self.segments:
            for patterns in self.segment_patterns(segment):
                seen.setdefault(patterns, None)
        return list(seen)


def _subset_sums(areas: Sequence[int], lo: int,
                 hi: Optional[int]) -> List[int]:
    """Distinct subset-area sums in ``[lo, hi)`` (``hi=None`` = open)."""
    sums = {0}
    for area in areas:
        sums |= {total + area for total in sums}
    return [total for total in sums
            if total >= lo and (hi is None or total < hi)]


def frontier_sweep(pool: Sequence[Candidate],
                   max_candidates: int = 8,
                   measure_top: int = 4,
                   max_budget: Optional[int] = None) -> Frontier:
    """Walk the budget axis once; emit every distinct exploration answer.

    The sweep visits the exact budgets where the per-budget answer can
    change — candidate areas (the ranked list gains an entry) and, per
    constant-candidate interval, the subset-area sums of that interval's
    ranked list (an enumerated subset becomes affordable, or the greedy
    walk's next density-ordered pick starts fitting).  Consecutive
    breakpoints with identical answers coalesce, so the segment list is
    the minimal piecewise-constant representation:
    ``frontier.segment_at(B)`` reproduces ``rank_candidates(pool, B)``
    and ``select_finalists(..., B, ...)`` bit-identically for every
    budget ``B`` (pinned by the fuzz leg in ``tests/test_frontier.py``).
    """
    pool = list(pool)
    index_of = {id(candidate): i for i, candidate in enumerate(pool)}
    frontier = Frontier(pool=pool, max_candidates=max_candidates,
                        measure_top=measure_top, max_budget=max_budget)
    areas = sorted({c.area for c in pool})
    if max_budget is not None:
        areas = [area for area in areas if area <= max_budget]
    breakpoints = set()
    for i, area in enumerate(areas):
        hi = areas[i + 1] if i + 1 < len(areas) else None
        candidates = rank_candidates(pool, area, max_candidates)
        breakpoints.add(area)
        for total in _subset_sums([c.area for c in candidates], area, hi):
            if max_budget is None or total <= max_budget:
                breakpoints.add(total)
    previous = None
    for budget in sorted(breakpoints):
        candidates = rank_candidates(pool, budget, max_candidates)
        combos = tuple(select_finalists(candidates, budget, measure_top))
        indices = tuple(index_of[id(c)] for c in candidates)
        if (indices, combos) == previous:
            continue  # same answer as the previous breakpoint: coalesce
        previous = (indices, combos)
        frontier.segments.append(FrontierSegment(
            budget=budget, candidate_indices=indices, combos=combos))
    return frontier
