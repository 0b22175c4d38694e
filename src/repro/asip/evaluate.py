"""Measured evaluation of a chained-instruction ISA.

``evaluate_isa`` runs the whole paper loop for one design point:

1. optimize the program at a chosen level (the "customized optimizing
   compiler" of Figure 1);
2. re-sequentialize the schedule for the single-issue ASIP;
3. simulate **without** chains — the base processor's cycle count;
4. select chains and simulate **with** them — the ASIP's cycle count,
   charging multi-cycle chains their extra issue cycles;
5. verify both runs produce bit-identical outputs (a failed check would
   mean the selector broke the program — it raises, never under-reports).

Steps 4–5 for many chain sets at once are :func:`measure_chain_sets`,
the kernel every exploration path measures design points through: it
simulates each distinct fused program once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asip.cost import CostModel, DEFAULT_COST_MODEL
from repro.asip.isa import InstructionSet
from repro.asip.resequence import resequence_module
from repro.asip.select import FusedInstruction, SelectionStats, select_chains
from repro.cfg.graph import GraphModule
from repro.errors import AsipError
from repro.exec.pool import parallel_map
from repro.ir.module import Module
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.diskcache import module_digest
from repro.sim.machine import (DEFAULT_ENGINE, MachineResult,
                               run_module_batch_auto)


@dataclass
class AsipEvaluation:
    """One measured design point."""

    base_cycles: int
    chained_cycles: int
    extension_area: int
    selection: SelectionStats
    # chain pattern -> dynamic issue count
    chain_issues: Dict[Tuple[str, ...], int] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.chained_cycles == 0:
            return 0.0
        return self.base_cycles / self.chained_cycles

    @property
    def cycles_saved(self) -> int:
        return self.base_cycles - self.chained_cycles

    def __repr__(self) -> str:
        return (f"<AsipEvaluation {self.base_cycles} -> "
                f"{self.chained_cycles} cycles "
                f"({self.speedup:.3f}x, area {self.extension_area})>")


def _fused_sites(fused_module: GraphModule
                 ) -> List[Tuple[str, int, Tuple[str, ...]]]:
    """``(function, node, pattern)`` of every chain occurrence selected."""
    return [(fn_name, nid, tuple(ins.chain.pattern))
            for fn_name, graph in fused_module.graphs.items()
            for nid, node in graph.nodes.items()
            for ins in node.ops if isinstance(ins, FusedInstruction)]


def _chain_accounting(sites, node_counts, cost: CostModel
                      ) -> Tuple[int, Dict[Tuple[str, ...], int]]:
    """(extra issue cycles, per-pattern dynamic issue counts) of one run."""
    extra_cycles = 0
    chain_issues: Dict[Tuple[str, ...], int] = {}
    for fn_name, nid, pattern in sites:
        executed = node_counts.get(fn_name, {}).get(nid, 0)
        chain_issues[pattern] = chain_issues.get(pattern, 0) + executed
        extra = cost.chain_cycles(pattern) - 1
        if extra > 0:
            extra_cycles += extra * executed
    return extra_cycles, chain_issues


def _simulate(task) -> List[Tuple[int, dict]]:
    """Run one fused program over every input set and check each run
    against the base processor's (module-level: runs in pool workers).

    Returns each run's cycle count and node counts, all the design
    points need, so the kernel holds no program's outputs past its
    check.  The run goes through a copy: the simulator caches generated
    code on the module it runs, and the kernel keeps every fused
    program of its call until the call ends."""
    module, inputs_list, base_results, engine = task
    runs = []
    for fused_result, base_result in zip(
            run_module_batch_auto(module.copy(), inputs_list, engine=engine),
            base_results):
        if fused_result.globals_after != base_result.globals_after \
                or fused_result.return_value != base_result.return_value:
            raise AsipError(
                "chained execution diverged from the base processor — "
                "instruction selection broke program semantics")
        runs.append((fused_result.cycles, fused_result.profile.node_counts))
    return runs


def measure_chain_sets(seq_module: GraphModule,
                       isas: Sequence[InstructionSet],
                       inputs_list: Sequence[Optional[dict]],
                       cost_model: Optional[CostModel] = None,
                       base_results: Optional[
                           Sequence[MachineResult]] = None,
                       engine: str = DEFAULT_ENGINE,
                       jobs: Optional[int] = 1
                       ) -> List[Tuple[AsipEvaluation, ...]]:
    """Measure every ISA of *isas* against one re-sequentialized module.

    The measurement kernel of the exploration loop, in four steps:

    1. fuse every chain set into its own copy of *seq_module*;
    2. group the fused programs by :func:`module_digest` — chain sets
       that fuse the same sites yield the same program;
    3. simulate each *distinct* fused program once over every input set
       (on the process pool when ``jobs`` resolves above 1) and check
       each result against the base processor's;
    4. build every design point's evaluations from its own selection,
       fused sites and ISA: design points sharing a program still differ
       in extension area and chain names.

    Simulation is deterministic and the digest is the same key the
    codegen disk tier reuses generated code under, so a shared run is
    exactly the run each design point would have made.  ``base_results``
    (one per input set) may carry previous simulations of *seq_module*;
    when absent the base processor is simulated here, as its own run —
    it never joins the grouping, so the divergence check stays an
    independent guard.  Element *i* of the result holds one evaluation
    per input set for ``isas[i]``.

    ``jobs`` defaults to serial, not to ``REPRO_JOBS``: the study
    executors call the kernel inside pool workers, which must not open
    pools of their own.
    """
    if base_results is not None and len(base_results) != len(inputs_list):
        raise AsipError(
            f"base results cover {len(base_results)} runs but the batch "
            f"has {len(inputs_list)} input sets")
    if not isas:
        return []
    points = []  # (selection, fused sites, program index) per ISA
    programs: Dict[str, int] = {}
    distinct: List[GraphModule] = []
    for isa in isas:
        fused_module = seq_module.copy()
        selection = select_chains(fused_module, isa)
        slot = programs.setdefault(module_digest(fused_module),
                                   len(distinct))
        if slot == len(distinct):
            distinct.append(fused_module)
        points.append((selection, _fused_sites(fused_module), slot))

    if base_results is None:
        base_results = run_module_batch_auto(seq_module, inputs_list,
                                             engine=engine)
    runs = parallel_map(
        _simulate,
        [(module, inputs_list, base_results, engine) for module in distinct],
        jobs=jobs)

    measured = []
    for isa, (selection, fused_sites, slot) in zip(isas, points):
        cost = cost_model or isa.cost_model or DEFAULT_COST_MODEL
        area = isa.extension_area()
        evaluations = []
        for (cycles, node_counts), base_result in zip(runs[slot],
                                                      base_results):
            extra_cycles, chain_issues = _chain_accounting(
                fused_sites, node_counts, cost)
            evaluations.append(AsipEvaluation(
                base_cycles=base_result.cycles,
                chained_cycles=cycles + extra_cycles,
                extension_area=area,
                selection=selection,
                chain_issues=chain_issues,
            ))
        measured.append(tuple(evaluations))
    return measured


def evaluate_on_sequential(seq_module: GraphModule, isa: InstructionSet,
                           inputs: Optional[dict] = None,
                           cost_model: Optional[CostModel] = None,
                           base_result: Optional[MachineResult] = None,
                           engine: str = DEFAULT_ENGINE) -> AsipEvaluation:
    """Evaluate *isa* against an already re-sequentialized module.

    ``base_result`` may carry a previous simulation of *seq_module* on the
    same inputs, so the unchained base processor need not run again.
    One-chain-set, one-input call of :func:`measure_chain_sets`.
    """
    base_results = None if base_result is None else (base_result,)
    (evaluation,), = measure_chain_sets(seq_module, [isa], [inputs],
                                        cost_model, base_results, engine)
    return evaluation


def evaluate_on_sequential_batch(seq_module: GraphModule,
                                 isa: InstructionSet,
                                 inputs_list: Sequence[Optional[dict]],
                                 cost_model: Optional[CostModel] = None,
                                 base_results: Optional[
                                     Sequence[MachineResult]] = None,
                                 engine: str = DEFAULT_ENGINE
                                 ) -> Tuple[AsipEvaluation, ...]:
    """Evaluate *isa* on several input sets through one chain selection.

    The multi-seed form of :func:`evaluate_on_sequential`: chains are
    selected once (selection is input-independent) and every input set
    is batched through the fused program.  Element *i* of the result is
    bit-identical to ``evaluate_on_sequential(seq_module, isa,
    inputs_list[i], ..., base_result=base_results[i])``.
    """
    return measure_chain_sets(seq_module, [isa], inputs_list, cost_model,
                              base_results, engine)[0]


def merge_evaluations(evaluations: Sequence[AsipEvaluation]
                      ) -> AsipEvaluation:
    """Fold per-seed evaluations of one design point into one.

    Cycle totals and dynamic chain-issue counts sum across seeds (so
    ``speedup`` becomes the whole-workload ratio, weighting every seed
    by its own run length); the selection statistics and extension area
    are structural and identical for every seed, so the first seed's
    are kept.  A single-element merge is the identity.
    """
    if not evaluations:
        raise AsipError("cannot merge zero evaluations")
    if len(evaluations) == 1:
        return evaluations[0]
    chain_issues: Dict[Tuple[str, ...], int] = {}
    for evaluation in evaluations:
        for pattern, count in evaluation.chain_issues.items():
            chain_issues[pattern] = chain_issues.get(pattern, 0) + count
    return AsipEvaluation(
        base_cycles=sum(e.base_cycles for e in evaluations),
        chained_cycles=sum(e.chained_cycles for e in evaluations),
        extension_area=evaluations[0].extension_area,
        selection=evaluations[0].selection,
        chain_issues=chain_issues,
    )


def evaluate_isa(module: Module, isa: InstructionSet,
                 inputs: Optional[dict] = None,
                 level: OptLevel = OptLevel.PIPELINED,
                 unroll_factor: int = 2,
                 cost_model: Optional[CostModel] = None,
                 engine: str = DEFAULT_ENGINE) -> AsipEvaluation:
    """Full-loop evaluation of *isa* on linear *module* at *level*."""
    graph_module, _ = optimize_module(module, level,
                                      unroll_factor=unroll_factor)
    sequential = resequence_module(graph_module)
    return evaluate_on_sequential(sequential, isa, inputs, cost_model,
                                  engine=engine)
