"""Bit-mask liveness against the set-based solver it replaced.

:func:`reference_liveness` is the set-based ``compute_liveness`` body
the mask solver replaced, kept verbatim as the oracle.  Every graph the
suite kernels and fuzz programs produce on their way through the level
1 and 2 pipelines must decode to the same ``live_in`` / ``live_out``
sets: after CFG construction, after the cleanups and LICM, after loop
pipelining, at the start of every compaction pass (where the solver
reuses one register index across passes), and after the final cleanup.
"""

from __future__ import annotations

from typing import Dict, Set

import pytest

import repro.opt.percolation as percolation
from repro.cfg.build import build_module_graphs
from repro.cfg.dataflow import RegisterIndex, compute_liveness
from repro.cfg.graph import ProgramGraph
from repro.frontend import compile_source
from repro.ir.values import VirtualReg
from repro.opt.classic import dead_code_elimination, run_cleanups
from repro.opt.licm import hoist_loop_invariants
from repro.opt.looppipe import pipeline_loops
from repro.opt.percolation import compact_graph, delete_empty_nodes
from repro.suite import benchmark_names, get_benchmark

from tests.test_fuzz_engines import generate_case

FUZZ_SEED = 1995

CASES = ([(name, get_benchmark(name).source) for name in benchmark_names()]
         + [(f"fuzz-{case}", generate_case(case, base_seed=FUZZ_SEED))
            for case in range(50)])


def reference_liveness(graph: ProgramGraph):
    """``(live_in, live_out)`` from the original set-based solver."""
    use: Dict[int, Set[VirtualReg]] = {}
    defs: Dict[int, Set[VirtualReg]] = {}
    for nid, node in graph.nodes.items():
        use[nid] = node.uses()
        defs[nid] = node.defs()

    live_in = {nid: set() for nid in graph.nodes}
    live_out = {nid: set() for nid in graph.nodes}
    # Iterate to fixpoint; process in reverse RPO for fast convergence.
    order = list(reversed(graph.rpo_order()))
    changed = True
    while changed:
        changed = False
        for nid in order:
            node = graph.nodes[nid]
            out: Set[VirtualReg] = set()
            for succ in node.succs:
                out |= live_in[succ]
            new_in = use[nid] | (out - defs[nid])
            if out != live_out[nid]:
                live_out[nid] = out
                changed = True
            if new_in != live_in[nid]:
                live_in[nid] = new_in
                changed = True
    return live_in, live_out


def assert_matches_reference(graph: ProgramGraph, info, where: str) -> None:
    live_in, live_out = reference_liveness(graph)
    assert info.live_in == live_in, f"{where}: live_in differs"
    assert info.live_out == live_out, f"{where}: live_out differs"


@pytest.mark.parametrize("label,source", CASES, ids=[c[0] for c in CASES])
def test_mask_liveness_matches_set_reference(label, source, monkeypatch):
    checked = []

    def checked_liveness(graph, index=None, order=None):
        info = compute_liveness(graph, index, order)
        assert_matches_reference(
            graph, info, f"{label} {graph.name} at compaction liveness "
            f"call {len(checked) + 1}")
        checked.append(graph.name)
        return info

    monkeypatch.setattr(percolation, "compute_liveness", checked_liveness)

    def check(graph, stage):
        assert_matches_reference(graph, compute_liveness(graph),
                                 f"{label} {graph.name} {stage}")

    gm = build_module_graphs(compile_source(source, label))
    for graph in gm.graphs.values():
        check(graph, "after CFG build")
        run_cleanups(graph)
        hoist_loop_invariants(graph)
        dead_code_elimination(graph)
        check(graph, "after cleanups and LICM")
        pipeline_loops(graph)
        check(graph, "after pipelining")
        for rename in (False, True):
            compacted = graph.copy()
            compact_graph(compacted, rename=rename)
            dead_code_elimination(compacted)
            delete_empty_nodes(compacted)
            compacted.prune_unreachable()
            check(compacted, f"after compaction (rename={rename})")
    assert checked, "compaction never consulted liveness"


def test_unreachable_nodes_have_nothing_live():
    gm = build_module_graphs(compile_source(
        "int main() { int a; a = 2; return a; }", "t"))
    graph = gm.graphs["main"]
    stray = graph.new_node()
    stray.ops = [op.clone() for node in graph.nodes.values()
                 for op in node.ops]
    graph.add_edge(stray.id, graph.entry)
    info = compute_liveness(graph)
    assert info.live_in[stray.id] == set()
    assert info.live_out[stray.id] == set()
    assert_matches_reference(graph, info, "stray predecessor")


def test_register_index_decodes_what_it_encodes():
    index = RegisterIndex()
    regs = [VirtualReg(f"r{i}", i % 3 == 0) for i in range(70)]
    mask = 0
    for reg in regs[::2]:
        mask |= index.bit(reg)
    for reg in regs[1::2]:
        index.bit(reg)
    assert index.decode(mask) == set(regs[::2])
    assert index.bit(VirtualReg("r0", True)) == index.bit(regs[0])
    assert index.bit(VirtualReg("r0", False)) != index.bit(regs[0])
