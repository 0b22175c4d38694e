"""Percolation-scheduling tests: legality, compaction, renaming, delete."""

import pytest

from repro.cfg.build import build_graph, build_module_graphs
from repro.cfg.graph import ProgramGraph
from repro.frontend import compile_source
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import ArraySymbol, Constant, VirtualReg
from repro.opt.percolation import (CompactionStats, compact_graph,
                                   delete_empty_nodes)
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.machine import run_module
from repro.suite import get_benchmark

from tests.conftest import FIR_LIKE_SOURCE, fir_like_inputs


def module_graphs(source):
    module = compile_source(source, "t")
    return build_module_graphs(module)


def run_value(gm, inputs=None):
    return run_module(gm, inputs)


class TestCompactionSemantics:
    """Compaction must never change observable behaviour."""

    CASES = [
        ("straight line",
         "int main() { int a; int b; a = 3; b = a * 2 + 1; return b; }",
         None),
        ("diamond",
         "int x[4]; int main() { int a; a = x[0];"
         " if (a > 0) { a = a * 2; } else { a = a - 1; } return a; }",
         {"x": [5, 0, 0, 0]}),
        ("loop with accumulator",
         "int x[8]; int main() { int i; int s; s = 0;"
         " for (i = 0; i < 8; i++) { s += x[i]; } return s; }",
         {"x": [1, 2, 3, 4, 5, 6, 7, 8]}),
        ("memory traffic",
         "int a[4]; int b[4]; int main() { int i;"
         " for (i = 0; i < 4; i++) { a[i] = i * 3; b[i] = a[i] + 1; }"
         " return b[3]; }",
         None),
        ("guarded store",
         "int out[4]; int x[4]; int main() { int i;"
         " for (i = 0; i < 4; i++) { if (x[i] > 0) { out[i] = x[i]; } }"
         " return out[0] + out[1] + out[2] + out[3]; }",
         {"x": [3, -1, 0, 9]}),
    ]

    @pytest.mark.parametrize("label,source,inputs",
                             CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("rename", [False, True])
    def test_behaviour_preserved(self, label, source, inputs, rename):
        gm = module_graphs(source)
        expected = run_value(gm, inputs)
        gm2 = module_graphs(source)
        for g in gm2.graphs.values():
            compact_graph(g, rename=rename)
        actual = run_value(gm2, inputs)
        assert actual.return_value == expected.return_value
        assert actual.globals_after == expected.globals_after

    @pytest.mark.parametrize("rename", [False, True])
    def test_fir_like_kernel_preserved(self, rename):
        gm = module_graphs(FIR_LIKE_SOURCE)
        inputs = fir_like_inputs()
        expected = run_value(gm, inputs)
        gm2 = module_graphs(FIR_LIKE_SOURCE)
        for g in gm2.graphs.values():
            compact_graph(g, rename=rename)
        actual = run_value(gm2, inputs)
        assert actual.globals_after == expected.globals_after


class TestCompactionEffect:
    def test_compaction_reduces_cycles(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        inputs = fir_like_inputs()
        before = run_value(gm, inputs).cycles
        for g in gm.graphs.values():
            compact_graph(g)
        after = run_value(gm, inputs).cycles
        assert after < before

    def test_nodes_become_wider(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        g = gm.graphs["main"]
        compact_graph(g)
        assert max(len(n.ops) for n in g.nodes.values()) >= 2

    def test_width_limit_respected(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        g = gm.graphs["main"]
        compact_graph(g, max_width=2)
        assert max(len(n.ops) for n in g.nodes.values()) <= 2

    def test_stats_populated(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        stats = compact_graph(gm.graphs["main"])
        assert stats.moves > 0
        assert stats.passes >= 1
        assert stats.deleted_nodes > 0

    def test_renaming_only_at_level2(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        stats_plain = compact_graph(gm.graphs["main"], rename=False)
        assert stats_plain.renames == 0
        gm2 = module_graphs(FIR_LIKE_SOURCE)
        stats_renamed = compact_graph(gm2.graphs["main"], rename=True)
        assert stats_renamed.renames > 0

    def test_idempotent_at_fixpoint(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        g = gm.graphs["main"]
        compact_graph(g)
        second = compact_graph(g)
        assert second.moves == 0 and second.renames == 0

    def test_pass_cap_truncates_smooth_level2(self):
        # Pins today's behaviour, not a goal: smooth's level-2 main runs
        # out of passes before its fixpoint, so a second compaction still
        # finds moves.  Lifting the cap changes the paper tables.
        gm, report = optimize_module(
            compile_source(get_benchmark("smooth").source, "smooth"),
            OptLevel.RENAMED)
        assert report.compaction["main"].passes == 64
        again = compact_graph(gm.graphs["main"], rename=True)
        assert again.moves > 0


class TestLegalityRules:
    def _two_node_graph(self):
        """entry node -> second node, built by hand."""
        g = ProgramGraph("f")
        n1 = g.new_node()
        n2 = g.new_node()
        ret = g.new_node()
        ret.control = Instruction(Op.RET, srcs=(VirtualReg("r"),))
        g.add_edge(n1.id, n2.id)
        g.add_edge(n2.id, ret.id)
        g.entry = n1.id
        return g, n1, n2, ret

    def test_true_dependence_blocks_motion(self):
        g, n1, n2, _ret = self._two_node_graph()
        a, r = VirtualReg("a"), VirtualReg("r")
        n1.ops.append(Instruction(Op.MOV, dest=a, srcs=(Constant(1),)))
        n2.ops.append(Instruction(Op.ADD, dest=r, srcs=(a, Constant(2))))
        compact_graph(g)
        # The add must not join the node defining its operand.
        assert len(n1.ops) == 1
        assert n2.ops or any(
            ins.op is Op.ADD for ins in n1.ops)  # stayed put

    def test_independent_op_moves_up(self):
        g, n1, n2, ret = self._two_node_graph()
        a, b, r = VirtualReg("a"), VirtualReg("b"), VirtualReg("r")
        n1.ops.append(Instruction(Op.MOV, dest=a, srcs=(Constant(1),)))
        n2.ops.append(Instruction(Op.MOV, dest=b, srcs=(Constant(2),)))
        n2.ops.append(Instruction(Op.ADD, dest=r, srcs=(a,
                                                        Constant(3))))
        compact_graph(g)
        # b's definition is independent and should have moved into n1.
        assert any(ins.dest == b for ins in n1.ops)

    def test_store_does_not_speculate(self):
        src = """
        int out[2]; int x[2];
        int main() {
            if (x[0] > 0) { out[0] = 7; }
            return out[0];
        }
        """
        gm = module_graphs(src)
        g = gm.graphs["main"]
        compact_graph(g)
        # The store must stay strictly below the branch: on every path from
        # the entry, the branch comes first.
        branch_node = next(n for n in g.nodes.values() if n.is_branch)
        store_nodes = [n for n in g.nodes.values()
                       if any(ins.is_store for ins in n.ops)]
        assert store_nodes
        # A store node must not be an ancestor of the branch node, and must
        # not be the branch node's own node-set predecessor side.
        for sn in store_nodes:
            assert sn.id not in {branch_node.id} | set(branch_node.preds)

    def test_load_does_not_speculate_past_branch(self):
        src = """
        int x[2]; int idx[1];
        int main() {
            int v; v = 0;
            if (idx[0] < 2) { v = x[idx[0]]; }
            return v;
        }
        """
        gm = module_graphs(src)
        inputs = {"idx": [5], "x": [1, 2]}  # out-of-bounds if speculated
        expected = run_value(gm, inputs)
        gm2 = module_graphs(src)
        for graph in gm2.graphs.values():
            compact_graph(graph, rename=True)
        actual = run_value(gm2, inputs)  # must not fault
        assert actual.return_value == expected.return_value


class TestDeleteEmptyNodes:
    def test_empty_node_spliced(self):
        g = ProgramGraph("f")
        a, empty, b = g.new_node(), g.new_node(), g.new_node()
        a.ops.append(Instruction(Op.MOV, dest=VirtualReg("x"),
                                 srcs=(Constant(1),)))
        b.control = Instruction(Op.RET, srcs=())
        g.add_edge(a.id, empty.id)
        g.add_edge(empty.id, b.id)
        g.entry = a.id
        assert delete_empty_nodes(g) == 1
        assert g.nodes[a.id].succs == [b.id]

    def test_empty_entry_moves_entry(self):
        g = ProgramGraph("f")
        empty, b = g.new_node(), g.new_node()
        b.control = Instruction(Op.RET, srcs=())
        g.add_edge(empty.id, b.id)
        g.entry = empty.id
        delete_empty_nodes(g)
        assert g.entry == b.id

    def test_branch_node_kept(self):
        g = ProgramGraph("f")
        cond = VirtualReg("c")
        a, br, t, f = (g.new_node() for _ in range(4))
        a.ops.append(Instruction(Op.MOV, dest=cond, srcs=(Constant(1),)))
        br.control = Instruction(Op.BR, srcs=(cond,), true_label="x",
                                 false_label="y")
        t.control = Instruction(Op.RET, srcs=())
        f.control = Instruction(Op.RET, srcs=())
        g.add_edge(a.id, br.id)
        g.add_edge(br.id, t.id)
        g.add_edge(br.id, f.id)
        g.entry = a.id
        assert delete_empty_nodes(g) == 0
        assert br.id in g.nodes
