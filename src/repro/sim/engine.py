"""The compiled execution engine.

:class:`~repro.sim.machine.GraphInterpreter` walks the program graph with a
~30-arm opcode dispatch, ``isinstance`` operand checks and two dict mutations
of profile bookkeeping for every node of every simulated cycle.  This module
removes all of that from the hot loop by *pre-compiling* each graph into
dispatch-free Python closures:

* every :class:`~repro.ir.instr.Instruction` becomes a specialized closure
  with its operand readers resolved at compile time — constants are inlined,
  registers are pre-indexed into a flat list (no name-keyed dicts), array
  storages are late-bound once per frame into a flat slot list;
* every :class:`~repro.cfg.graph.Node` becomes one "step" closure that runs
  its operation closures under the VLIW read/commit semantics and returns the
  index of the control-flow edge it leaves through;
* profile counting becomes flat per-graph integer arrays (``node_hits[i]``,
  ``edge_hits[e]``) folded into a :class:`~repro.sim.profile.ProfileData`
  once at the end of a run via :meth:`ProfileData.merge_arrays`.

The compiled form is cached on the :class:`GraphModule` and invalidated by a
structural signature check, so repeated runs of the same module — the
exploration loop measures every finalist ISA on the same re-sequentialized
base — pay compilation once.

The tree-walking interpreter is kept intact as the *reference* engine (the
semantic oracle); differential tests assert the two produce bit-identical
results, cycle counts included, on the whole DSP suite.

This module also hosts the **bytecode compiler** (the lowering pass of the
third engine tier): :func:`lower_module` flattens each graph into parallel
arrays — integer opcodes with pre-resolved register/array slot indices and
inlined constants in one flat code list, successor edges baked into the
jump words — executed by the tight dispatch loop in
:mod:`repro.sim.bytecode`.  Both compiled forms share the slot-assignment
machinery (:class:`_FrameLayout`) and the structural-signature cache
protocol, so either cache is invalidated by the same graph mutations.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.cfg.graph import GraphModule, Node, ProgramGraph
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import ArraySymbol, Constant, VirtualReg
from repro.sim.machine import _MAX_CALL_DEPTH, MachineResult
from repro.sim.memory import ArrayStorage
from repro.sim.profile import ProfileData
from repro.sim.values import (INTRINSIC_IMPL, float_div, int_div, int_mod,
                              shift_left, shift_right)

# -- the undefined-register sentinel ---------------------------------------------
#
# Register slots start out holding _UNDEF.  Any arithmetic, comparison or
# conversion touching it raises SimulationError, mirroring the reference
# interpreter's read-of-undefined-register guard without a per-read check.


class _UndefinedRegister:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<undefined register>"


def _undef_operation(self, *_args):
    raise SimulationError("read of undefined register")


for _name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
    "__abs__", "__invert__", "__and__", "__rand__", "__or__", "__ror__",
    "__xor__", "__rxor__", "__lshift__", "__rlshift__", "__rshift__",
    "__rrshift__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__",
    "__ne__", "__bool__", "__int__", "__float__", "__index__",
    "__round__", "__trunc__",
):
    setattr(_UndefinedRegister, _name, _undef_operation)

_UNDEF = _UndefinedRegister()


class _MissingArray:
    """Placeholder bound to an array slot whose name resolves nowhere."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def load(self, _index):
        raise SimulationError(f"unknown array {self.name!r}")

    def store(self, _index, _value):
        raise SimulationError(f"unknown array {self.name!r}")


# -- scalar operation tables ------------------------------------------------------


def _cmp_eq(a, b):
    return int(a == b)


def _cmp_ne(a, b):
    return int(a != b)


def _cmp_lt(a, b):
    return int(a < b)


def _cmp_le(a, b):
    return int(a <= b)


def _cmp_gt(a, b):
    return int(a > b)


def _cmp_ge(a, b):
    return int(a >= b)


_BINARY_FN = {
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.DIV: int_div,
    Op.MOD: int_mod,
    Op.AND: operator.and_,
    Op.OR: operator.or_,
    Op.XOR: operator.xor,
    Op.SHL: shift_left,
    Op.SHR: shift_right,
    Op.CMPEQ: _cmp_eq, Op.FCMPEQ: _cmp_eq,
    Op.CMPNE: _cmp_ne, Op.FCMPNE: _cmp_ne,
    Op.CMPLT: _cmp_lt, Op.FCMPLT: _cmp_lt,
    Op.CMPLE: _cmp_le, Op.FCMPLE: _cmp_le,
    Op.CMPGT: _cmp_gt, Op.FCMPGT: _cmp_gt,
    Op.CMPGE: _cmp_ge, Op.FCMPGE: _cmp_ge,
    Op.FADD: operator.add,
    Op.FSUB: operator.sub,
    Op.FMUL: operator.mul,
    Op.FDIV: float_div,
}

_UNARY_FN = {
    Op.NEG: operator.neg,
    Op.FNEG: operator.neg,
    Op.NOT: operator.invert,
    Op.ITOF: float,
    Op.FTOI: int,  # C truncation
}


# -- per-run state ----------------------------------------------------------------


class _RunState:
    """Mutable state of one simulated run (shared across call frames)."""

    __slots__ = ("globals", "cyc", "max_cycles", "depth",
                 "node_hits", "edge_hits", "call_counts")

    def __init__(self, globals_: Dict[str, ArrayStorage], max_cycles: int,
                 node_hits: Dict[str, List[int]],
                 edge_hits: Dict[str, List[int]]):
        self.globals = globals_
        self.cyc = [0]  # shared cycle counter cell
        self.max_cycles = max_cycles
        self.depth = 0
        self.node_hits = node_hits
        self.edge_hits = edge_hits
        self.call_counts: Dict[str, int] = {}


# -- structural signature (cache invalidation) ------------------------------------


def _iter_instruction(ins: Instruction) -> Iterator:
    yield ins
    yield ins.op
    yield ins.dest
    yield ins.srcs
    yield ins.array
    yield ins.callee
    parts = getattr(ins, "parts", None)
    if parts is not None:
        yield len(parts)
        for part in parts:
            yield from _iter_instruction(part)


def _iter_signature(module: GraphModule) -> Iterator:
    """Stream every item the compiled form depends on, compared with ``==``.

    Instruction objects compare by identity; operand tuples compare by value
    (equal operands compile to identical closures), so in-place operand
    rewrites, node edits and edge edits all miss the cache while repeated
    runs of an untouched module hit it.
    """
    yield tuple(module.global_arrays)
    for name, graph in module.graphs.items():
        yield name
        yield graph.entry
        yield tuple(graph.params)
        yield tuple(graph.local_arrays)
        for nid, node in graph.nodes.items():
            yield nid
            yield tuple(node.succs)
            for ins in node.all_instructions():
                yield from _iter_instruction(ins)


def _structure_signature(module: GraphModule) -> List:
    """Materialized signature, stored on the cache at compile time."""
    return list(_iter_signature(module))


_SIG_END = object()


def _signature_matches(module: GraphModule, sig: List) -> bool:
    """Validate a memoized signature against the module's current state.

    Streams the walk instead of rebuilding the signature list on every
    ``run_module`` call: an unmutated module pays one allocation-free
    comparison, a mutated one exits at the first differing item.
    """
    cached = iter(sig)
    for item in _iter_signature(module):
        have = next(cached, _SIG_END)
        if have is _SIG_END:
            return False
        if have is not item and have != item:
            return False
    return next(cached, _SIG_END) is _SIG_END


# -- graph compilation ------------------------------------------------------------


class _FrameLayout:
    """Flat slot assignment for one graph's frame.

    Both compiled forms — the closure compiler and the bytecode lowerer —
    resolve register and array names to integer slots through this shared
    base, so the frame-construction plans (parameters, locals, late-bound
    globals, missing-name placeholders) are built once and identically.
    """

    def __init__(self, graph: ProgramGraph, module: GraphModule):
        self.graph = graph
        self.module = module
        # Register slot 0 is reserved for the frame's return value.
        self.reg_slots: Dict[str, int] = {}
        self.arr_slots: Dict[str, int] = {}
        self.global_plan: List[Tuple[int, str]] = []
        self.missing_plan: List[Tuple[int, _MissingArray]] = []
        self.missing_names: set = set()

    # -- slot assignment ----------------------------------------------------------

    def reg_slot(self, name: str) -> int:
        slot = self.reg_slots.get(name)
        if slot is None:
            slot = len(self.reg_slots) + 1
            self.reg_slots[name] = slot
        return slot

    def _new_arr_slot(self, name: str) -> int:
        slot = len(self.arr_slots)
        self.arr_slots[name] = slot
        return slot

    def arr_slot(self, name: str) -> int:
        """Slot for *name*, late-binding globals / flagging unknown names."""
        slot = self.arr_slots.get(name)
        if slot is not None:
            return slot
        slot = self._new_arr_slot(name)
        if name in self.module.global_arrays:
            self.global_plan.append((slot, name))
        else:
            self.missing_plan.append((slot, _MissingArray(name)))
            self.missing_names.add(name)
        return slot

    def array_is_bound(self, name: str) -> bool:
        """True when loads/stores on *name* can resolve to real storage."""
        if name in self.arr_slots:
            return name not in self.missing_names
        return name in self.module.global_arrays

    def build_plans(self):
        """Parameter and local-array frame plans (claimed before any body
        operand so locals of the same name shadow them, matching the
        reference interpreter's frame dict)."""
        graph = self.graph
        param_plan: List[Tuple[bool, int, str]] = []
        for param in graph.params:
            if isinstance(param, VirtualReg):
                param_plan.append(
                    (True, self.reg_slot(param.name), param.name))
            else:
                slot = self.arr_slots.get(param.name)
                if slot is None:
                    slot = self._new_arr_slot(param.name)
                param_plan.append((False, slot, param.name))
        local_plan = []
        for symbol in graph.local_arrays:
            slot = self.arr_slots.get(symbol.name)
            if slot is None:
                slot = self._new_arr_slot(symbol.name)
            local_plan.append((slot, symbol))
        return param_plan, local_plan


class _GraphCompiler(_FrameLayout):
    """Compiles one :class:`ProgramGraph` into a :class:`_CompiledGraph`."""

    def __init__(self, graph: ProgramGraph, module: GraphModule,
                 cmod: "CompiledModule"):
        super().__init__(graph, module)
        self.cmod = cmod

    # -- operand readers ----------------------------------------------------------

    def scalar_reader(self, operand):
        """Compile a ``(regs) -> value`` reader for one scalar operand."""
        if isinstance(operand, Constant):
            value = operand.value
            return lambda regs: value
        if isinstance(operand, VirtualReg):
            i = self.reg_slot(operand.name)
            return lambda regs: regs[i]

        def unreadable(regs, _operand=operand):
            raise SimulationError(f"cannot read operand {_operand!r}")
        return unreadable

    def checked_reader(self, operand):
        """Like :meth:`scalar_reader` but rejects undefined registers with
        the reference interpreter's error message (used where the value
        would otherwise escape uninspected: returns and call arguments)."""
        if isinstance(operand, VirtualReg):
            i = self.reg_slot(operand.name)
            name = operand.name

            def read(regs):
                value = regs[i]
                if value is _UNDEF:
                    raise SimulationError(
                        f"read of undefined register {name!r}")
                return value
            return read
        return self.scalar_reader(operand)

    # -- value producers ----------------------------------------------------------

    def compile_value(self, ins: Instruction):
        """Compile a ``(regs, arr) -> value`` closure, or ``None`` when the
        opcode does not produce a value (stores, calls, chains, nops)."""
        op = ins.op
        fn = _BINARY_FN.get(op)
        if fn is not None:
            return self._binary(fn, ins.srcs[0], ins.srcs[1])
        fn = _UNARY_FN.get(op)
        if fn is not None:
            read = self.scalar_reader(ins.srcs[0])
            return lambda regs, arr: fn(read(regs))
        if op is Op.MOV or op is Op.FMOV:
            src = ins.srcs[0]
            if isinstance(src, Constant):
                value = src.value
                return lambda regs, arr: value
            # A move never coerces its operand, so the _UNDEF sentinel
            # would propagate silently; the checked reader keeps the
            # reference interpreter's undefined-register error.
            read = self.checked_reader(src)
            return lambda regs, arr: read(regs)
        if op is Op.LOAD or op is Op.FLOAD:
            k = self.arr_slot(ins.array.name)
            index = self.scalar_reader(ins.srcs[0])
            return lambda regs, arr: arr[k].load(index(regs))
        if op is Op.INTRIN:
            return self._intrinsic(ins)
        return None

    def _binary(self, fn, lhs, rhs):
        lhs_reg = isinstance(lhs, VirtualReg)
        rhs_reg = isinstance(rhs, VirtualReg)
        if lhs_reg and rhs_reg:
            i = self.reg_slot(lhs.name)
            j = self.reg_slot(rhs.name)
            return lambda regs, arr: fn(regs[i], regs[j])
        if lhs_reg and isinstance(rhs, Constant):
            i = self.reg_slot(lhs.name)
            b = rhs.value
            return lambda regs, arr: fn(regs[i], b)
        if isinstance(lhs, Constant) and rhs_reg:
            a = lhs.value
            j = self.reg_slot(rhs.name)
            return lambda regs, arr: fn(a, regs[j])
        # Constant/constant (kept runtime: division by zero must still raise
        # only when executed) and malformed operands.
        read_a = self.scalar_reader(lhs)
        read_b = self.scalar_reader(rhs)
        return lambda regs, arr: fn(read_a(regs), read_b(regs))

    def _intrinsic(self, ins: Instruction):
        impl = INTRINSIC_IMPL.get(ins.callee)
        if impl is None:
            callee = ins.callee

            def unknown(regs, arr):
                raise SimulationError(f"unknown intrinsic {callee!r}")
            return unknown
        readers = [self.scalar_reader(src) for src in ins.srcs]
        if len(readers) == 1:
            read = readers[0]
            return lambda regs, arr: impl(read(regs))
        if len(readers) == 2:
            read_a, read_b = readers
            return lambda regs, arr: impl(read_a(regs), read_b(regs))
        return lambda regs, arr: impl(*(read(regs) for read in readers))

    # -- whole-instruction execution ----------------------------------------------

    def compile_exec(self, ins: Instruction):
        """Compile ``(regs, arr, regw, stw) -> None`` deferring writes into
        the pending lists — the general read-phase form."""
        compute = self.compile_value(ins)
        if compute is not None:
            if ins.dest is not None:
                d = self.reg_slot(ins.dest.name)

                def run(regs, arr, regw, stw):
                    regw.append((d, compute(regs, arr)))
                return run

            def run(regs, arr, regw, stw):
                compute(regs, arr)
            return run
        op = ins.op
        if op is Op.STORE or op is Op.FSTORE:
            k = self.arr_slot(ins.array.name)
            index = self.scalar_reader(ins.srcs[1])
            value = self.scalar_reader(ins.srcs[0])

            def run(regs, arr, regw, stw):
                stw.append((arr[k], index(regs), value(regs)))
            return run
        if op is Op.CALL:
            return self._call(ins)
        if op is Op.CHAIN and getattr(ins, "parts", None) is not None:
            imm = self.compile_immediate(ins)

            def run(regs, arr, regw, stw):
                imm(regs, arr)
            return run
        if op is Op.NOP:
            def run(regs, arr, regw, stw):
                pass
            return run

        def unexecutable(regs, arr, regw, stw, _ins=ins):
            raise SimulationError(f"cannot execute {_ins}")
        return unexecutable

    def compile_immediate(self, ins: Instruction):
        """Compile ``(regs, arr) -> None`` committing writes immediately —
        the form chain parts execute in (operand forwarding)."""
        compute = self.compile_value(ins)
        if compute is not None:
            if ins.dest is not None:
                d = self.reg_slot(ins.dest.name)

                def run(regs, arr):
                    regs[d] = compute(regs, arr)
                return run

            def run(regs, arr):
                compute(regs, arr)
            return run
        op = ins.op
        if op is Op.STORE or op is Op.FSTORE:
            k = self.arr_slot(ins.array.name)
            index = self.scalar_reader(ins.srcs[1])
            value = self.scalar_reader(ins.srcs[0])

            def run(regs, arr):
                arr[k].store(index(regs), value(regs))
            return run
        if op is Op.CHAIN and getattr(ins, "parts", None) is not None:
            parts = [self.compile_immediate(part) for part in ins.parts]
            if len(parts) == 2:
                first, second = parts

                def run(regs, arr):
                    first(regs, arr)
                    second(regs, arr)
                return run
            if len(parts) == 3:
                first, second, third = parts

                def run(regs, arr):
                    first(regs, arr)
                    second(regs, arr)
                    third(regs, arr)
                return run

            def run(regs, arr):
                for part in parts:
                    part(regs, arr)
            return run
        if op is Op.NOP:
            def run(regs, arr):
                pass
            return run
        # Calls and anything exotic: run the general form, then commit —
        # exactly the per-part commit the reference interpreter performs.
        execute = self.compile_exec(ins)

        def run(regs, arr):
            regw: List = []
            stw: List = []
            execute(regs, arr, regw, stw)
            for d, v in regw:
                regs[d] = v
            for storage, i, v in stw:
                storage.store(i, v)
        return run

    def _call(self, ins: Instruction):
        cmod = self.cmod
        callee = ins.callee
        getters = []
        for src in ins.srcs:
            if isinstance(src, ArraySymbol):
                name = src.name
                if name in self.arr_slots or name in self.module.global_arrays:
                    k = self.arr_slot(name)
                    getters.append(lambda regs, arr, _k=k: arr[_k])
                else:
                    def unbound(regs, arr, _name=name):
                        raise SimulationError(
                            f"array argument {_name!r} is not bound")
                    getters.append(unbound)
            else:
                read = self.checked_reader(src)
                getters.append(lambda regs, arr, _r=read: _r(regs))
        d = self.reg_slot(ins.dest.name) if ins.dest is not None else None

        def run(regs, arr, regw, stw):
            target = cmod.graphs.get(callee)
            if target is None:
                raise SimulationError(
                    f"call to unknown function {callee!r}")
            args = [getter(regs, arr) for getter in getters]
            value = _run_graph(cmod, target, args)
            if d is not None:
                regw.append((d, value))
        return run

    # -- node steps ---------------------------------------------------------------

    def compile_step(self, nid: int, node: Node, edge_base: int):
        """Compile one node into a ``(regs, arr) -> edge_index`` closure.

        The step executes the node's read phase, commits register writes
        then stores, and returns the index of the control-flow edge taken
        (``-1`` means return; the return value is left in ``regs[0]``).
        """
        control = node.control
        ops = node.ops

        # Control compilation.
        if control is not None and control.op is Op.RET:
            if control.srcs:
                read_ret = self.checked_reader(control.srcs[0])
            else:
                read_ret = lambda regs: None
            return self._step_ret(ops, read_ret)
        if control is not None and control.op is Op.BR:
            taken = self._branch_taken(control.srcs[0])
            edges = tuple(range(edge_base, edge_base + len(node.succs)))
            return self._step_branch(ops, taken, edges)
        if len(node.succs) == 1:
            return self._step_fall(ops, edge_base)
        fn_name = self.graph.name
        n_succs = len(node.succs)

        def bad_successors(regs, arr):
            raise SimulationError(
                f"{fn_name}: node {nid} has {n_succs} successors "
                f"but no branch")
        return bad_successors

    def _branch_taken(self, operand):
        """Compile the branch condition into a ``(regs) -> bool`` closure."""
        if isinstance(operand, Constant):
            taken = operand.value != 0
            return lambda regs: taken
        read = self.scalar_reader(operand)
        return lambda regs: read(regs) != 0

    def _classify(self, ops: Sequence[Instruction]):
        """Split *ops* into (computes, dests) when every op is a pure value
        producer with a destination; otherwise return ``None`` (the node
        needs the general pending-write form)."""
        computes = []
        dests = []
        for ins in ops:
            if ins.op is Op.CHAIN or ins.dest is None:
                return None
            compute = self.compile_value(ins)
            if compute is None:
                return None
            computes.append(compute)
            dests.append(self.reg_slot(ins.dest.name))
        return computes, dests

    def _generic_execs(self, ops: Sequence[Instruction]):
        return [self.compile_exec(ins) for ins in ops]

    def _step_fall(self, ops, edge: int):
        if not ops:
            return lambda regs, arr: edge
        if len(ops) == 1:
            ins = ops[0]
            if ins.op is Op.CHAIN and getattr(ins, "parts", None) is not None:
                imm = self.compile_immediate(ins)

                def step(regs, arr):
                    imm(regs, arr)
                    return edge
                return step
            if ins.op is Op.STORE or ins.op is Op.FSTORE:
                k = self.arr_slot(ins.array.name)
                index = self.scalar_reader(ins.srcs[1])
                value = self.scalar_reader(ins.srcs[0])

                def step(regs, arr):
                    i = index(regs)
                    v = value(regs)
                    arr[k].store(i, v)
                    return edge
                return step
        pure = self._classify(ops)
        if pure is not None:
            computes, dests = pure
            if len(computes) == 1:
                compute, = computes
                d, = dests

                def step(regs, arr):
                    regs[d] = compute(regs, arr)
                    return edge
                return step
            if len(computes) == 2:
                c0, c1 = computes
                d0, d1 = dests

                def step(regs, arr):
                    v0 = c0(regs, arr)
                    v1 = c1(regs, arr)
                    regs[d0] = v0
                    regs[d1] = v1
                    return edge
                return step

            def step(regs, arr):
                values = [compute(regs, arr) for compute in computes]
                for d, v in zip(dests, values):
                    regs[d] = v
                return edge
            return step
        execs = self._generic_execs(ops)

        def step(regs, arr):
            regw: List = []
            stw: List = []
            for execute in execs:
                execute(regs, arr, regw, stw)
            for d, v in regw:
                regs[d] = v
            for storage, i, v in stw:
                storage.store(i, v)
            return edge
        return step

    def _step_branch(self, ops, taken, edges: Tuple[int, ...]):
        if not ops:
            def step(regs, arr):
                return edges[0] if taken(regs) else edges[1]
            return step
        pure = self._classify(ops)
        if pure is not None:
            computes, dests = pure
            if len(computes) == 1:
                compute, = computes
                d, = dests

                def step(regs, arr):
                    v = compute(regs, arr)
                    t = taken(regs)
                    regs[d] = v
                    return edges[0] if t else edges[1]
                return step

            def step(regs, arr):
                values = [compute(regs, arr) for compute in computes]
                t = taken(regs)
                for d, v in zip(dests, values):
                    regs[d] = v
                return edges[0] if t else edges[1]
            return step
        execs = self._generic_execs(ops)

        def step(regs, arr):
            regw: List = []
            stw: List = []
            for execute in execs:
                execute(regs, arr, regw, stw)
            t = taken(regs)
            for d, v in regw:
                regs[d] = v
            for storage, i, v in stw:
                storage.store(i, v)
            return edges[0] if t else edges[1]
        return step

    def _step_ret(self, ops, read_ret):
        if not ops:
            def step(regs, arr):
                regs[0] = read_ret(regs)
                return -1
            return step
        execs = self._generic_execs(ops)

        def step(regs, arr):
            regw: List = []
            stw: List = []
            for execute in execs:
                execute(regs, arr, regw, stw)
            value = read_ret(regs)
            for d, v in regw:
                regs[d] = v
            for storage, i, v in stw:
                storage.store(i, v)
            regs[0] = value
            return -1
        return step


class _CompiledGraph:
    """One function graph compiled to closures."""

    __slots__ = ("name", "param_plan", "local_plan", "global_plan",
                 "missing_plan", "n_regs", "n_arrays", "n_params",
                 "steps", "edge_dst", "edge_pairs", "node_ids", "entry_idx")

    def __init__(self, graph: ProgramGraph, module: GraphModule,
                 cmod: "CompiledModule"):
        compiler = _GraphCompiler(graph, module, cmod)
        self.name = graph.name
        self.n_params = len(graph.params)
        self.param_plan, self.local_plan = compiler.build_plans()

        # Compile every node; edge indices are assigned in node order.
        node_ids: List[int] = list(graph.nodes)
        idx_of = {node_id: i for i, node_id in enumerate(node_ids)}
        steps: List = []
        edge_dst: List[int] = []
        edge_pairs: List[Tuple[int, int]] = []
        dangling: List[Tuple[int, int]] = []  # (edge index, missing node id)
        for nid in node_ids:
            node = graph.nodes[nid]
            steps.append(compiler.compile_step(nid, node, len(edge_dst)))
            for succ in node.succs:
                edge_pairs.append((nid, succ))
                dst = idx_of.get(succ)
                if dst is None:
                    dangling.append((len(edge_dst), succ))
                    dst = -1
                edge_dst.append(dst)
        for edge_index, missing in dangling:
            def bad_target(regs, arr, _missing=missing):
                raise SimulationError(f"unknown node {_missing}")
            edge_dst[edge_index] = len(steps)
            steps.append(bad_target)

        self.steps = steps
        self.edge_dst = edge_dst
        self.edge_pairs = edge_pairs
        self.node_ids = node_ids
        self.entry_idx = idx_of.get(graph.entry, -1)
        self.global_plan = compiler.global_plan
        self.missing_plan = compiler.missing_plan
        self.n_regs = len(compiler.reg_slots) + 1
        self.n_arrays = len(compiler.arr_slots)


class CompiledModule:
    """All graphs of one :class:`GraphModule` in compiled form."""

    def __init__(self, module: GraphModule):
        self.module = module
        self.graphs: Dict[str, _CompiledGraph] = {}
        self._state: Optional[_RunState] = None
        for name, graph in module.graphs.items():
            self.graphs[name] = _CompiledGraph(graph, module, self)
        self._signature = _structure_signature(module)


def compile_module(module: GraphModule) -> CompiledModule:
    """Compiled form of *module*, cached on the module itself.

    The cache is validated against a structural signature, so the
    exploration loop's repeated runs reuse compilation while any graph
    mutation (chain selection, optimizer passes) triggers a recompile.
    """
    cached = module.__dict__.get("_compiled_cache")
    if cached is not None and _signature_matches(module, cached._signature):
        return cached
    compiled = CompiledModule(module)
    module._compiled_cache = compiled
    return compiled


# -- bytecode lowering -------------------------------------------------------------
#
# The third engine tier lowers each graph into *direct-threaded words*:
# every instruction is one flat list ``[opcode, operand, ...]`` whose
# operands are pre-resolved register/array slot indices, inlined constants
# and — for control transfers — direct references to the successor word,
# so the dispatch loop in :mod:`repro.sim.bytecode` never touches a
# program counter, a closure or a dict.  The lowering lives here so both
# compiled forms share the slot machinery (:class:`_FrameLayout`), the
# operation tables and the structural-signature cache protocol.
#
# Conventions: register slots index the frame's flat ``regs`` list (slot 0
# = return value).  Per-node scratch values live at *negative* indices —
# the register list is sized ``named + 1 + watermark`` so the tail region
# never collides with named slots.  Profile counting is reduced to one
# increment per *branch* edge: fall-through edge counts equal their source
# node's execution count, and node counts equal in-edge sums plus call
# arrivals, so :meth:`_LoweredGraph.resolve_counters` reconstructs the
# exact flat arrays (bit-identical for completed runs — aborted runs
# discard their profile on every engine) that
# :meth:`ProfileData.merge_arrays` folds unchanged.

_opcode_ids = itertools.count()


def _op() -> int:
    return next(_opcode_ids)


# Fused forms — one operation plus the fall-through jump, the dominant
# node shape of level-0 graphs: one dispatch and zero Python calls per
# machine cycle.  The ladder compares opcodes sequentially, so these are
# declared hottest-first.  The trailing operand of every word is the
# successor word (for fused/jump forms: the jump target).
ADD_RR_J = _op()     # d a b T
LOAD_J = _op()       # d k i T
BR = _op()           # c e0 T0 e1 T1
ADD_RC_J = _op()     # d a c T
J = _op()            # T      (forward jump: no cycle-limit check)
JB = _op()           # T      (backward jump: bumps + checks the limit)
BINF_RC_J = _op()    # d f a c T
MUL_RC_J = _op()     # d a c T
SUB_RC_J = _op()     # d a c T
MUL_RR_J = _op()     # d a b T
SUB_RR_J = _op()     # d a b T
STORE_J = _op()      # k v i T
MOV_C_J = _op()      # d c T
MOV_R_J = _op()      # d a name T
LOADC_J = _op()      # d k ci T
BINF_RR_J = _op()    # d f a b T
BINF_CR_J = _op()    # d f c b T
STORE_CI_J = _op()   # k v ci T
NEG_J = _op()        # d a T
UNF_J = _op()        # d f a T
# Deferred-node plumbing (VLIW nodes whose writes must commit after
# reads and cannot be statically reordered).
CP = _op()           # d s N        regs[d] = regs[s]
CP2 = _op()          # d1 s1 d2 s2 N
TEST = _op()         # s c N        regs[s] = regs[c] != 0 (pre-commit)
# Un-fused value forms (multi-operation nodes).
ADD_RR = _op()       # d a b N
ADD_RC = _op()       # d a c N
SUB_RR = _op()       # d a b N
SUB_RC = _op()       # d a c N
MUL_RR = _op()       # d a b N
MUL_RC = _op()       # d a c N
LOAD = _op()         # d k i N
LOADC = _op()        # d k ci N
MOV_C = _op()        # d c N
MOV_R = _op()        # d a name N  (undefined-register check, like the
                     #              closure engine's checked MOV reader)
BINF_RR = _op()      # d f a b N
BINF_RC = _op()      # d f a c N
BINF_CR = _op()      # d f c b N
BINF_CC = _op()      # d f c1 c2 N (kept runtime: div-by-zero raises only
                     #              when executed)
NEG = _op()          # d a N
UNF = _op()          # d f a N
UNFC = _op()         # d f c N
# Stores: value spec x index spec (R = register slot, C = inline const).
ST_RR = _op()        # k v i N
ST_RC = _op()        # k v ci N
ST_CR = _op()        # k cv i N
ST_CC = _op()        # k cv ci N
# Deferred store commits (operands pre-captured in scratch or inline).
STD_SS = _op()       # k i v N
STD_SC = _op()       # k i cv N
STD_CS = _op()       # k ci v N
STD_CC = _op()       # k ci cv N
RETREAD = _op()      # s r name N  (pre-commit checked read of the return
                     #              register)
INTRN = _op()        # d f specs N (generic intrinsic)
CALL = _op()         # callee dspec specs N
RET_R = _op()        # r name
RET_C = _op()        # c
RET_N = _op()        # -
RET_S = _op()        # s
ERROR = _op()        # message     raise SimulationError(message)

#: Binary opcodes with dedicated inline arms: op -> (RR form, RC form,
#: commutative).  Commutative const/reg operands fold into the RC form;
#: everything else goes through the generic BINF arms with the function
#: object inlined in the word.
_SPEC_BINARY = {
    Op.ADD: (ADD_RR, ADD_RC, True),
    Op.FADD: (ADD_RR, ADD_RC, True),
    Op.SUB: (SUB_RR, SUB_RC, False),
    Op.FSUB: (SUB_RR, SUB_RC, False),
    Op.MUL: (MUL_RR, MUL_RC, True),
    Op.FMUL: (MUL_RR, MUL_RC, True),
}

#: Un-fused opcode -> its fused-with-fall-jump form (same word layout:
#: the trailing next-word slot becomes the jump target).
_FUSED_FORM = {
    ADD_RR: ADD_RR_J, ADD_RC: ADD_RC_J,
    SUB_RR: SUB_RR_J, SUB_RC: SUB_RC_J,
    MUL_RR: MUL_RR_J, MUL_RC: MUL_RC_J,
    LOAD: LOAD_J, LOADC: LOADC_J,
    MOV_C: MOV_C_J, MOV_R: MOV_R_J,
    BINF_RR: BINF_RR_J, BINF_RC: BINF_RC_J, BINF_CR: BINF_CR_J,
    NEG: NEG_J, UNF: UNF_J,
    ST_RR: STORE_J, ST_RC: STORE_CI_J,
}

#: Edge classes for profile reconstruction.
_EDGE_ZERO = 0      # never jumped (error nodes, const-branch untaken)
_EDGE_COUNTED = 1   # branch edges: runtime counter
_EDGE_DERIVED = 2   # fall/jump edges: count == source node's count


class _BytecodeLowerer(_FrameLayout):
    """Lowers one :class:`ProgramGraph` into direct-threaded words."""

    def __init__(self, graph: ProgramGraph, module: GraphModule,
                 lmod: "LoweredModule", idx_of: Dict[int, int]):
        super().__init__(graph, module)
        self.lmod = lmod
        self.idx_of = idx_of
        self._node_idx = -1
        self.words: List[list] = []
        self.edge_pairs: List[Tuple[int, int]] = []
        self.edge_class: List[int] = []
        #: (word, slot, successor node id) fixed up once all nodes exist.
        self.patches: List[Tuple[list, int, int]] = []
        self.scratch_watermark = 0
        self._scratch_used = 0
        self._pending: Optional[list] = None

    # -- word emission -------------------------------------------------------------

    def _emit(self, word: list, terminal: bool = False) -> list:
        """Append *word*, threading the previous word's next-slot to it.

        Non-terminal words carry a trailing ``None`` placeholder that the
        *next* emitted word fills; terminal words (jumps, returns, errors)
        end the thread."""
        pending = self._pending
        if pending is not None:
            pending[-1] = word
        self._pending = None if terminal else word
        self.words.append(word)
        return word

    def _emit_jump(self, edge_index: int, succ: int) -> None:
        # The in-loop cycle limit is checked at loop back-edges, branches
        # and frame entries only: every CFG cycle contains a backward
        # edge in the fixed node order, so a runaway program still
        # aborts.  A *bounded* overrun that slips past this sparse check
        # is caught exactly at the end of the run, when the engine
        # compares the reconstructed cycle count against the limit — so
        # a run either completes within the limit on every engine or
        # raises on every engine (the abort point inside an aborted run
        # may differ; aborted runs discard all results everywhere).
        opcode = JB if self._is_backward(succ) else J
        word = self._emit([opcode, None], terminal=True)
        self.patches.append((word, 1, succ))
        self.edge_class[edge_index] = _EDGE_DERIVED

    def _is_backward(self, succ: int) -> bool:
        target = self.idx_of.get(succ)
        return target is not None and target <= self._node_idx

    # -- scratch slots -------------------------------------------------------------

    def _scratch(self) -> int:
        self._scratch_used += 1
        if self._scratch_used > self.scratch_watermark:
            self.scratch_watermark = self._scratch_used
        return -self._scratch_used

    # -- per-operation emission ----------------------------------------------------

    def _emit_error(self, message: str) -> int:
        self._emit([ERROR, message], terminal=True)
        return 1

    def _emit_binary(self, op: Op, fn, lhs, rhs, d: int) -> int:
        lhs_reg = isinstance(lhs, VirtualReg)
        rhs_reg = isinstance(rhs, VirtualReg)
        lhs_const = isinstance(lhs, Constant)
        rhs_const = isinstance(rhs, Constant)
        if not (lhs_reg or lhs_const):
            return self._emit_error(f"cannot read operand {lhs!r}")
        if not (rhs_reg or rhs_const):
            return self._emit_error(f"cannot read operand {rhs!r}")
        spec = _SPEC_BINARY.get(op)
        if lhs_reg and rhs_reg:
            a, b = self.reg_slot(lhs.name), self.reg_slot(rhs.name)
            if spec is not None:
                self._emit([spec[0], d, a, b, None])
            else:
                self._emit([BINF_RR, d, fn, a, b, None])
        elif lhs_reg:
            a = self.reg_slot(lhs.name)
            if spec is not None:
                self._emit([spec[1], d, a, rhs.value, None])
            else:
                self._emit([BINF_RC, d, fn, a, rhs.value, None])
        elif rhs_reg:
            b = self.reg_slot(rhs.name)
            if spec is not None and spec[2]:
                self._emit([spec[1], d, b, lhs.value, None])
            else:
                self._emit([BINF_CR, d, fn, lhs.value, b, None])
        else:
            self._emit([BINF_CC, d, fn, lhs.value, rhs.value, None])
        return 1

    def _emit_value(self, ins: Instruction, d: int) -> Optional[int]:
        """Emit *ins* computing into ``regs[d]``; ``None`` when the opcode
        produces no value (stores, calls, chains, nops)."""
        op = ins.op
        fn = _BINARY_FN.get(op)
        if fn is not None:
            return self._emit_binary(op, fn, ins.srcs[0], ins.srcs[1], d)
        fn = _UNARY_FN.get(op)
        if fn is not None:
            src = ins.srcs[0]
            if isinstance(src, VirtualReg):
                if op is Op.NEG or op is Op.FNEG:
                    self._emit([NEG, d, self.reg_slot(src.name), None])
                else:
                    self._emit([UNF, d, fn, self.reg_slot(src.name), None])
                return 1
            if isinstance(src, Constant):
                self._emit([UNFC, d, fn, src.value, None])
                return 1
            return self._emit_error(f"cannot read operand {src!r}")
        if op is Op.MOV or op is Op.FMOV:
            src = ins.srcs[0]
            if isinstance(src, Constant):
                self._emit([MOV_C, d, src.value, None])
                return 1
            if isinstance(src, VirtualReg):
                self._emit([MOV_R, d, self.reg_slot(src.name), src.name,
                            None])
                return 1
            return self._emit_error(f"cannot read operand {src!r}")
        if op is Op.LOAD or op is Op.FLOAD:
            name = ins.array.name
            if not self.array_is_bound(name):
                return self._emit_error(f"unknown array {name!r}")
            k = self.arr_slot(name)
            index = ins.srcs[0]
            if isinstance(index, VirtualReg):
                self._emit([LOAD, d, k, self.reg_slot(index.name), None])
                return 1
            if isinstance(index, Constant):
                self._emit([LOADC, d, k, index.value, None])
                return 1
            return self._emit_error(f"cannot read operand {index!r}")
        if op is Op.INTRIN:
            return self._emit_intrinsic(ins, d)
        return None

    def _emit_intrinsic(self, ins: Instruction, d: int) -> int:
        impl = INTRINSIC_IMPL.get(ins.callee)
        if impl is None:
            return self._emit_error(f"unknown intrinsic {ins.callee!r}")
        srcs = ins.srcs
        if len(srcs) == 1 and isinstance(srcs[0], VirtualReg):
            self._emit([UNF, d, impl, self.reg_slot(srcs[0].name), None])
            return 1
        if len(srcs) == 2 and isinstance(srcs[0], VirtualReg) \
                and isinstance(srcs[1], VirtualReg):
            self._emit([BINF_RR, d, impl, self.reg_slot(srcs[0].name),
                        self.reg_slot(srcs[1].name), None])
            return 1
        specs = []
        for src in srcs:
            if isinstance(src, VirtualReg):
                specs.append((0, self.reg_slot(src.name)))
            elif isinstance(src, Constant):
                specs.append((1, src.value))
            else:
                specs.append((2, f"cannot read operand {src!r}"))
        self._emit([INTRN, d, impl, tuple(specs), None])
        return 1

    def _emit_store_direct(self, ins: Instruction) -> int:
        name = ins.array.name
        if not self.array_is_bound(name):
            return self._emit_error(f"unknown array {name!r}")
        k = self.arr_slot(name)
        value, index = ins.srcs[0], ins.srcs[1]
        i_reg = isinstance(index, VirtualReg)
        v_reg = isinstance(value, VirtualReg)
        if not i_reg and not isinstance(index, Constant):
            return self._emit_error(f"cannot read operand {index!r}")
        if not v_reg and not isinstance(value, Constant):
            return self._emit_error(f"cannot read operand {value!r}")
        if v_reg and i_reg:
            self._emit([ST_RR, k, self.reg_slot(value.name),
                        self.reg_slot(index.name), None])
        elif v_reg:
            self._emit([ST_RC, k, self.reg_slot(value.name), index.value,
                        None])
        elif i_reg:
            self._emit([ST_CR, k, value.value, self.reg_slot(index.name),
                        None])
        else:
            self._emit([ST_CC, k, value.value, index.value, None])
        return 1

    def _emit_call(self, ins: Instruction, dspec: Optional[int]) -> int:
        # Argument specs: 0 = checked register (slot, name), 1 = constant,
        # 2 = array slot, 3 = unbound array name, 4 = unreadable operand.
        specs = []
        for src in ins.srcs:
            if isinstance(src, ArraySymbol):
                name = src.name
                if name in self.arr_slots \
                        or name in self.module.global_arrays:
                    specs.append((2, self.arr_slot(name), None))
                else:
                    specs.append((3, name, None))
            elif isinstance(src, VirtualReg):
                specs.append((0, self.reg_slot(src.name), src.name))
            elif isinstance(src, Constant):
                specs.append((1, src.value, None))
            else:
                specs.append((4, f"cannot read operand {src!r}", None))
        self._emit([CALL, ins.callee, dspec, tuple(specs), None])
        return 1

    def _emit_op_direct(self, ins: Instruction) -> int:
        """Emit *ins* with immediate writes; returns words emitted.

        Used for hazard-free nodes (direct order is then bit-identical to
        the read/commit discipline) and for chain parts, whose commits
        are immediate by definition."""
        op = ins.op
        if op is Op.CHAIN and getattr(ins, "parts", None) is not None:
            count = 0
            for part in ins.parts:
                count += self._emit_op_direct(part)
            return count
        if op is Op.NOP:
            return 0
        if op is Op.STORE or op is Op.FSTORE:
            return self._emit_store_direct(ins)
        if op is Op.CALL:
            d = self.reg_slot(ins.dest.name) if ins.dest is not None else None
            return self._emit_call(ins, d)
        if ins.dest is not None:
            d = self.reg_slot(ins.dest.name)
        else:
            d = self._scratch()  # computed and discarded; errors still raise
        emitted = self._emit_value(ins, d)
        if emitted is None:
            return self._emit_error(f"cannot execute {ins}")
        return emitted

    def _defer_operand(self, operand):
        """(is_const, payload) for a deferred-store operand; register
        values are captured into scratch at read time."""
        if isinstance(operand, Constant):
            return (True, operand.value)
        if isinstance(operand, VirtualReg):
            s = self._scratch()
            self._emit([CP, s, self.reg_slot(operand.name), None])
            return (False, s)
        self._emit_error(f"cannot read operand {operand!r}")
        return None

    def _emit_op_deferred(self, ins: Instruction, pending_regs: List,
                          pending_stores: List) -> None:
        """Emit *ins* in read phase, deferring its writes into the pending
        lists committed at the end of the node's cycle."""
        op = ins.op
        if op is Op.CHAIN and getattr(ins, "parts", None) is not None:
            self._emit_op_direct(ins)  # chain commits are immediate
            return
        if op is Op.NOP:
            return
        if op is Op.STORE or op is Op.FSTORE:
            name = ins.array.name
            if not self.array_is_bound(name):
                self._emit_error(f"unknown array {name!r}")
                return
            k = self.arr_slot(name)
            ispec = self._defer_operand(ins.srcs[1])
            if ispec is None:
                return
            vspec = self._defer_operand(ins.srcs[0])
            if vspec is None:
                return
            pending_stores.append((k, ispec, vspec))
            return
        if op is Op.CALL:
            if ins.dest is not None:
                s = self._scratch()
                self._emit_call(ins, s)
                pending_regs.append((self.reg_slot(ins.dest.name), s))
            else:
                self._emit_call(ins, None)
            return
        s = self._scratch()
        emitted = self._emit_value(ins, s)
        if emitted is None:
            self._emit_error(f"cannot execute {ins}")
            return
        if ins.dest is not None:
            pending_regs.append((self.reg_slot(ins.dest.name), s))

    def _emit_commits(self, pending_regs: List,
                      pending_stores: List) -> None:
        """Commit registers (op order) then stores (op order)."""
        i = 0
        count = len(pending_regs)
        while count - i >= 2:
            d1, s1 = pending_regs[i]
            d2, s2 = pending_regs[i + 1]
            self._emit([CP2, d1, s1, d2, s2, None])
            i += 2
        if i < count:
            d, s = pending_regs[i]
            self._emit([CP, d, s, None])
        for k, (i_const, iv), (v_const, vv) in pending_stores:
            if i_const and v_const:
                self._emit([STD_CC, k, iv, vv, None])
            elif i_const:
                self._emit([STD_CS, k, iv, vv, None])
            elif v_const:
                self._emit([STD_SC, k, iv, vv, None])
            else:
                self._emit([STD_SS, k, iv, vv, None])

    # -- hazard analysis -----------------------------------------------------------

    @staticmethod
    def _chain_effects(ins: Instruction, reads: set, writes: set) -> None:
        for part in ins.parts:
            if part.op is Op.CHAIN and getattr(part, "parts", None) \
                    is not None:
                _BytecodeLowerer._chain_effects(part, reads, writes)
                continue
            for src in part.srcs:
                if isinstance(src, VirtualReg):
                    reads.add(src.name)
            if part.dest is not None:
                writes.add(part.dest.name)

    def _needs_defer(self, node: Node) -> bool:
        """True when direct in-order emission would let some operation (or
        the control instruction) observe a same-cycle write that the VLIW
        read/commit discipline hides from it.  Conservative: deferred
        emission is always correct, direct is the fast path."""
        written: set = set()
        store_seen = False
        for ins in node.ops:
            op = ins.op
            if op is Op.CHAIN and getattr(ins, "parts", None) is not None:
                if store_seen:
                    return True  # the chain would see the pending store
                reads: set = set()
                writes: set = set()
                self._chain_effects(ins, reads, writes)
                if (reads | writes) & written:
                    return True
                continue
            for src in ins.srcs:
                if isinstance(src, VirtualReg) and src.name in written:
                    return True
            if op is Op.STORE or op is Op.FSTORE:
                store_seen = True
            elif (op is Op.LOAD or op is Op.FLOAD or op is Op.CALL) \
                    and store_seen:
                return True
            if ins.dest is not None:
                written.add(ins.dest.name)
        control = node.control
        if control is not None:
            for src in control.srcs:
                if isinstance(src, VirtualReg) and src.name in written:
                    return True
        return False

    def _reorder_for_direct(self, node: Node) -> Optional[List[Instruction]]:
        """Try to order a hazardous node's operations so direct emission is
        still bit-identical: every reader runs before the writer it must
        not observe, loads and pure computes run before stores, stores
        keep their relative order (the write-phase commit order).

        Returns the reordered op list, or ``None`` when the node cannot be
        statically untangled (chains and calls have positional immediate
        effects; true read/write cycles — swap patterns — need scratch).
        Within the reordered read phase the evaluation *order* of
        independent operations changes, which is unobservable for
        completed runs (all reads still see pre-cycle state).
        """
        ops = node.ops
        stores: List[Instruction] = []
        computes: List[Instruction] = []
        for ins in ops:
            op = ins.op
            if op is Op.CHAIN or op is Op.CALL:
                return None
            if op is Op.STORE or op is Op.FSTORE:
                stores.append(ins)
            else:
                computes.append(ins)
        dests: Dict[str, List[int]] = {}
        for i, ins in enumerate(computes):
            if ins.dest is not None:
                dests.setdefault(ins.dest.name, []).append(i)
        # stores run last, so their operands must not be in-node defs
        for ins in stores:
            for src in ins.srcs:
                if isinstance(src, VirtualReg) and src.name in dests:
                    return None
        # reader-before-writer topological order over the computes
        succs: List[List[int]] = [[] for _ in computes]
        degree = [0] * len(computes)
        for i, ins in enumerate(computes):
            for src in ins.srcs:
                if not isinstance(src, VirtualReg):
                    continue
                for j in dests.get(src.name, ()):
                    if j != i:
                        succs[i].append(j)  # i (reader) before j (writer)
                        degree[j] += 1
        # same-dest writers keep their relative order (last write wins)
        for writers in dests.values():
            for a, b in zip(writers, writers[1:]):
                succs[a].append(b)
                degree[b] += 1
        order: List[Instruction] = []
        ready = [i for i in range(len(computes)) if degree[i] == 0]
        ready.reverse()  # pop() from the front -> stable original order
        while ready:
            i = ready.pop()
            order.append(computes[i])
            pending: List[int] = []
            for j in succs[i]:
                degree[j] -= 1
                if degree[j] == 0:
                    pending.append(j)
            pending.reverse()
            ready.extend(pending)
        if len(order) != len(computes):
            return None  # a genuine read/write cycle: fall back to scratch
        return order + stores

    # -- node lowering -------------------------------------------------------------

    def _emit_branch(self, cond, cond_slot: Optional[int], edge_base: int,
                     succs: List[int]) -> None:
        # A malformed single-successor branch still *runs* on the other
        # engines as long as only the true edge is taken, so the error
        # word for the missing false edge is reached only when that edge
        # is actually traversed.
        missing = (f"{self.graph.name}: branch node with "
                   f"{len(succs)} successors has no false edge")
        if cond_slot is None and isinstance(cond, Constant):
            chosen = 0 if cond.value != 0 else 1
            if chosen < len(succs):
                self._emit_jump(edge_base + chosen, succs[chosen])
            else:
                self._emit_error(missing)
            return
        if cond_slot is None:
            if isinstance(cond, VirtualReg):
                cond_slot = self.reg_slot(cond.name)
            else:
                self._emit_error(f"cannot read operand {cond!r}")
                return
        if len(succs) >= 2:
            word = self._emit([BR, cond_slot, edge_base, None,
                               edge_base + 1, None], terminal=True)
            self.patches.append((word, 3, succs[0]))
            self.patches.append((word, 5, succs[1]))
            self.edge_class[edge_base] = _EDGE_COUNTED
            self.edge_class[edge_base + 1] = _EDGE_COUNTED
            return
        # One successor: the false leg jumps straight to an error word
        # (its edge-counter operand reuses the true edge's slot — the run
        # aborts immediately, discarding the profile).
        error_word = [ERROR, missing]
        word = self._emit([BR, cond_slot, edge_base, None,
                           edge_base, error_word], terminal=True)
        self.patches.append((word, 3, succs[0]))
        self.edge_class[edge_base] = _EDGE_COUNTED
        self._emit(error_word, terminal=True)

    def _emit_return(self, control: Instruction,
                     ret_slot: Optional[int]) -> None:
        if ret_slot is not None:
            self._emit([RET_S, ret_slot], terminal=True)
            return
        if not control.srcs:
            self._emit([RET_N], terminal=True)
            return
        value = control.srcs[0]
        if isinstance(value, Constant):
            self._emit([RET_C, value.value], terminal=True)
        elif isinstance(value, VirtualReg):
            self._emit([RET_R, self.reg_slot(value.name), value.name],
                       terminal=True)
        else:
            self._emit_error(f"cannot read operand {value!r}")

    def _control_prereads(self, node: Node, is_br: bool, is_ret: bool,
                          pre_cycle_only: bool):
        """Capture control operands into scratch before any same-node
        write can land.  ``pre_cycle_only`` limits the capture to nodes
        whose operations write a register the control instruction reads
        (the reordered-direct path); the deferred path always captures."""
        control = node.control
        cond_slot = None
        ret_slot = None
        if pre_cycle_only:
            dests = {ins.dest.name for ins in node.ops
                     if ins.op is not Op.CHAIN and ins.dest is not None}
            hazard = any(isinstance(src, VirtualReg) and src.name in dests
                         for src in control.srcs)
            if not hazard:
                return None, None
        if is_br and isinstance(control.srcs[0], VirtualReg):
            cond_slot = self._scratch()
            self._emit([TEST, cond_slot,
                        self.reg_slot(control.srcs[0].name), None])
        elif is_ret and control.srcs \
                and isinstance(control.srcs[0], VirtualReg):
            ret_slot = self._scratch()
            self._emit([RETREAD, ret_slot,
                        self.reg_slot(control.srcs[0].name),
                        control.srcs[0].name, None])
        return cond_slot, ret_slot

    def lower_node(self, nid: int, node: Node) -> None:
        self._scratch_used = 0
        self._node_idx = self.idx_of[nid]
        succs = node.succs
        edge_base = len(self.edge_pairs)
        for succ in succs:
            self.edge_pairs.append((nid, succ))
            self.edge_class.append(_EDGE_ZERO)
        control = node.control
        is_ret = control is not None and control.op is Op.RET
        is_br = control is not None and control.op is Op.BR
        if not is_ret and not is_br and len(succs) != 1:
            # mirrors the closure engine: the malformed node raises before
            # executing any of its operations
            self._emit_error(
                f"{self.graph.name}: node {nid} has {len(succs)} "
                f"successors but no branch")
            return
        if is_br and not succs:
            # no successors at all: nothing a branch can ever transfer to
            self._emit_error(
                f"{self.graph.name}: node {nid} branches with "
                f"no successors")
            return

        ops = node.ops
        direct_ops: Optional[List[Instruction]] = ops
        prereads = False
        if self._needs_defer(node):
            direct_ops = self._reorder_for_direct(node)
            prereads = direct_ops is not None

        if direct_ops is not None:
            cond_slot = ret_slot = None
            if prereads and control is not None:
                cond_slot, ret_slot = self._control_prereads(
                    node, is_br, is_ret, pre_cycle_only=True)
            if not is_ret and not is_br:
                # fall-through fast path: the node's last operation fuses
                # with the jump, saving one dispatch per machine cycle
                # (a one-operation node becomes a single fused word).
                # Backward falls stay un-fused: the JB word carries the
                # cycle-limit check for the loop.
                for ins in direct_ops:
                    self._emit_op_direct(ins)
                tail = self._pending
                fused = _FUSED_FORM.get(tail[0]) \
                    if tail is not None and not self._is_backward(succs[0]) \
                    else None
                if fused is not None:
                    tail[0] = fused
                    self._pending = None
                    self.patches.append((tail, len(tail) - 1, succs[0]))
                    self.edge_class[edge_base] = _EDGE_DERIVED
                else:
                    self._emit_jump(edge_base, succs[0])
                return
            for ins in direct_ops:
                self._emit_op_direct(ins)
            if is_br:
                self._emit_branch(control.srcs[0], cond_slot, edge_base,
                                  succs)
            else:
                self._emit_return(control, ret_slot)
            return

        pending_regs: List = []
        pending_stores: List = []
        for ins in ops:
            self._emit_op_deferred(ins, pending_regs, pending_stores)
        cond_slot = ret_slot = None
        if control is not None:
            cond_slot, ret_slot = self._control_prereads(
                node, is_br, is_ret, pre_cycle_only=False)
        self._emit_commits(pending_regs, pending_stores)
        if is_br:
            self._emit_branch(control.srcs[0], cond_slot, edge_base, succs)
        elif is_ret:
            self._emit_return(control, ret_slot)
        else:
            self._emit_jump(edge_base, succs[0])


class _LoweredGraph:
    """One function graph in direct-threaded bytecode form."""

    __slots__ = ("name", "n_params", "param_plan", "local_plan",
                 "global_plan", "missing_plan", "n_regs", "n_arrays",
                 "scratch_watermark", "words", "entry_word", "entry_idx",
                 "node_ids", "edge_pairs", "n_counters", "_in_edges",
                 "_derived_out", "_derived_in_count", "_edge_dst_idx")

    def __init__(self, graph: ProgramGraph, module: GraphModule,
                 lmod: "LoweredModule"):
        node_ids: List[int] = list(graph.nodes)
        idx_of = {node_id: i for i, node_id in enumerate(node_ids)}
        low = _BytecodeLowerer(graph, module, lmod, idx_of)
        self.name = graph.name
        self.n_params = len(graph.params)
        self.param_plan, self.local_plan = low.build_plans()

        node_word: Dict[int, list] = {}
        for nid in node_ids:
            start = len(low.words)
            low.lower_node(nid, graph.nodes[nid])
            node_word[nid] = low.words[start]

        # Dangling edges jump to an "unknown node" stub counted on its own
        # index, exactly like the closure engine's stub steps.
        stubs: Dict[int, Tuple[list, int]] = {}
        n_counters = len(node_ids)
        for word, slot, succ in low.patches:
            target = node_word.get(succ)
            if target is None:
                if succ not in stubs:
                    stub = [ERROR, f"unknown node {succ}"]
                    low.words.append(stub)
                    stubs[succ] = (stub, n_counters)
                    n_counters += 1
                target = stubs[succ][0]
            word[slot] = target

        # Profile-reconstruction tables: which counter each edge feeds and
        # which derived edges each node's count propagates to.
        edge_dst_idx: List[int] = []
        in_edges: List[List[int]] = [[] for _ in range(n_counters)]
        derived_out: List[List[int]] = [[] for _ in range(n_counters)]
        derived_in_count = [0] * n_counters
        for e, (src_nid, dst_nid) in enumerate(low.edge_pairs):
            cls = low.edge_class[e]
            if cls == _EDGE_ZERO:
                edge_dst_idx.append(-1)
                continue
            dst_idx = idx_of.get(dst_nid)
            if dst_idx is None:
                dst_idx = stubs[dst_nid][1]
            edge_dst_idx.append(dst_idx)
            in_edges[dst_idx].append(e)
            if cls == _EDGE_DERIVED:
                derived_out[idx_of[src_nid]].append(e)
                derived_in_count[dst_idx] += 1

        self.words = low.words
        self.node_ids = node_ids
        self.edge_pairs = low.edge_pairs
        self.n_counters = n_counters
        self.entry_idx = idx_of.get(graph.entry, -1)
        self.entry_word = node_word.get(graph.entry)
        self.global_plan = low.global_plan
        self.missing_plan = low.missing_plan
        self.n_regs = len(low.reg_slots) + 1 + low.scratch_watermark
        self.n_arrays = len(low.arr_slots)
        # Kept for the codegen tier: how many scratch (negative) slots
        # the generated source must declare as locals.
        self.scratch_watermark = low.scratch_watermark
        self._in_edges = in_edges
        self._derived_out = derived_out
        self._derived_in_count = derived_in_count
        self._edge_dst_idx = edge_dst_idx

    def __getstate__(self):
        """Pickle form with word references flattened to indices.

        Words reference their successor words *directly* (that is what
        makes the dispatch loop fast), which makes the raw object graph
        both cyclic and as deeply nested as the longest straight-line
        thread — default pickling would hit the recursion limit on any
        non-trivial graph.  Word-reference operands (always ``list``
        objects; every other operand kind is a scalar, string, tuple or
        function) are replaced by their index into ``words`` and
        restored by :meth:`__setstate__`.  The disk cache
        (:mod:`repro.sim.diskcache`) relies on this round trip.
        """
        index = {id(word): i for i, word in enumerate(self.words)}
        packed: List[list] = []
        refs: List[List[Tuple[int, int]]] = []
        for word in self.words:
            slots = [(s, index[id(op)]) for s, op in enumerate(word)
                     if isinstance(op, list)]
            if slots:
                word = list(word)
                for s, _ in slots:
                    word[s] = None
            packed.append(word)
            refs.append(slots)
        state = {name: getattr(self, name) for name in self.__slots__
                 if name not in ("words", "entry_word")}
        state["packed_words"] = packed
        state["word_refs"] = refs
        state["entry_word_index"] = None if self.entry_word is None \
            else index[id(self.entry_word)]
        return state

    def __setstate__(self, state):
        packed = state.pop("packed_words")
        refs = state.pop("word_refs")
        entry = state.pop("entry_word_index")
        words = [list(word) for word in packed]
        for word, slots in zip(words, refs):
            for s, i in slots:
                word[s] = words[i]
        for name, value in state.items():
            setattr(self, name, value)
        self.words = words
        self.entry_word = None if entry is None else words[entry]

    def resolve_counters(self, branch_hits: List[int],
                         calls: int) -> Tuple[List[int], List[int]]:
        """Reconstruct the full flat (node_hits, edge_hits) arrays from
        the runtime branch-edge counters and the frame-entry count.

        Node executions equal in-edge traversals plus frame arrivals at
        the entry node; fall-through edge traversals equal their source
        node's executions.  Both identities are exact for completed runs
        (an aborted run discards its profile on every engine).  The
        propagation is a worklist over the acyclic derivation graph — a
        cycle would be an all-fall-through CFG loop, which cannot
        terminate, so anything left unresolved was never executed and
        stays zero.
        """
        edge_hits = list(branch_hits)
        node_hits = [0] * self.n_counters
        in_edges = self._in_edges
        derived_out = self._derived_out
        pending = list(self._derived_in_count)
        entry_idx = self.entry_idx
        ready = [i for i in range(self.n_counters) if pending[i] == 0]
        while ready:
            i = ready.pop()
            total = calls if i == entry_idx else 0
            for e in in_edges[i]:
                total += edge_hits[e]
            node_hits[i] = total
            for e in derived_out[i]:
                edge_hits[e] = total
                dst = self._edge_dst_idx[e]
                pending[dst] -= 1
                if pending[dst] == 0:
                    ready.append(dst)
        return node_hits, edge_hits


class LoweredModule:
    """All graphs of one :class:`GraphModule` in bytecode form."""

    def __init__(self, module: GraphModule):
        self.module = module
        self.graphs: Dict[str, _LoweredGraph] = {}
        for name, graph in module.graphs.items():
            self.graphs[name] = _LoweredGraph(graph, module, self)
        self._signature = _structure_signature(module)

    @classmethod
    def from_graphs(cls, module: GraphModule,
                    graphs: Dict[str, _LoweredGraph]) -> "LoweredModule":
        """Rebind disk-loaded lowered *graphs* to the live *module*.

        The graphs carry everything execution needs (words, frame
        plans, profile tables); only the module reference and the
        in-memory cache signature are process-local, so both are
        re-derived from the live module here.
        """
        lowered = cls.__new__(cls)
        lowered.module = module
        lowered.graphs = graphs
        lowered._signature = _structure_signature(module)
        return lowered


def _payload_verified(module, kind: str, payload, cache,
                      n_lanes: Optional[int] = None,
                      digest: Optional[str] = None) -> bool:
    """The verify-on-load gate shared by every disk-cache load site.

    With ``REPRO_VERIFY`` unset this is free (one env lookup).  When
    set, the payload is statically checked against *module* before any
    reconstruction or ``exec``; a violating — or verifier-crashing —
    payload is counted as ``rejected`` and read as a miss, exactly like
    a corrupt entry, and the caller regenerates.

    A pass is memoized per ``(kind, digest)`` on the cache handle: the
    digest keys the entry file, so a later load of the same key serves
    the same bytes and a re-check could only repeat the verdict.  A
    warm study therefore pays for each distinct artifact once per
    process, not once per load.
    """
    from repro.sim.diskcache import verify_on_load
    if not verify_on_load():
        return True
    if digest is not None and (kind, digest) in cache.verified:
        return True
    try:
        from repro.analysis import verify_codegen as _verifier
        if kind == "bytecode":
            result = _verifier.verify_bytecode_payload(module, payload)
        elif kind == "codegen":
            result = _verifier.verify_codegen_payload(module, payload)
        elif kind == "lanes":
            result = _verifier.verify_lanes_payload(module, payload,
                                                    n_lanes)
        else:
            return True
        ok = result.ok
    except Exception:
        ok = False
    if not ok:
        cache.reject(kind)
    elif digest is not None:
        cache.verified.add((kind, digest))
    return ok


def lower_module(module: GraphModule, _disk: bool = True) -> LoweredModule:
    """Bytecode form of *module*, cached on the module itself.

    Same cache protocol as :func:`compile_module`: the lowered form is
    validated against the memoized structural signature (streamed, never
    rebuilt on a hit) and invalidated by any graph mutation; the cache is
    stripped at pickle boundaries (``GraphModule.__getstate__``) and
    rebuilt lazily in each worker process.

    Below the in-memory cache sits the disk tier
    (:mod:`repro.sim.diskcache`): on an in-memory miss the module's
    structural digest is looked up on disk first, so a cold process —
    a fresh pool worker, a new CLI invocation — whose module was ever
    lowered before skips the lowering walk entirely.  A fresh lowering
    is published back to disk for the next cold process.

    ``_disk=False`` skips the disk tier: the codegen and lanes
    generators embed the lowered graphs in their own entries, so a
    ``bytecode`` entry stored on their behalf would never be read.
    """
    cached = module.__dict__.get("_lowered_cache")
    if cached is not None and _signature_matches(module, cached._signature):
        return cached
    # One cache handle for the whole miss: lookup, rebuild and store all
    # hit the same directory even if REPRO_CACHE is repointed mid-call.
    from repro.sim.diskcache import get_cache, module_digest
    cache = get_cache() if _disk else None
    digest = None
    if cache is not None:
        digest = module_digest(module)
        payload = cache.load("bytecode", digest)
        if payload is not None and not _payload_verified(
                module, "bytecode", payload, cache, digest=digest):
            payload = None
        if payload is not None:
            try:
                lowered = LoweredModule.from_graphs(module,
                                                    payload["graphs"])
            except Exception:
                cache.unusable("bytecode")
            else:
                module._lowered_cache = lowered
                return lowered
    lowered = LoweredModule(module)
    if cache is not None:
        cache.store("bytecode", digest, {"graphs": lowered.graphs})
    module._lowered_cache = lowered
    return lowered


# -- execution --------------------------------------------------------------------


def run_lowered_module(module: GraphModule, lmod: LoweredModule,
                       max_cycles: int,
                       inputs: Optional[Dict[str, Sequence]],
                       call_entry) -> MachineResult:
    """Shared run frame of the word-executing tiers (bytecode, codegen).

    Both tiers differ only in *how* the entry graph executes —
    ``call_entry(entry_name, state)`` is the bytecode dispatch loop or
    the generated function — while everything around it is one
    contract: globals built from initializers and bound to *inputs*,
    branch-only runtime counters sized per graph, node/edge profiles
    reconstructed exactly via :meth:`_LoweredGraph.resolve_counters`,
    and the sparse-in-run / exact-post-run cycle-limit check (a bounded
    overrun that slips past the back-edge checks still aborts here, so
    a run either completes within the limit on every engine or raises
    on every engine).
    """
    globals_: Dict[str, ArrayStorage] = {}
    for name, symbol in module.global_arrays.items():
        init = module.array_initializers.get(name)
        globals_[name] = ArrayStorage(symbol, init)
    if inputs:
        for name, values in inputs.items():
            if name not in globals_:
                raise SimulationError(
                    f"input {name!r} does not match any global array")
            globals_[name].fill_from(values)

    entry = module.entry
    state = _RunState(
        globals_, max_cycles, {},
        {name: [0] * len(lg.edge_pairs)
         for name, lg in lmod.graphs.items()})
    ret = call_entry(entry.name, state)

    snapshot = {name: storage.snapshot()
                for name, storage in globals_.items()}
    profile = ProfileData()
    for name, lg in lmod.graphs.items():
        node_hits, edge_hits = lg.resolve_counters(
            state.edge_hits[name], state.call_counts.get(name, 0))
        profile.merge_arrays(name, lg.node_ids, node_hits,
                             lg.edge_pairs, edge_hits)
    for name, count in state.call_counts.items():
        profile.call_counts[name] = count
    if profile.total_cycles() > max_cycles:
        raise SimulationError(
            f"cycle limit ({max_cycles}) exceeded; "
            f"infinite loop in {entry.name!r}?")
    return MachineResult(ret, snapshot, profile)


def _run_graph(cmod: CompiledModule, cg: _CompiledGraph, args: List):
    state = cmod._state
    depth = state.depth
    if depth > _MAX_CALL_DEPTH:
        raise SimulationError(
            f"call depth exceeded in {cg.name!r} (runaway recursion?)")
    state.call_counts[cg.name] = state.call_counts.get(cg.name, 0) + 1
    if len(args) != cg.n_params:
        raise SimulationError(
            f"{cg.name!r} expects {cg.n_params} arguments, "
            f"got {len(args)}")

    regs: List = [_UNDEF] * cg.n_regs
    arr: List = [None] * cg.n_arrays
    for (is_reg, slot, name), value in zip(cg.param_plan, args):
        if is_reg:
            regs[slot] = value
        else:
            if not isinstance(value, ArrayStorage):
                raise SimulationError(
                    f"{cg.name!r}: array parameter {name!r} "
                    f"bound to non-array {value!r}")
            arr[slot] = value
    for slot, symbol in cg.local_plan:
        arr[slot] = ArrayStorage(symbol)
    module_globals = state.globals
    for slot, name in cg.global_plan:
        arr[slot] = module_globals[name]
    for slot, placeholder in cg.missing_plan:
        arr[slot] = placeholder

    idx = cg.entry_idx
    if idx < 0:
        raise SimulationError(f"{cg.name!r} has no entry node")
    steps = cg.steps
    edge_dst = cg.edge_dst
    hits = state.node_hits[cg.name]
    edge_hits = state.edge_hits[cg.name]
    cyc = state.cyc
    limit = state.max_cycles
    state.depth = depth + 1
    try:
        while True:
            count = cyc[0] + 1
            cyc[0] = count
            if count > limit:
                raise SimulationError(
                    f"cycle limit ({limit}) exceeded; "
                    f"infinite loop in {cg.name!r}?")
            hits[idx] += 1
            edge = steps[idx](regs, arr)
            if edge < 0:
                return regs[0]
            edge_hits[edge] += 1
            idx = edge_dst[edge]
    finally:
        state.depth = depth


class CompiledEngine:
    """Drop-in replacement for :class:`GraphInterpreter` (compiled)."""

    def __init__(self, module: GraphModule, max_cycles: int = 200_000_000):
        self.module = module
        self.max_cycles = max_cycles
        self.compiled = compile_module(module)

    def run_batch(self, inputs_list: Sequence[Optional[Dict[str, Sequence]]]
                  ) -> List[MachineResult]:
        """Run N input sets through the same closure-specialized program.

        Compilation (and the structural-signature validation ``run_module``
        pays on every call) happens once for the whole batch; each input
        set then executes independently — fresh globals, fresh flat
        profile counters folded into a fresh :class:`ProfileData` via
        :meth:`ProfileData.merge_arrays` — so the results are bit-identical
        to N independent :func:`~repro.sim.machine.run_module` calls.

        The per-element initializer conversion (``int()``/``float()``
        per entry, in :meth:`ArrayStorage.__init__`) is identical for
        every seed, so it runs once here and each seed's storages are
        filled from the converted snapshot.
        """
        module = self.module
        template = [
            (name, symbol,
             ArrayStorage(symbol, module.array_initializers.get(name)).data)
            for name, symbol in module.global_arrays.items()]
        return [self._run(inputs, template) for inputs in inputs_list]

    def run(self, inputs: Optional[Dict[str, Sequence]] = None
            ) -> MachineResult:
        """Execute ``main`` with globals bound to *inputs*."""
        return self._run(inputs, None)

    def _run(self, inputs: Optional[Dict[str, Sequence]],
             template) -> MachineResult:
        module = self.module
        globals_: Dict[str, ArrayStorage] = {}
        if template is None:
            for name, symbol in module.global_arrays.items():
                init = module.array_initializers.get(name)
                globals_[name] = ArrayStorage(symbol, init)
        else:
            for name, symbol, data in template:
                storage = ArrayStorage(symbol)
                storage.data[:] = data
                globals_[name] = storage
        if inputs:
            for name, values in inputs.items():
                if name not in globals_:
                    raise SimulationError(
                        f"input {name!r} does not match any global array")
                globals_[name].fill_from(values)

        entry = module.entry
        cmod = self.compiled
        state = _RunState(
            globals_, self.max_cycles,
            {name: [0] * len(cg.steps)
             for name, cg in cmod.graphs.items()},
            {name: [0] * len(cg.edge_pairs)
             for name, cg in cmod.graphs.items()})
        previous = cmod._state
        cmod._state = state
        try:
            ret = _run_graph(cmod, cmod.graphs[entry.name], [])
        finally:
            cmod._state = previous

        snapshot = {name: storage.snapshot()
                    for name, storage in globals_.items()}
        profile = ProfileData()
        for name, cg in cmod.graphs.items():
            profile.merge_arrays(name, cg.node_ids, state.node_hits[name],
                                 cg.edge_pairs, state.edge_hits[name])
        for name, count in state.call_counts.items():
            profile.call_counts[name] = count
        return MachineResult(ret, snapshot, profile)
