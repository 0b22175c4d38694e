"""The exec-compiled codegen engine (the fourth tier).

The bytecode tier (:mod:`repro.sim.bytecode`) made most machine cycles
one dispatch, but every word still pays the dispatch ladder plus a
handful of list indexings (the word's operand slots, the flat register
file).  This tier removes those too: :func:`generate_module` walks the
*lowered words* produced by :func:`repro.sim.engine.lower_module` and
emits one specialized Python **source function per graph** —

* straight-line word runs become straight-line statements over *local
  variables* (``r3 = r1 + r2``): registers are locals, constants are
  inlined literals, array storages are hoisted into locals once per
  frame, so the hot path is plain ``LOAD_FAST`` arithmetic with zero
  interpretive overhead;
* control flow becomes ``while``/``if`` structure: forward fall-through
  jumps are merged away at generation time, and the remaining
  precomputed branch targets go through an O(log n) binary dispatch tree
  over a block counter — a transfer costs a few integer compares
  instead of one dispatch per word;
* profile counting keeps the bytecode tier's contract — one counter per
  *branch* edge, held in integer locals and folded into the shared
  ``state.edge_hits`` arrays at frame exit, then reconstructed exactly
  by the unchanged :meth:`_LoweredGraph.resolve_counters`.

The generated source is ``exec``-compiled once per module and cached on
the module under the same memoized structural signature as the
compiled/bytecode caches (validated by streaming, stripped at pickle
boundaries by ``GraphModule.__getstate__`` and regenerated lazily per
process).  Results are bit-identical to the other three engines — return
value, memory, full node/edge/call profiles and error behavior — pinned
by ``tests/test_codegen.py`` and the cross-engine fuzz harness in
``tests/test_fuzz_engines.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.cfg.graph import GraphModule
from repro.sim import engine as _eng
from repro.sim.engine import (BR, CALL, CP, CP2, ERROR, INTRN, J, JB,
                              LoweredModule, RET_C, RET_N, RET_R, RET_S,
                              RETREAD, TEST, _LoweredGraph, _UNDEF,
                              _payload_verified, _signature_matches,
                              lower_module, run_lowered_module)
from repro.sim.machine import _MAX_CALL_DEPTH, MachineResult
from repro.sim.memory import ArrayStorage

# -- word-layout tables -----------------------------------------------------------
#
# Derived from the opcode layouts in :mod:`repro.sim.engine`; fused
# (``*_J``) forms share their base form's operand layout, the jump target
# in the trailing slot is handled by the block walker.

#: inline binary forms: opcode -> (infix operator, operand kinds), where
#: kind "r" is a register slot and "c" an inlined constant.
_BINOPS = {
    _eng.ADD_RR: ("+", "rr"), _eng.ADD_RC: ("+", "rc"),
    _eng.SUB_RR: ("-", "rr"), _eng.SUB_RC: ("-", "rc"),
    _eng.MUL_RR: ("*", "rr"), _eng.MUL_RC: ("*", "rc"),
    _eng.ADD_RR_J: ("+", "rr"), _eng.ADD_RC_J: ("+", "rc"),
    _eng.SUB_RR_J: ("-", "rr"), _eng.SUB_RC_J: ("-", "rc"),
    _eng.MUL_RR_J: ("*", "rr"), _eng.MUL_RC_J: ("*", "rc"),
}

#: function-calling binary forms: opcode -> operand kinds after the
#: function slot.
_BINF = {
    _eng.BINF_RR: "rr", _eng.BINF_RC: "rc", _eng.BINF_CR: "cr",
    _eng.BINF_CC: "cc",
    _eng.BINF_RR_J: "rr", _eng.BINF_RC_J: "rc", _eng.BINF_CR_J: "cr",
}

#: loads: opcode -> index kind.
_LOADS = {_eng.LOAD: "r", _eng.LOADC: "c",
          _eng.LOAD_J: "r", _eng.LOADC_J: "c"}

#: direct stores: opcode -> (value kind @ word[2], index kind @ word[3]);
#: the call made is ``storage.store(index, value)``.
_STORES = {
    _eng.ST_RR: ("r", "r"), _eng.ST_RC: ("r", "c"),
    _eng.ST_CR: ("c", "r"), _eng.ST_CC: ("c", "c"),
    _eng.STORE_J: ("r", "r"), _eng.STORE_CI_J: ("r", "c"),
}

#: deferred store commits: opcode -> (index kind @ word[2], value kind
#: @ word[3]).
_STORES_D = {
    _eng.STD_SS: ("r", "r"), _eng.STD_SC: ("r", "c"),
    _eng.STD_CS: ("c", "r"), _eng.STD_CC: ("c", "c"),
}

_MOV_CONSTS = {_eng.MOV_C, _eng.MOV_C_J}
_MOV_REGS = {_eng.MOV_R, _eng.MOV_R_J}
_NEGS = {_eng.NEG, _eng.NEG_J}
_UNFS = {_eng.UNF, _eng.UNF_J}
_RETS = {RET_R, RET_C, RET_N, RET_S}


def _is_terminal(op: int) -> bool:
    """True for words that end the straight-line thread (fused jumps,
    control transfers, returns, errors)."""
    return op < CP or op in _RETS or op == ERROR


def _jump_slots(word: list) -> Tuple[int, ...]:
    """Operand slots of *word* holding successor-word references."""
    op = word[0]
    if op == J or op == JB:
        return (1,)
    if op == BR:
        return (3, 5)
    if op < CP:  # fused op+jump forms: the trailing slot
        return (len(word) - 1,)
    return ()


class _FunctionEmitter:
    """Emits the Python source of one lowered graph."""

    def __init__(self, lg: _LoweredGraph, fn_name: str,
                 fn_of_graph: Dict[str, str]):
        self.lg = lg
        self.fn_name = fn_name
        self.fn_of_graph = fn_of_graph
        self.lines: List[str] = []
        self.indent = 1
        #: objects that cannot be inlined as literals (operation function
        #: objects, array symbols, placeholder objects), bound as default
        #: arguments so the hot loop reads them with LOAD_FAST.
        self.objs: List[object] = []
        self._obj_names: Dict[int, str] = {}

    # -- small helpers -------------------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def paste(self, block: List[str]) -> None:
        """Insert pre-rendered block lines at the current indent."""
        prefix = "    " * self.indent
        self.lines.extend(prefix + line for line in block)

    @staticmethod
    def _r(slot: int) -> str:
        """Local-variable name of a register slot (negative = scratch)."""
        return f"r{slot}" if slot >= 0 else f"t{-slot}"

    def _k(self, obj) -> str:
        """Default-argument name binding *obj* into the function."""
        name = self._obj_names.get(id(obj))
        if name is None:
            name = f"K{len(self.objs)}"
            self._obj_names[id(obj)] = name
            self.objs.append(obj)
        return name

    def _const(self, value) -> str:
        """Source text of an inlined constant.

        ``repr`` round-trips every int and every *finite* float, but
        constant folding can produce ``inf``/``nan`` (e.g. ``1e308 *
        1e308`` folded at level 1), whose reprs are bare names that do
        not exist in the generated namespace — those are bound as
        default arguments instead.
        """
        if isinstance(value, float) and \
                (value != value or value in (float("inf"), float("-inf"))):
            return self._k(value)
        return repr(value)

    def _operand(self, kind: str, payload) -> str:
        return self._r(payload) if kind == "r" else self._const(payload)

    def _emit_limit_check(self) -> None:
        tail = f"exceeded; infinite loop in {self.lg.name!r}?"
        self.emit("n += 1")
        self.emit("if n > limit:")
        self.emit("    cyc[0] = n")
        self.emit('    raise SimulationError(f"cycle limit ({limit}) "'
                  f" {tail!r})")

    # -- block discovery -----------------------------------------------------------

    def _analyze(self):
        """Split the word list into labeled blocks.

        A word starts a block when it is the entry or the target of any
        jump — except a single forward fall (a ``J`` or fused jump from
        the immediately preceding word with no other reference), which
        merges into its predecessor's straight line.
        """
        words = self.lg.words
        index_of = {id(w): i for i, w in enumerate(words)}
        refs: Dict[int, List[Tuple[int, int]]] = {}  # target -> [(src, op)]
        for i, word in enumerate(words):
            for slot in _jump_slots(word):
                target = index_of[id(word[slot])]
                refs.setdefault(target, []).append((i, word[0]))
        entry = index_of[id(self.lg.entry_word)]
        starts = {entry}
        for target, sources in refs.items():
            if len(sources) == 1 and target != entry:
                src, op = sources[0]
                if target == src + 1 and op != BR and op != JB:
                    continue  # adjacent forward fall: merged away
            starts.add(target)
        return words, index_of, sorted(starts), entry

    # -- per-word statement emission -----------------------------------------------

    def _emit_stmt(self, word: list) -> None:
        """Emit the computational effect of one word (jump part excluded)."""
        op = word[0]
        r = self._r
        binop = _BINOPS.get(op)
        if binop is not None:
            sym, kinds = binop
            a = self._operand(kinds[0], word[2])
            b = self._operand(kinds[1], word[3])
            self.emit(f"{r(word[1])} = {a} {sym} {b}")
            return
        kinds = _BINF.get(op)
        if kinds is not None:
            fn = self._k(word[2])
            a = self._operand(kinds[0], word[3])
            b = self._operand(kinds[1], word[4])
            self.emit(f"{r(word[1])} = {fn}({a}, {b})")
            return
        if op in _LOADS:
            index = self._operand(_LOADS[op], word[3])
            k = word[2]
            self.emit(f"if 0 <= {index} < a{k}.size:")
            self.emit(f"    {r(word[1])} = a{k}.data[{index}]")
            self.emit("else:")
            self.emit(f"    a{k}.load({index})")
            return
        if op in _STORES:
            vkind, ikind = _STORES[op]
            value = self._operand(vkind, word[2])
            index = self._operand(ikind, word[3])
            self.emit(f"a{word[1]}.store({index}, {value})")
            return
        if op in _STORES_D:
            ikind, vkind = _STORES_D[op]
            index = self._operand(ikind, word[2])
            value = self._operand(vkind, word[3])
            self.emit(f"a{word[1]}.store({index}, {value})")
            return
        if op in _MOV_CONSTS:
            self.emit(f"{r(word[1])} = {self._const(word[2])}")
            return
        if op in _MOV_REGS:
            message = f"read of undefined register {word[3]!r}"
            self.emit(f"if {r(word[2])} is _UNDEF:")
            self.emit(f"    raise SimulationError({message!r})")
            self.emit(f"{r(word[1])} = {r(word[2])}")
            return
        if op in _NEGS:
            self.emit(f"{r(word[1])} = -{r(word[2])}")
            return
        if op in _UNFS:
            self.emit(f"{r(word[1])} = {self._k(word[2])}({r(word[3])})")
            return
        if op == _eng.UNFC:
            self.emit(f"{r(word[1])} = "
                      f"{self._k(word[2])}({self._const(word[3])})")
            return
        if op == CP:
            self.emit(f"{r(word[1])} = {r(word[2])}")
            return
        if op == CP2:
            self.emit(f"{r(word[1])} = {r(word[2])}")
            self.emit(f"{r(word[3])} = {r(word[4])}")
            return
        if op == TEST:
            self.emit(f"{r(word[1])} = {r(word[2])} != 0")
            return
        if op == RETREAD:
            message = f"read of undefined register {word[3]!r}"
            self.emit(f"if {r(word[2])} is _UNDEF:")
            self.emit(f"    raise SimulationError({message!r})")
            self.emit(f"{r(word[1])} = {r(word[2])}")
            return
        if op == INTRN:
            self._emit_intrinsic(word)
            return
        if op == CALL:
            self._emit_call(word)
            return
        raise SimulationError(
            f"cannot generate code for word {word!r}")  # pragma: no cover

    def _emit_intrinsic(self, word: list) -> None:
        args = []
        for kind, payload in word[3]:
            if kind == 0:
                args.append(self._r(payload))
            elif kind == 1:
                args.append(self._const(payload))
            else:  # unreadable operand: raises when (and only when) run
                self.emit(f"raise SimulationError({payload!r})")
                return
        self.emit(f"{self._r(word[1])} = "
                  f"{self._k(word[2])}({', '.join(args)})")

    def _emit_call(self, word: list) -> None:
        callee, dspec, specs = word[1], word[2], word[3]
        if callee not in self.fn_of_graph:
            message = f"call to unknown function {callee!r}"
            self.emit(f"raise SimulationError({message!r})")
            return
        args = []
        for kind, payload, aname in specs:
            if kind == 0:
                reg = self._r(payload)
                message = f"read of undefined register {aname!r}"
                self.emit(f"if {reg} is _UNDEF:")
                self.emit(f"    raise SimulationError({message!r})")
                args.append(reg)
            elif kind == 1:
                args.append(self._const(payload))
            elif kind == 2:
                args.append(f"a{payload}")
            elif kind == 3:
                message = f"array argument {payload!r} is not bound"
                self.emit(f"raise SimulationError({message!r})")
                return
            else:
                self.emit(f"raise SimulationError({payload!r})")
                return
        self.emit("cyc[0] = n")
        self.emit(f"_t = G[{self.fn_of_graph[callee]!r}]"
                  f"([{', '.join(args)}], state)")
        self.emit("n = cyc[0]")
        if dspec is not None:
            self.emit(f"{self._r(dspec)} = _t")

    def _emit_return(self, word: list, counted: List[int]) -> None:
        op = word[0]
        if op == RET_R:
            value = self._r(word[1])
            message = f"read of undefined register {word[2]!r}"
            self.emit(f"if {value} is _UNDEF:")
            self.emit(f"    raise SimulationError({message!r})")
        elif op == RET_C:
            value = self._const(word[1])
        elif op == RET_S:
            value = self._r(word[1])
        else:  # RET_N
            value = "None"
        self.emit("cyc[0] = n")
        for e in counted:
            self.emit(f"eh[{e}] += e{e}")
        self.emit(f"return {value}")

    # -- block + dispatch emission ---------------------------------------------------

    def _emit_block(self, start: int, words, index_of,
                    starts_set: Set[int], ordinal_of: Dict[int, int],
                    counted: List[int]) -> None:
        k = start
        while True:
            word = words[k]
            op = word[0]
            if not _is_terminal(op):
                self._emit_stmt(word)
                k += 1
                continue
            if op in _RETS:
                self._emit_return(word, counted)
                return
            if op == ERROR:
                self.emit(f"raise SimulationError({word[1]!r})")
                return
            if op == BR:
                self._emit_limit_check()
                t_true = ordinal_of[index_of[id(word[3])]]
                t_false = ordinal_of[index_of[id(word[5])]]
                self.emit(f"if {self._r(word[1])} != 0:")
                self.emit(f"    e{word[2]} += 1")
                self.emit(f"    pc = {t_true}")
                self.emit("else:")
                self.emit(f"    e{word[4]} += 1")
                self.emit(f"    pc = {t_false}")
                self.emit("continue")
                return
            if op == JB:
                self._emit_limit_check()
                self.emit(f"pc = {ordinal_of[index_of[id(word[1])]]}")
                self.emit("continue")
                return
            # J or a fused op+jump word.
            if op != J:
                self._emit_stmt(word)
            target = index_of[id(word[_jump_slots(word)[0]])]
            if target == k + 1 and target not in starts_set:
                k = target  # merged forward fall: keep the straight line
                continue
            self.emit(f"pc = {ordinal_of[target]}")
            self.emit("continue")
            return

    def _emit_dispatch(self, lo: int, hi: int,
                       blocks: Dict[int, List[str]]) -> None:
        """Binary dispatch tree over contiguous block ordinals."""
        if lo == hi:
            self.paste(blocks[lo])
            return
        mid = (lo + hi) // 2
        self.emit(f"if pc <= {mid}:")
        self.indent += 1
        self._emit_dispatch(lo, mid, blocks)
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self._emit_dispatch(mid + 1, hi, blocks)
        self.indent -= 1

    # -- whole function --------------------------------------------------------------

    def _emit_prologue(self) -> List[int]:
        """Frame setup mirroring the bytecode tier's ``_exec_graph``;
        returns the counted-edge index list (empty when the function
        raises before reaching the dispatch loop)."""
        lg = self.lg
        name = lg.name
        self.emit("depth = state.depth")
        message = f"call depth exceeded in {name!r} (runaway recursion?)"
        self.emit(f"if depth > {_MAX_CALL_DEPTH}:")
        self.emit(f"    raise SimulationError({message!r})")
        self.emit("cc = state.call_counts")
        self.emit(f"cc[{name!r}] = cc.get({name!r}, 0) + 1")
        prefix = f"{name!r} expects {lg.n_params} arguments, got "
        self.emit(f"if len(args) != {lg.n_params}:")
        self.emit(f"    raise SimulationError({prefix!r} + "
                  "str(len(args)))")

        named = lg.n_regs - 1 - lg.scratch_watermark
        if named > 0:
            self.emit(" = ".join(f"r{s}" for s in range(1, named + 1))
                      + " = _UNDEF")
        if lg.scratch_watermark:
            self.emit(" = ".join(f"t{i}" for i in
                                 range(1, lg.scratch_watermark + 1))
                      + " = _UNDEF")

        for i, (is_reg, slot, pname) in enumerate(lg.param_plan):
            if is_reg:
                self.emit(f"r{slot} = args[{i}]")
            else:
                prefix = (f"{name!r}: array parameter {pname!r} "
                          f"bound to non-array ")
                self.emit(f"_t = args[{i}]")
                self.emit("if not isinstance(_t, ArrayStorage):")
                self.emit(f"    raise SimulationError({prefix!r} + "
                          "repr(_t))")
                self.emit(f"a{slot} = _t")
        for slot, symbol in lg.local_plan:
            self.emit(f"a{slot} = ArrayStorage({self._k(symbol)})")
        if lg.global_plan:
            self.emit("_g = state.globals")
            for slot, gname in lg.global_plan:
                self.emit(f"a{slot} = _g[{gname!r}]")
        for slot, placeholder in lg.missing_plan:
            self.emit(f"a{slot} = {self._k(placeholder)}")

        if lg.entry_word is None:
            message = f"{name!r} has no entry node"
            self.emit(f"raise SimulationError({message!r})")
            return []

        counted = sorted({word[slot]
                          for word in lg.words if word[0] == BR
                          for slot in (2, 4)})
        self.emit(f"eh = state.edge_hits[{name!r}]")
        if counted:
            self.emit(" = ".join(f"e{e}" for e in counted) + " = 0")
        self.emit("cyc = state.cyc")
        self.emit("limit = state.max_cycles")
        self.emit("n = cyc[0]")
        self._emit_limit_check()
        return counted

    def build(self) -> str:
        lg = self.lg
        counted = self._emit_prologue()
        if lg.entry_word is not None:
            words, index_of, starts, entry = self._analyze()
            starts_set = set(starts)
            ordinal_of = {idx: i for i, idx in enumerate(starts)}
            blocks: Dict[int, List[str]] = {}
            saved = self.lines
            for idx in starts:
                self.lines = []
                self.indent = 0
                self._emit_block(idx, words, index_of, starts_set,
                                 ordinal_of, counted)
                blocks[ordinal_of[idx]] = self.lines
            self.lines = saved
            self.indent = 1

            self.emit("state.depth = depth + 1")
            self.emit("try:")
            self.indent += 1
            if len(starts) > 1:
                self.emit(f"pc = {ordinal_of[entry]}")
            self.emit("while True:")
            self.indent += 1
            if len(starts) == 1:
                self.paste(blocks[0])
            else:
                self._emit_dispatch(0, len(starts) - 1, blocks)
            self.indent -= 2
            self.emit("finally:")
            self.emit("    state.depth = depth")

        params = ["args", "state", "_UNDEF=_UNDEF",
                  "ArrayStorage=ArrayStorage",
                  "SimulationError=SimulationError", "G=G"]
        params.extend(f"K{i}=_{self.fn_name}_K{i}"
                      for i in range(len(self.objs)))
        header = f"def {self.fn_name}({', '.join(params)}):"
        return "\n".join([header] + self.lines) + "\n"


class GeneratedModule:
    """All graphs of one :class:`GraphModule` as exec-compiled functions.

    ``lowered`` is the bytecode tier's :class:`LoweredModule` — the
    generated functions execute its words' semantics, and its per-graph
    profile-reconstruction tables (:meth:`_LoweredGraph.resolve_counters`)
    are reused unchanged.  ``source`` keeps the emitted Python text for
    inspection and tests.
    """

    def __init__(self, module: GraphModule):
        # In-memory lowering only: the payload embeds the lowered graphs.
        lowered = lower_module(module, _disk=False)
        fn_of_graph = {name: f"_f{i}"
                       for i, name in enumerate(lowered.graphs)}
        consts: Dict[str, object] = {}
        pieces: List[str] = []
        for name, lg in lowered.graphs.items():
            emitter = _FunctionEmitter(lg, fn_of_graph[name], fn_of_graph)
            pieces.append(emitter.build())
            for i, obj in enumerate(emitter.objs):
                consts[f"_{fn_of_graph[name]}_K{i}"] = obj
        source = "\n".join(pieces)
        code = compile(source, f"<repro-codegen:{module.name}>", "exec")
        self._assemble(module, lowered, source, consts, code)

    def _assemble(self, module: GraphModule, lowered: LoweredModule,
                  source: str, consts: Dict[str, object], code) -> None:
        """Exec *code* and wire the per-graph functions — the part both
        fresh generation and a disk-cache load perform identically."""
        self.module = module
        self.lowered = lowered
        self.source = source
        self.consts = consts
        self._code = code
        self.fns: Dict[str, object] = {}
        namespace: Dict[str, object] = {
            "_UNDEF": _UNDEF,
            "ArrayStorage": ArrayStorage,
            "SimulationError": SimulationError,
            "G": {},
        }
        namespace.update(consts)
        exec(code, namespace)
        dispatch: Dict[str, object] = namespace["G"]  # type: ignore
        for i, name in enumerate(lowered.graphs):
            fn = namespace[f"_f{i}"]
            dispatch[f"_f{i}"] = fn
            self.fns[name] = fn
        self._signature = lowered._signature

    def disk_payload(self) -> Dict[str, object]:
        """The disk-cache entry: lowered graphs (the run frame and the
        profile-reconstruction tables need them), the emitted source,
        its non-literal constants, and the marshalled code object so a
        warm load skips parsing and compiling the source too.  The
        marshal blob travels with its own checksum: ``marshal.loads``
        is documented as unsafe on erroneous bytes (it may crash rather
        than raise), so a load must be able to reject a damaged blob
        *before* handing it to marshal."""
        import hashlib
        import marshal
        blob = marshal.dumps(self._code)
        return {"graphs": self.lowered.graphs, "source": self.source,
                "consts": self.consts, "code": blob,
                "code_sha": hashlib.sha256(blob).hexdigest()}

    @classmethod
    def from_payload(cls, module: GraphModule,
                     payload: Dict[str, object]) -> "GeneratedModule":
        """Rebuild from a disk-cache entry, skipping lowering and source
        emission (and, when the marshalled code verifies and loads,
        compilation — a blob whose checksum does not match falls back
        to compiling the stored source)."""
        import hashlib
        import marshal
        lowered = LoweredModule.from_graphs(module, payload["graphs"])
        source = payload["source"]
        code = None
        blob = payload.get("code")
        if isinstance(blob, bytes) and \
                hashlib.sha256(blob).hexdigest() == payload.get("code_sha"):
            try:
                code = marshal.loads(blob)
            except Exception:
                code = None
        if code is None:
            code = compile(source, f"<repro-codegen:{module.name}>", "exec")
        self = cls.__new__(cls)
        self._assemble(module, lowered, source, payload["consts"], code)
        return self


def generate_module(module: GraphModule) -> GeneratedModule:
    """Exec-compiled form of *module*, cached on the module itself.

    Same cache protocol as :func:`~repro.sim.engine.compile_module` and
    :func:`~repro.sim.engine.lower_module`: validated by streaming the
    memoized structural signature, invalidated by any graph mutation,
    stripped at pickle boundaries and regenerated lazily per process.

    On an in-memory miss the disk tier (:mod:`repro.sim.diskcache`) is
    consulted under the module's structural digest: a hit skips the
    lowering walk, the source emission and (via the marshalled code
    object) the compile, leaving only the ``exec`` of the pre-built
    code.  The embedded lowered form also seeds ``_lowered_cache``, so
    the codegen and bytecode tiers keep agreeing on one lowering per
    module state.
    """
    cached = module.__dict__.get("_codegen_cache")
    if cached is not None and _signature_matches(module, cached._signature):
        return cached
    from repro.sim.diskcache import get_cache, module_digest
    cache = get_cache()
    digest = module_digest(module) if cache is not None else None
    if digest is not None:
        payload = cache.load("codegen", digest)
        if payload is not None and not _payload_verified(
                module, "codegen", payload, cache, digest=digest):
            payload = None
        if payload is not None:
            try:
                generated = GeneratedModule.from_payload(module, payload)
            except Exception:
                cache.unusable("codegen")
                generated = None
            if generated is not None:
                module._codegen_cache = generated
                module._lowered_cache = generated.lowered
                return generated
    generated = GeneratedModule(module)
    if digest is not None:
        cache.store("codegen", digest, generated.disk_payload())
    module._codegen_cache = generated
    return generated


class CodegenEngine:
    """Drop-in replacement for :class:`BytecodeEngine` (codegen tier)."""

    def __init__(self, module: GraphModule, max_cycles: int = 200_000_000):
        self.module = module
        self.max_cycles = max_cycles
        self.generated = generate_module(module)

    def run_batch(self, inputs_list: Sequence[Optional[Dict[str, Sequence]]]
                  ) -> List[MachineResult]:
        """Run N input sets through the same generated program.

        Generation (and the signature validation ``run_module`` pays per
        call) happens once for the whole batch; each input set executes
        with fresh globals and fresh profile counters, bit-identical to N
        independent :func:`~repro.sim.machine.run_module` calls.
        """
        return [self.run(inputs) for inputs in inputs_list]

    def run(self, inputs: Optional[Dict[str, Sequence]] = None
            ) -> MachineResult:
        """Execute ``main`` with globals bound to *inputs*.

        The frame around the generated functions — globals/input
        binding, branch-only runtime counters, exact profile
        reconstruction and the post-run cycle-limit check — is the run
        contract shared with the bytecode tier
        (:func:`~repro.sim.engine.run_lowered_module`)."""
        gmod = self.generated

        def call_entry(name, state):
            return gmod.fns[name]([], state)

        return run_lowered_module(
            self.module, gmod.lowered, self.max_cycles, inputs, call_entry)
