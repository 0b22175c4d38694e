"""The lane-parallel multi-seed engine (the fifth tier).

Every multi-seed study or exploration cell compiles its module once but
still executes seeds one at a time — ``run_batch`` on the compiled,
bytecode and codegen tiers is a per-seed loop.  This tier removes that
loop: :func:`generate_lane_module` walks the same lowered words as the
codegen tier (:func:`repro.sim.engine.lower_module`) and emits one
Python function per graph that executes **all N seeds per call** as
SIMD-style lanes —

* the register file is structure-of-arrays: one flat Python list per
  register slot, indexed by lane.  Straight-line word runs execute
  inside a single ``for ln in lanes:`` loop whose body is the codegen
  tier's statement sequence over loop-local scalars, so the per-word
  interpretive costs (dispatch, operand decode, limit bookkeeping) are
  paid once per *group* of lanes instead of once per lane;
* control flow is group-based with **reconvergence**: a set of lanes
  on the same path shares one program counter and one set of scalar
  counter *deltas*; each lane additionally owns an absolute sparse
  cycle base (``nb``) and edge-counter array (``eh``) that the deltas
  fold into whenever the lane leaves its group.  At a divergent branch
  the false side is folded and parked in a ``wait`` table keyed by
  block ordinal; the scheduler always runs the *rearmost* group (the
  one at the smallest pending ordinal), so subgroups re-merge at the
  first common block — the immediate post-dominator for structured
  control flow — instead of fragmenting permanently.  A convergent
  batch never parks at all and pays no folding;
* faults are per-lane: a lane that raises :class:`SimulationError`
  anywhere — an undefined register, an out-of-bounds access, the cycle
  limit — records its exception and drops out of its group while the
  remaining lanes complete.  The engine surfaces each lane's outcome
  separately, so a faulting lane reports the identical error message
  its own sequential run would have raised.

Branch-edge counters accumulate per lane and are reconstructed through
the unchanged :meth:`_LoweredGraph.resolve_counters`, so every lane's
:class:`MachineResult` — outputs, cycles, the full node/edge/call
profile, and fault behavior — is bit-identical to N independent
:func:`~repro.sim.machine.run_module` calls, pinned by
``tests/test_lanes.py`` and the cross-engine fuzz harness.

The emitted source is specialized per lane count (the width is an
inlined literal), cached in memory per ``(module, n_lanes)`` under the
usual structural signature, and persisted to the disk tier
(:mod:`repro.sim.diskcache`) under a lane-count-partitioned key.

Plain Python lists are used rather than numpy arrays deliberately: the
simulated machine computes in unbounded Python integers (the fuzz
corpus overflows int64 routinely) and its division/shift semantics
raise :class:`SimulationError` where numpy would wrap, saturate or
emit ``inf`` — vectorizing the data path would change results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.cfg.graph import GraphModule
from repro.sim import engine as _eng
from repro.sim.codegen import (_BINF, _BINOPS, _LOADS, _MOV_CONSTS,
                               _MOV_REGS, _NEGS, _RETS, _STORES, _STORES_D,
                               _UNFS, _is_terminal, _jump_slots)
from repro.sim.engine import (BR, CALL, CP, CP2, ERROR, INTRN, J, JB,
                              LoweredModule, RET_C, RET_N, RET_R, RET_S,
                              RETREAD, TEST, _LoweredGraph, _UNDEF,
                              _payload_verified, _signature_matches,
                              lower_module)
from repro.sim.machine import _MAX_CALL_DEPTH, MachineResult
from repro.sim.memory import ArrayStorage
from repro.sim.profile import ProfileData

#: One lane outcome: ``("ok", MachineResult)`` or ``("error", message)``.
LaneOutcome = Tuple[str, object]


def _word_regs(word: list) -> Tuple[List[int], List[int], List[int]]:
    """``(reads, writes, arrays)`` of one non-terminal word: register
    slots read, register slots written, array slots touched."""
    op = word[0]
    binop = _BINOPS.get(op)
    if binop is not None:
        _, kinds = binop
        reads = [word[2 + i] for i, k in enumerate(kinds) if k == "r"]
        return reads, [word[1]], []
    kinds = _BINF.get(op)
    if kinds is not None:
        reads = [word[3 + i] for i, k in enumerate(kinds) if k == "r"]
        return reads, [word[1]], []
    if op in _LOADS:
        reads = [word[3]] if _LOADS[op] == "r" else []
        return reads, [word[1]], [word[2]]
    if op in _STORES:
        vkind, ikind = _STORES[op]
        reads = [word[2]] if vkind == "r" else []
        if ikind == "r":
            reads.append(word[3])
        return reads, [], [word[1]]
    if op in _STORES_D:
        ikind, vkind = _STORES_D[op]
        reads = [word[2]] if ikind == "r" else []
        if vkind == "r":
            reads.append(word[3])
        return reads, [], [word[1]]
    if op in _MOV_CONSTS:
        return [], [word[1]], []
    if op in _MOV_REGS or op == RETREAD:
        return [word[2]], [word[1]], []
    if op in _NEGS:
        return [word[2]], [word[1]], []
    if op in _UNFS:
        return [word[3]], [word[1]], []
    if op == _eng.UNFC:
        return [], [word[1]], []
    if op == CP:
        return [word[2]], [word[1]], []
    if op == CP2:
        return [word[2], word[4]], [word[1], word[3]], []
    if op == TEST:
        return [word[2]], [word[1]], []
    if op == INTRN:
        return [p for k, p in word[3] if k == 0], [word[1]], []
    raise SimulationError(
        f"cannot lane-compile word {word!r}")  # pragma: no cover


def _word_is_safe(word: list) -> bool:
    """True when the word can never raise: plain register/constant moves
    (``_UNDEF`` copies freely; only *uses* fault)."""
    op = word[0]
    return op in _MOV_CONSTS or op == CP or op == CP2


class _LaneEmitter:
    """Emits the lane-parallel Python source of one lowered graph."""

    def __init__(self, lg: _LoweredGraph, fn_name: str,
                 fn_of_graph: Dict[str, str], n_lanes: int):
        self.lg = lg
        self.fn_name = fn_name
        self.fn_of_graph = fn_of_graph
        self.n_lanes = n_lanes
        self.lines: List[str] = []
        self.indent = 1
        self.objs: List[object] = []
        self._obj_names: Dict[int, str] = {}
        self.upward: Set[int] = self._compute_upward()

    # -- small helpers -------------------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def paste(self, block: List[str]) -> None:
        prefix = "    " * self.indent
        self.lines.extend(prefix + line for line in block)

    @staticmethod
    def _r(slot: int) -> str:
        """Per-lane list name of a register slot (negative = scratch)."""
        return f"r{slot}" if slot >= 0 else f"t{-slot}"

    @staticmethod
    def _v(slot: int) -> str:
        """Loop-local scalar caching one lane's value of a slot."""
        return f"v{slot}" if slot >= 0 else f"u{-slot}"

    def _k(self, obj) -> str:
        name = self._obj_names.get(id(obj))
        if name is None:
            name = f"K{len(self.objs)}"
            self._obj_names[id(obj)] = name
            self.objs.append(obj)
        return name

    def _const(self, value) -> str:
        if isinstance(value, float) and \
                (value != value or value in (float("inf"), float("-inf"))):
            return self._k(value)
        return repr(value)

    def _operand(self, kind: str, payload) -> str:
        return self._v(payload) if kind == "r" else self._const(payload)

    def _emit_fold(self, lanes_expr: str, counted: List[int],
                   extra: Optional[int] = None) -> None:
        """Fold the group-scalar counter deltas into per-lane storage
        for *lanes_expr*: the sparse cycle delta ``n`` into each lane's
        absolute base ``nb`` and the edge deltas into ``eh``.  ``extra``
        pre-bumps one edge counter (the taken edge of a branch side
        being parked).  The caller resets the scalars afterwards (or
        abandons them by transferring control)."""
        self.emit(f"for ln in {lanes_expr}:")
        self.emit("    nb[ln] += n")
        if counted:
            self.emit("    _a = eh[ln]")
        for e in counted:
            if e == extra:
                self.emit(f"    _a[{e}] += e{e} + 1")
            else:
                self.emit(f"    _a[{e}] += e{e}")

    def _emit_reset(self, counted: List[int]) -> None:
        """Zero the group-scalar deltas (after a fold)."""
        self.emit("n = 0")
        if counted:
            self.emit(" = ".join(f"e{e}" for e in counted) + " = 0")

    def _emit_nm(self) -> None:
        """Recompute the group's max absolute base (the scalar the
        sparse limit check compares against)."""
        self.emit("nm = max([nb[ln] for ln in lanes])")

    def _emit_limit_check(self, counted: List[int],
                          on_empty: str = "break",
                          recount: Optional[int] = None) -> None:
        """The sparse cycle check.  ``nb[ln] + n`` is lane ``ln``'s
        exact sparse count and ``nm`` an upper bound on the group's max
        base, so the cheap comparison can only fire early, never late;
        the rare path then folds and faults precisely the lanes over
        the limit while the rest continue.  ``recount`` rebuilds a
        pending branch's true-lane count after the fault filter."""
        tail = f"exceeded; infinite loop in {self.lg.name!r}?"
        self.emit("n += 1")
        self.emit("if n + nm > limit:")
        self.indent += 1
        self._emit_fold("lanes", counted)
        self._emit_reset(counted)
        self.emit("for ln in lanes:")
        self.emit("    if nb[ln] > limit:")
        self.emit('        fault[ln] = SimulationError(f"cycle limit '
                  f'({{limit}}) " {tail!r})')
        self.emit("lanes = [ln for ln in lanes if fault[ln] is None]")
        self.emit("if not lanes:")
        self.emit(f"    {on_empty}")
        self._emit_nm()
        if recount is not None:
            self.emit("tc = 0")
            self.emit("for ln in lanes:")
            self.emit(f"    if {self._r(recount)}[ln] != 0:")
            self.emit("        tc += 1")
        self.indent -= 1

    def _emit_park(self, counted: List[int]) -> None:
        """The reconvergence point at the top of the dispatch loop: when
        another group waits at or behind this pc, fold and park here so
        the scheduler can run the rearmost group first and merge lanes
        arriving at the same block.  ``pc >= pmin`` never lowers the
        pending minimum, so ``pmin`` needs no update."""
        self.emit("if pc >= pmin:")
        self.indent += 1
        self._emit_fold("lanes", counted)
        self.emit("_w = wait.get(pc)")
        self.emit("if _w is None:")
        self.emit("    wait[pc] = lanes")
        self.emit("else:")
        self.emit("    _w.extend(lanes)")
        self.emit("break")
        self.indent -= 1

    # -- block discovery -----------------------------------------------------------

    def _analyze(self):
        """Codegen's block split (calls resume inline: the group stays
        whole across a call, so the resume point needs no dispatch
        ordinal unless something else jumps to it)."""
        words = self.lg.words
        index_of = {id(w): i for i, w in enumerate(words)}
        refs: Dict[int, List[Tuple[int, int]]] = {}
        for i, word in enumerate(words):
            for slot in _jump_slots(word):
                target = index_of[id(word[slot])]
                refs.setdefault(target, []).append((i, word[0]))
        entry = index_of[id(self.lg.entry_word)]
        starts = {entry}
        for target, sources in refs.items():
            if len(sources) == 1 and target != entry:
                src, op = sources[0]
                if target > src and op != BR and op != JB:
                    continue  # single-source forward jump: inlined at
                    # its source, extending the straight-line run
            starts.add(target)
        return words, index_of, sorted(starts), entry

    # -- straight-line runs --------------------------------------------------------

    def _emit_word(self, word: list) -> None:
        """One word's computational effect over the loop-local scalars
        (the codegen statement with registers renamed lane-local)."""
        op = word[0]
        v = self._v
        binop = _BINOPS.get(op)
        if binop is not None:
            sym, kinds = binop
            a = self._operand(kinds[0], word[2])
            b = self._operand(kinds[1], word[3])
            self.emit(f"{v(word[1])} = {a} {sym} {b}")
            return
        kinds = _BINF.get(op)
        if kinds is not None:
            fn = self._k(word[2])
            a = self._operand(kinds[0], word[3])
            b = self._operand(kinds[1], word[4])
            self.emit(f"{v(word[1])} = {fn}({a}, {b})")
            return
        if op in _LOADS:
            index = self._operand(_LOADS[op], word[3])
            k = word[2]
            self.emit(f"if 0 <= {index} < w{k}.size:")
            self.emit(f"    {v(word[1])} = w{k}.data[{index}]")
            self.emit("else:")
            self.emit(f"    w{k}.load({index})")
            return
        if op in _STORES:
            vkind, ikind = _STORES[op]
            value = self._operand(vkind, word[2])
            index = self._operand(ikind, word[3])
            self.emit(f"w{word[1]}.store({index}, {value})")
            return
        if op in _STORES_D:
            ikind, vkind = _STORES_D[op]
            index = self._operand(ikind, word[2])
            value = self._operand(vkind, word[3])
            self.emit(f"w{word[1]}.store({index}, {value})")
            return
        if op in _MOV_CONSTS:
            self.emit(f"{v(word[1])} = {self._const(word[2])}")
            return
        if op in _MOV_REGS or op == RETREAD:
            message = f"read of undefined register {word[3]!r}"
            self.emit(f"if {v(word[2])} is _UNDEF:")
            self.emit(f"    raise SimulationError({message!r})")
            self.emit(f"{v(word[1])} = {v(word[2])}")
            return
        if op in _NEGS:
            self.emit(f"{v(word[1])} = -{v(word[2])}")
            return
        if op in _UNFS:
            self.emit(f"{v(word[1])} = {self._k(word[2])}({v(word[3])})")
            return
        if op == _eng.UNFC:
            self.emit(f"{v(word[1])} = "
                      f"{self._k(word[2])}({self._const(word[3])})")
            return
        if op == CP:
            self.emit(f"{v(word[1])} = {v(word[2])}")
            return
        if op == CP2:
            self.emit(f"{v(word[1])} = {v(word[2])}")
            self.emit(f"{v(word[3])} = {v(word[4])}")
            return
        if op == TEST:
            self.emit(f"{v(word[1])} = {v(word[2])} != 0")
            return
        if op == INTRN:
            args = []
            for kind, payload in word[3]:
                if kind == 0:
                    args.append(self._v(payload))
                elif kind == 1:
                    args.append(self._const(payload))
                else:  # unreadable operand: raises when (and only when) run
                    self.emit(f"raise SimulationError({payload!r})")
                    return
            self.emit(f"{self._v(word[1])} = "
                      f"{self._k(word[2])}({', '.join(args)})")
            return
        raise SimulationError(
            f"cannot lane-compile word {word!r}")  # pragma: no cover

    def _compute_upward(self) -> Set[int]:
        """Register slots that must be backed by per-lane lists.

        A slot needs a list exactly when some read of it can cross an
        emitted run boundary, or when terminal/call emission accesses
        it as a list (branch conditions, return registers, call
        arguments and destinations).  Every other slot is only ever
        read in the same run that wrote it, so it lives purely in loop
        locals: no ``[_UNDEF] * L`` init, no write-back.

        The walk below mirrors :meth:`_emit_block` word for word —
        same block starts, same forward-jump and call-resume inlining
        — so a run here has exactly the emitted run's extent and the
        preloads :meth:`_flush_run` and :meth:`_emit_side` emit always
        read a list this set caused to exist.  (Diamond sides start at
        BR targets, which :meth:`_analyze` always keeps as starts, so
        their external reads are covered by the per-start walks.)"""
        if self.lg.entry_word is None:
            return set()
        words, index_of, starts, _entry = self._analyze()
        starts_set = set(starts)
        upward: Set[int] = set()
        for word in words:
            op = word[0]
            if op == CALL:
                for kind, payload, _aname in word[3]:
                    if kind == 0:
                        upward.add(payload)
                if word[2] is not None:
                    upward.add(word[2])
            elif op == BR or op == RET_S or op == RET_R:
                upward.add(word[1])
        for start in starts:
            defined: Set[int] = set()
            k = start
            while True:
                word = words[k]
                op = word[0]
                if op == ERROR or op == BR or op == JB or op in _RETS:
                    break
                if op == CALL:
                    resume = index_of[id(word[4])]
                    if resume in starts_set:
                        break
                    defined.clear()  # the call ends the run; a fresh
                    k = resume       # one resumes inline
                    continue
                if op == J:
                    target = index_of[id(word[1])]
                    if target in starts_set:
                        break
                    k = target
                    continue
                reads, writes, _arrs = _word_regs(word)
                for s in reads:
                    if s not in defined:
                        upward.add(s)
                defined.update(writes)
                if _is_terminal(op):  # fused op+jump, part of the run
                    target = index_of[id(word[_jump_slots(word)[0]])]
                    if target in starts_set:
                        break
                    k = target
                    continue
                k += 1
        return upward

    def _flush_run(self, run: List[list],
                   branch_cond: Optional[int] = None) -> None:
        """Emit one straight-line word run as a single lane loop.

        Register slots the run touches are cached into loop locals at
        the top; slots some other run may read (``self.upward``) are
        written back at the bottom, so the body is the codegen tier's
        scalar statement sequence.  A lane that raises records its
        fault and skips the write-back (its state is unobservable from
        then on); the group drops faulted lanes — via a flag, so the
        fault-free common path never rebuilds the list — before
        transferring control.

        ``branch_cond`` fuses the subsequent branch's condition read
        into the loop tail, counting true lanes into ``tc`` (a lane
        whose condition read faults counts for neither side, exactly
        like one that faulted mid-run).
        """
        if not run and branch_cond is None:
            return
        preload: List[int] = []
        written: List[int] = []
        arrays: List[int] = []
        defined: Set[int] = set()
        may_fault = branch_cond is not None
        for word in run:
            reads, writes, arrs = _word_regs(word)
            for s in reads:
                if s not in defined and s not in preload:
                    preload.append(s)
            for s in writes:
                defined.add(s)
                if s not in written:
                    written.append(s)
            for k in arrs:
                if k not in arrays:
                    arrays.append(k)
            if not _word_is_safe(word):
                may_fault = True
        if branch_cond is not None:
            self.emit("tc = 0")
        if may_fault:
            self.emit("_flt = False")
        self.emit("for ln in lanes:")
        self.indent += 1
        if may_fault:
            self.emit("try:")
            self.indent += 1
        for s in preload:
            self.emit(f"{self._v(s)} = {self._r(s)}[ln]")
        for k in arrays:
            self.emit(f"w{k} = a{k}[ln]")
        for word in run:
            self._emit_word(word)
        for s in written:
            if s in self.upward:
                self.emit(f"{self._r(s)}[ln] = {self._v(s)}")
        if branch_cond is not None:
            if branch_cond in defined or branch_cond in preload:
                cond = self._v(branch_cond)
            else:
                cond = f"{self._r(branch_cond)}[ln]"
            self.emit(f"if {cond} != 0:")
            self.emit("    tc += 1")
        if may_fault:
            self.indent -= 1
            self.emit("except SimulationError as exc:")
            self.emit("    fault[ln] = exc")
            self.emit("    _flt = True")
        self.indent -= 1
        if may_fault:
            self.emit("if _flt:")
            self.emit("    lanes = "
                      "[ln for ln in lanes if fault[ln] is None]")
            self.emit("    if not lanes:")
            self.emit("        break")

    # -- terminals -----------------------------------------------------------------

    #: Longest straight-line branch side executed predicated instead of
    #: parked (words per side; beyond it the wait table takes over).
    _SIDE_CAP = 24

    def _walk_side(self, start: int, words, index_of,
                   starts_set: Set[int]):
        """``(body_words, join_index, via_jb)`` of one straight-line
        branch side, or None when the side branches again, calls,
        returns or grows past :data:`_SIDE_CAP`.  The walk follows
        forward jump chains exactly like block emission, stopping at
        the first dispatch block (the join candidate); a side may also
        end at a counted back-jump (``via_jb``), where optimizers
        leave duplicated loop latches behind divergent conditions."""
        body: List[list] = []
        k = start
        while True:
            if k in starts_set and k != start:
                return body, k, False
            word = words[k]
            op = word[0]
            if op == JB:
                return body, index_of[id(word[1])], True
            if op == CALL or op == BR or op == ERROR or op in _RETS:
                return None
            if op == J:
                k = index_of[id(word[1])]
                continue
            if len(body) >= self._SIDE_CAP:
                return None
            body.append(word)
            if _is_terminal(op):  # fused op+jump
                slots = _jump_slots(word)
                if len(slots) != 1:
                    return None
                k = index_of[id(word[slots[0]])]
                continue
            k += 1

    def _match_diamond(self, word: list, words, index_of,
                       starts_set: Set[int]):
        """``(true_body, false_body, join_index, via_jb)`` when both
        branch targets run straight (possibly empty) into one common
        join block, else None.  Joins reached through a back-jump must
        be so on *both* sides — the back-jump carries a cycle count,
        so a mixed pair would make the group's delta non-uniform."""
        t_idx = index_of[id(word[3])]
        f_idx = index_of[id(word[5])]
        side_t = self._walk_side(t_idx, words, index_of, starts_set)
        side_f = self._walk_side(f_idx, words, index_of, starts_set)
        if side_t is not None and side_f is not None \
                and side_t[1:] == side_f[1:]:
            return side_t[0], side_f[0], side_t[1], side_t[2]
        if side_t is not None and not side_t[2] and side_t[1] == f_idx:
            return side_t[0], [], f_idx, False
        if side_f is not None and not side_f[2] and side_f[1] == t_idx:
            return [], side_f[0], t_idx, False
        return None

    def _emit_side(self, body: List[list], edge: int) -> None:
        """One diamond side inside the predicated lane loop: bump the
        taken edge directly (no group scalar — lanes in the same group
        take different sides) and run the side's words on loop locals,
        writing back the slots other runs read."""
        self.emit("_a = eh[ln]")
        self.emit(f"_a[{edge}] += 1")
        if not body:
            return
        preload: List[int] = []
        written: List[int] = []
        arrays: List[int] = []
        defined: Set[int] = set()
        for word in body:
            reads, writes, arrs = _word_regs(word)
            for s in reads:
                if s not in defined and s not in preload:
                    preload.append(s)
            for s in writes:
                defined.add(s)
                if s not in written:
                    written.append(s)
            for k in arrs:
                if k not in arrays:
                    arrays.append(k)
        for s in preload:
            self.emit(f"{self._v(s)} = {self._r(s)}[ln]")
        for k in arrays:
            self.emit(f"w{k} = a{k}[ln]")
        for word in body:
            self._emit_word(word)
        for s in written:
            if s in self.upward:
                self.emit(f"{self._r(s)}[ln] = {self._v(s)}")

    def _emit_diamond(self, word: list, diamond, ordinal_of,
                      counted: List[int], run: List[list]) -> None:
        """Both sides of an if/else diamond as one predicated lane
        loop: the group stays whole, nothing parks, nothing folds —
        each lane just takes its own side and everyone reconverges at
        the join.  Cycle accounting needs no per-side work because
        straight-line sides contain no BR/JB and therefore no sparse
        increments; the branch itself is counted group-wide first, and
        a shared back-jump join is counted group-wide after — every
        lane crossed exactly one back-edge, whichever side it took."""
        t_body, f_body, join, via_jb = diamond
        self._flush_run(run)
        self._emit_limit_check(counted)
        cond = self._r(word[1])
        self.emit("_flt = False")
        self.emit("for ln in lanes:")
        self.indent += 1
        self.emit("try:")
        self.indent += 1
        self.emit(f"if {cond}[ln] != 0:")
        self.indent += 1
        self._emit_side(t_body, word[2])
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self._emit_side(f_body, word[4])
        self.indent -= 2
        self.emit("except SimulationError as exc:")
        self.emit("    fault[ln] = exc")
        self.emit("    _flt = True")
        self.indent -= 1
        self.emit("if _flt:")
        self.emit("    lanes = [ln for ln in lanes if fault[ln] is None]")
        self.emit("    if not lanes:")
        self.emit("        break")
        if via_jb:
            self._emit_limit_check(counted)
        self.emit(f"pc = {ordinal_of[join]}")
        self.emit("continue")

    def _emit_branch(self, word: list, words, index_of,
                     starts_set: Set[int], ordinal_of,
                     counted: List[int], run: List[list]) -> None:
        """Resolve a branch from the fused true-lane count ``tc``.

        If/else diamonds — both targets straight-line into a common
        join — run predicated instead (:meth:`_emit_diamond`): the
        group never splits.  Otherwise the preceding run's lane loop
        already evaluated the condition per lane (lanes whose read
        faults drop out counting for neither side), so the uniform
        cases — the overwhelming majority — cost one comparison and
        touch no lists.  Only a genuinely divergent group partitions:
        the false side is folded (its edge pre-bumped) and parked in
        the wait table for the scheduler to resume and re-merge, while
        the true side continues — the dispatch-top park check then
        orders the two by block ordinal."""
        diamond = self._match_diamond(word, words, index_of, starts_set)
        if diamond is not None:
            self._emit_diamond(word, diamond, ordinal_of, counted, run)
            return
        cond_slot = word[1]
        self._flush_run(run, branch_cond=cond_slot)
        self._emit_limit_check(counted, recount=cond_slot)
        cond = self._r(cond_slot)
        e_true, e_false = word[2], word[4]
        t_true = ordinal_of[index_of[id(word[3])]]
        t_false = ordinal_of[index_of[id(word[5])]]
        self.emit("if tc:")
        self.indent += 1
        self.emit("if tc != len(lanes):")
        self.indent += 1
        self.emit("tl = []")
        self.emit("fl = []")
        self.emit("for ln in lanes:")
        self.emit(f"    if {cond}[ln] != 0:")
        self.emit("        tl.append(ln)")
        self.emit("    else:")
        self.emit("        fl.append(ln)")
        self._emit_fold("fl", counted, extra=e_false)
        self.emit("if wait is None:")
        self.emit(f"    wait = {{{t_false}: fl}}")
        self.emit(f"    pmin = {t_false}")
        self.emit("else:")
        self.emit(f"    _w = wait.get({t_false})")
        self.emit("    if _w is None:")
        self.emit(f"        wait[{t_false}] = fl")
        self.emit(f"        if {t_false} < pmin:")
        self.emit(f"            pmin = {t_false}")
        self.emit("    else:")
        self.emit("        _w.extend(fl)")
        self.emit("lanes = tl")
        self.indent -= 1
        self.emit(f"e{e_true} += 1")
        self.emit(f"pc = {t_true}")
        self.emit("continue")
        self.indent -= 1
        self.emit(f"e{e_false} += 1")
        self.emit(f"pc = {t_false}")
        self.emit("continue")

    def _emit_call(self, word: list) -> bool:
        """One lane-parallel call; returns True when the emission
        terminated the block (an emitter-level raise).

        Argument registers are undef-checked per lane (faulting lanes
        drop before the call, exactly as their sequential run would
        fault at this site).  The caller folds its sparse cycle delta so
        the callee sees exact absolute bases, then the callee runs the
        surviving lanes as one group; frame-entry raises (depth, arity,
        unknown entry) are uniform and fault the whole group.  The
        callee folds everything it does into the per-lane bases, so the
        caller resumes *inline* with the whole group intact — only the
        max base needs recomputing."""
        callee, dspec, specs = word[1], word[2], word[3]
        if callee not in self.fn_of_graph:
            message = f"call to unknown function {callee!r}"
            self.emit(f"raise SimulationError({message!r})")
            return True
        for kind, payload, _aname in specs:
            if kind == 3:
                message = f"array argument {payload!r} is not bound"
                self.emit(f"raise SimulationError({message!r})")
                return True
            if kind not in (0, 1, 2):
                self.emit(f"raise SimulationError({payload!r})")
                return True
        reg_args = [(payload, aname)
                    for kind, payload, aname in specs if kind == 0]
        if reg_args:
            self.emit("_flt = False")
            self.emit("for ln in lanes:")
            self.emit("    try:")
            for slot, aname in reg_args:
                message = f"read of undefined register {aname!r}"
                self.emit(f"        if {self._r(slot)}[ln] is _UNDEF:")
                self.emit(f"            raise SimulationError({message!r})")
            self.emit("    except SimulationError as exc:")
            self.emit("        fault[ln] = exc")
            self.emit("        _flt = True")
            self.emit("if _flt:")
            self.emit("    lanes = "
                      "[ln for ln in lanes if fault[ln] is None]")
            self.emit("    if not lanes:")
            self.emit("        break")
        args = []
        for kind, payload, _aname in specs:
            if kind == 0:
                args.append(self._r(payload))
            elif kind == 1:
                args.append(f"[{self._const(payload)}] * {self.n_lanes}")
            else:
                args.append(f"a{payload}")
        self.emit("if n:")
        self.emit("    for ln in lanes:")
        self.emit("        nb[ln] += n")
        self.emit("    nm += n")
        self.emit("    n = 0")
        self.emit("try:")
        self.emit(f"    G[{self.fn_of_graph[callee]!r}]"
                  f"([{', '.join(args)}], lanes, nm, state)")
        self.emit("except SimulationError as exc:")
        self.emit("    for ln in lanes:")
        self.emit("        fault[ln] = exc")
        self.emit("    break")
        self.emit("lanes = [ln for ln in lanes if fault[ln] is None]")
        self.emit("if not lanes:")
        self.emit("    break")
        if dspec is not None:
            self.emit("for ln in lanes:")
            self.emit(f"    {self._r(dspec)}[ln] = retv[ln]")
        self._emit_nm()
        return False

    def _emit_return(self, word: list, counted: List[int]) -> None:
        """Fold the group's shared counter deltas into every lane,
        record the per-lane return value, and retire the group.  A lane
        whose return register is undefined faults here — its
        (already-folded) counters are never read."""
        op = word[0]
        self.emit("for ln in lanes:")
        self.emit("    nb[ln] += n")
        if counted:
            self.emit("    _a = eh[ln]")
            for e in counted:
                self.emit(f"    _a[{e}] += e{e}")
        if op == RET_C:
            self.emit(f"    retv[ln] = {self._const(word[1])}")
        elif op == RET_N:
            self.emit("    retv[ln] = None")
        elif op == RET_S:
            self.emit(f"    retv[ln] = {self._r(word[1])}[ln]")
        if op == RET_R:
            message = f"read of undefined register {word[2]!r}"
            self.emit("for ln in lanes:")
            self.emit(f"    _t = {self._r(word[1])}[ln]")
            self.emit("    if _t is _UNDEF:")
            self.emit(f"        fault[ln] = SimulationError({message!r})")
            self.emit("    else:")
            self.emit("        retv[ln] = _t")
        self.emit("break")

    # -- block + dispatch emission -------------------------------------------------

    def _emit_block(self, start: int, words, index_of,
                    starts_set: Set[int], ordinal_of: Dict[int, int],
                    counted: List[int]) -> None:
        k = start
        run: List[list] = []
        while True:
            word = words[k]
            op = word[0]
            if not _is_terminal(op) and op != CALL:
                run.append(word)
                k += 1
                continue
            if op == CALL:
                self._flush_run(run)
                run = []
                if self._emit_call(word):
                    return
                resume = index_of[id(word[4])]
                if resume in starts_set:
                    self.emit(f"pc = {ordinal_of[resume]}")
                    self.emit("continue")
                    return
                k = resume
                continue
            if op in _RETS:
                self._flush_run(run)
                self._emit_return(word, counted)
                return
            if op == ERROR:
                self._flush_run(run)
                self.emit(f"raise SimulationError({word[1]!r})")
                return
            if op == BR:
                self._emit_branch(word, words, index_of, starts_set,
                                  ordinal_of, counted, run)
                return
            if op == JB:
                self._flush_run(run)
                self._emit_limit_check(counted)
                self.emit(f"pc = {ordinal_of[index_of[id(word[1])]]}")
                self.emit("continue")
                return
            # J or a fused op+jump word.
            if op != J:
                run.append(word)
            target = index_of[id(word[_jump_slots(word)[0]])]
            if target not in starts_set:
                k = target
                continue
            self._flush_run(run)
            self.emit(f"pc = {ordinal_of[target]}")
            self.emit("continue")
            return

    def _emit_dispatch(self, lo: int, hi: int,
                       blocks: Dict[int, List[str]]) -> None:
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

    # -- whole function ------------------------------------------------------------

    def _emit_prologue(self) -> Optional[List[int]]:
        lg = self.lg
        name = lg.name
        L = self.n_lanes
        self.emit("depth = state.depth")
        message = f"call depth exceeded in {name!r} (runaway recursion?)"
        self.emit(f"if depth > {_MAX_CALL_DEPTH}:")
        self.emit(f"    raise SimulationError({message!r})")
        self.emit(f"cc = state.call_counts[{name!r}]")
        self.emit("for ln in lanes:")
        self.emit("    cc[ln] += 1")
        prefix = f"{name!r} expects {lg.n_params} arguments, got "
        self.emit(f"if len(args) != {lg.n_params}:")
        self.emit(f"    raise SimulationError({prefix!r} + "
                  "str(len(args)))")
        self.emit("fault = state.fault")
        self.emit("retv = state.retv")
        self.emit("nb = state.lane_n")

        param_slots = {slot for is_reg, slot, _pname in lg.param_plan
                       if is_reg}
        named = lg.n_regs - 1 - lg.scratch_watermark
        for s in range(1, named + 1):
            if s in self.upward and s not in param_slots:
                self.emit(f"r{s} = [_UNDEF] * {L}")
        for i in range(1, lg.scratch_watermark + 1):
            if -i in self.upward:
                self.emit(f"t{i} = [_UNDEF] * {L}")

        written: Set[int] = set()
        for word in lg.words:
            op = word[0]
            if op == CALL:
                if word[2] is not None:
                    written.add(word[2])
            elif op != J and op != JB and op != BR and op != ERROR \
                    and op not in _RETS:
                written.update(_word_regs(word)[1])

        has_array_params = False
        for i, (is_reg, slot, pname) in enumerate(lg.param_plan):
            if is_reg:
                if slot in written:
                    self.emit(f"r{slot} = list(args[{i}])")
                else:  # read-only: alias the caller's list directly
                    self.emit(f"r{slot} = args[{i}]")
            else:
                has_array_params = True
                prefix = (f"{name!r}: array parameter {pname!r} "
                          f"bound to non-array ")
                self.emit(f"_t = args[{i}]")
                self.emit("for ln in lanes:")
                self.emit("    if not isinstance(_t[ln], ArrayStorage):")
                self.emit(f"        fault[ln] = SimulationError({prefix!r}"
                          " + repr(_t[ln]))")
                self.emit(f"a{slot} = _t")
        if has_array_params:
            self.emit("lanes = [ln for ln in lanes if fault[ln] is None]")
            self.emit("if not lanes:")
            self.emit("    return")
        for slot, symbol in lg.local_plan:
            self.emit(f"a{slot} = [None] * {L}")
            self.emit("for ln in lanes:")
            self.emit(f"    a{slot}[ln] = ArrayStorage({self._k(symbol)})")
        if lg.global_plan:
            self.emit("_ga = state.global_arrays")
            for slot, gname in lg.global_plan:
                self.emit(f"a{slot} = _ga[{gname!r}]")
        for slot, placeholder in lg.missing_plan:
            self.emit(f"a{slot} = [{self._k(placeholder)}] * {L}")

        if lg.entry_word is None:
            message = f"{name!r} has no entry node"
            self.emit(f"raise SimulationError({message!r})")
            return None

        counted = sorted({word[slot]
                          for word in lg.words if word[0] == BR
                          for slot in (2, 4)})
        self.emit(f"eh = state.edge_hits[{name!r}]")
        self.emit("limit = state.max_cycles")
        self.emit("wait = None")
        self.emit("pmin = 1 << 62")
        self._emit_reset(counted)
        self._emit_limit_check(counted, on_empty="return")
        return counted

    def build(self) -> str:
        lg = self.lg
        counted = self._emit_prologue()
        if counted is not None:
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
            self.emit(f"pc = {ordinal_of[entry]}")
            self.emit("while True:")
            self.indent += 1
            self.emit("try:")
            self.indent += 1
            self.emit("while True:")
            self.indent += 1
            self._emit_park(counted)
            self._emit_dispatch(0, len(starts) - 1, blocks)
            self.indent -= 2
            self.emit("except SimulationError as exc:")
            self.emit("    for ln in lanes:")
            self.emit("        fault[ln] = exc")
            self.emit("if not wait:")
            self.emit("    return")
            self.emit("pc = min(wait)")
            self.emit("lanes = wait.pop(pc)")
            self.emit("pmin = min(wait) if wait else 1 << 62")
            self._emit_reset(counted)
            self._emit_nm()
            self.indent -= 2
            self.emit("finally:")
            self.emit("    state.depth = depth")

        params = ["args", "lanes", "nm", "state", "_UNDEF=_UNDEF",
                  "ArrayStorage=ArrayStorage",
                  "SimulationError=SimulationError", "G=G"]
        params.extend(f"K{i}=_{self.fn_name}_K{i}"
                      for i in range(len(self.objs)))
        header = f"def {self.fn_name}({', '.join(params)}):"
        return "\n".join([header] + self.lines) + "\n"


class _LaneState:
    """Mutable state of one lane-parallel run, shared across frames.

    ``lane_n`` holds each lane's *absolute* sparse cycle base, updated
    at fold points (parks, divergences, returns, rare limit paths); a
    running group's scalar delta ``n`` lives in the generated frame and
    is folded in before anything per-lane is decided."""

    __slots__ = ("globals", "global_arrays", "max_cycles", "depth",
                 "call_counts", "edge_hits", "fault", "retv", "lane_n")

    def __init__(self, globals_: List[Dict[str, ArrayStorage]],
                 max_cycles: int, n_lanes: int,
                 edge_hits: Dict[str, List[List[int]]]):
        self.globals = globals_
        # Per-name lane lists, hoisted out of the generated prologues:
        # storages mutate in place but are never rebound, so one
        # snapshot of identities serves every call.  (``get``: a lane
        # pre-faulted during setup may have a partial dict; it never
        # runs, so its placeholder is never read.)
        names: Set[str] = set()
        for lane_globals in globals_:
            names.update(lane_globals)
        self.global_arrays: Dict[str, List[Optional[ArrayStorage]]] = {
            name: [lane_globals.get(name) for lane_globals in globals_]
            for name in sorted(names)}
        self.max_cycles = max_cycles
        self.depth = 0
        self.call_counts: Dict[str, List[int]] = {
            name: [0] * n_lanes for name in edge_hits}
        self.edge_hits = edge_hits
        self.fault: List[Optional[SimulationError]] = [None] * n_lanes
        self.retv: List[object] = [None] * n_lanes
        self.lane_n: List[int] = [0] * n_lanes


class LaneModule:
    """All graphs of one module as lane-parallel exec-compiled functions,
    specialized for one lane count (the width is inlined)."""

    def __init__(self, module: GraphModule, n_lanes: int):
        # In-memory lowering only: the payload embeds the lowered graphs.
        lowered = lower_module(module, _disk=False)
        fn_of_graph = {name: f"_f{i}"
                       for i, name in enumerate(lowered.graphs)}
        consts: Dict[str, object] = {}
        pieces: List[str] = []
        for name, lg in lowered.graphs.items():
            emitter = _LaneEmitter(lg, fn_of_graph[name], fn_of_graph,
                                   n_lanes)
            pieces.append(emitter.build())
            for i, obj in enumerate(emitter.objs):
                consts[f"_{fn_of_graph[name]}_K{i}"] = obj
        source = "\n".join(pieces)
        code = compile(source, f"<repro-lanes:{module.name}:L{n_lanes}>",
                       "exec")
        self._assemble(module, lowered, n_lanes, source, consts, code)

    def _assemble(self, module: GraphModule, lowered: LoweredModule,
                  n_lanes: int, source: str, consts: Dict[str, object],
                  code) -> None:
        self.module = module
        self.lowered = lowered
        self.n_lanes = n_lanes
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
        """Same shape as the codegen tier's entry (lowered graphs,
        source, consts, checksummed marshalled code) plus the lane
        count, which a load re-verifies against the requested width."""
        import hashlib
        import marshal
        blob = marshal.dumps(self._code)
        return {"graphs": self.lowered.graphs, "n_lanes": self.n_lanes,
                "source": self.source, "consts": self.consts,
                "code": blob, "code_sha": hashlib.sha256(blob).hexdigest()}

    @classmethod
    def from_payload(cls, module: GraphModule, payload: Dict[str, object],
                     n_lanes: int) -> "LaneModule":
        import hashlib
        import marshal
        if payload.get("n_lanes") != n_lanes:
            raise ValueError("lane-count mismatch in cache entry")
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
            code = compile(source,
                           f"<repro-lanes:{module.name}:L{n_lanes}>", "exec")
        self = cls.__new__(cls)
        self._assemble(module, lowered, n_lanes, source,
                       payload["consts"], code)
        return self


def generate_lane_module(module: GraphModule, n_lanes: int) -> LaneModule:
    """The lane-parallel form of *module* for *n_lanes* seeds.

    Cached per lane count on the module itself (``_lanes_cache`` maps
    ``n_lanes`` to a :class:`LaneModule`, validated by the usual
    streamed structural signature and stripped at pickle boundaries),
    with the disk tier below it under a lane-count-partitioned key —
    the same module digest the bytecode/codegen entries use, suffixed
    with the width, since the emitted source is width-specialized.
    """
    cache_map = module.__dict__.get("_lanes_cache")
    if cache_map is None:
        cache_map = module._lanes_cache = {}
    cached = cache_map.get(n_lanes)
    if cached is not None:
        if _signature_matches(module, cached._signature):
            return cached
        cache_map.clear()  # the module mutated: every width is stale
    from repro.sim.diskcache import get_cache, module_digest
    cache = get_cache()
    key = None
    if cache is not None:
        key = f"{module_digest(module)}-L{n_lanes}"
        payload = cache.load("lanes", key)
        if payload is not None and not _payload_verified(
                module, "lanes", payload, cache, n_lanes=n_lanes,
                digest=key):
            payload = None
        if payload is not None:
            lane_module = None
            try:
                lane_module = LaneModule.from_payload(module, payload,
                                                      n_lanes)
            except Exception:
                cache.unusable("lanes")
            if lane_module is not None:
                cache_map[n_lanes] = lane_module
                module._lowered_cache = lane_module.lowered
                return lane_module
    lane_module = LaneModule(module, n_lanes)
    if key is not None:
        cache.store("lanes", key, lane_module.disk_payload())
    cache_map[n_lanes] = lane_module
    return lane_module


class LaneEngine:
    """The lane-parallel batch engine (fifth tier).

    ``run_batch`` executes all input sets in one generated pass; each
    lane's result is bit-identical to its own sequential
    :func:`~repro.sim.machine.run_module` call, including faults.
    """

    def __init__(self, module: GraphModule, max_cycles: int = 200_000_000):
        self.module = module
        self.max_cycles = max_cycles

    def run_batch_outcomes(self, inputs_list:
                           Sequence[Optional[Dict[str, Sequence]]]
                           ) -> List[LaneOutcome]:
        """Per-lane ``("ok", MachineResult)`` / ``("error", message)``.

        The outcome form exists because lanes fault independently: a
        batch where seed 3 traps still returns seeds 0–2 and 4+ complete
        (their results bit-identical to sequential runs), with lane 3
        carrying exactly the message its own run would have raised.
        """
        n_lanes = len(inputs_list)
        if n_lanes == 0:
            return []
        module = self.module
        lane_module = generate_lane_module(module, n_lanes)
        lmod = lane_module.lowered
        entry = module.entry

        globals_list: List[Dict[str, ArrayStorage]] = []
        prefault: List[Optional[SimulationError]] = [None] * n_lanes
        for i, inputs in enumerate(inputs_list):
            lane_globals: Dict[str, ArrayStorage] = {}
            try:
                for name, symbol in module.global_arrays.items():
                    init = module.array_initializers.get(name)
                    lane_globals[name] = ArrayStorage(symbol, init)
                if inputs:
                    for name, values in inputs.items():
                        if name not in lane_globals:
                            raise SimulationError(
                                f"input {name!r} does not match any "
                                f"global array")
                        lane_globals[name].fill_from(values)
            except SimulationError as exc:
                prefault[i] = exc
            globals_list.append(lane_globals)

        edge_hits = {name: [[0] * len(lg.edge_pairs)
                            for _ in range(n_lanes)]
                     for name, lg in lmod.graphs.items()}
        state = _LaneState(globals_list, self.max_cycles, n_lanes,
                           edge_hits)
        for i, exc in enumerate(prefault):
            if exc is not None:
                state.fault[i] = exc
        lanes = [i for i in range(n_lanes) if state.fault[i] is None]
        if lanes:
            try:
                lane_module.fns[entry.name]([], lanes, 0, state)
            except SimulationError as exc:
                # Raises escaping the entry frame are group-wide by
                # construction (its generated body converts per-lane
                # faults into recorded drops).
                for ln in lanes:
                    if state.fault[ln] is None:
                        state.fault[ln] = exc

        outcomes: List[LaneOutcome] = []
        for ln in range(n_lanes):
            exc = state.fault[ln]
            if exc is not None:
                outcomes.append(("error", str(exc)))
                continue
            snapshot = {name: storage.snapshot()
                        for name, storage in globals_list[ln].items()}
            profile = ProfileData()
            calls = state.call_counts
            for name, lg in lmod.graphs.items():
                node_hits, ehits = lg.resolve_counters(
                    edge_hits[name][ln], calls[name][ln])
                profile.merge_arrays(name, lg.node_ids, node_hits,
                                     lg.edge_pairs, ehits)
            for name, per_lane in calls.items():
                if per_lane[ln]:
                    profile.call_counts[name] = per_lane[ln]
            # The exact post-run check backing the sparse in-run one,
            # mirroring run_lowered_module.
            if profile.total_cycles() > self.max_cycles:
                outcomes.append((
                    "error",
                    f"cycle limit ({self.max_cycles}) exceeded; "
                    f"infinite loop in {entry.name!r}?"))
                continue
            outcomes.append(("ok", MachineResult(state.retv[ln],
                                                 snapshot, profile)))
        return outcomes

    def run_batch(self, inputs_list:
                  Sequence[Optional[Dict[str, Sequence]]]
                  ) -> List[MachineResult]:
        """Batch results in order, raising the first faulting lane's
        error — the observable contract of the per-seed loop the other
        tiers use (seeds before the fault are discarded there too)."""
        results: List[MachineResult] = []
        for kind, payload in self.run_batch_outcomes(inputs_list):
            if kind == "error":
                raise SimulationError(payload)
            results.append(payload)
        return results

    def run(self, inputs: Optional[Dict[str, Sequence]] = None
            ) -> MachineResult:
        """Single-seed entry point: a one-lane batch."""
        return self.run_batch([inputs])[0]
