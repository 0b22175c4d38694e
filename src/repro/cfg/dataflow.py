"""Dataflow analyses over program graphs.

Liveness is the one that matters for percolation scheduling: an operation may
only be hoisted into a predecessor node if its destination register is dead
on every *other* path out of that predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cfg.graph import Node, ProgramGraph
from repro.ir.instr import Instruction
from repro.ir.values import VirtualReg


class RegisterIndex:
    """Bit positions for registers, so that a register set is one int.

    Each register gets the next free bit the first time it is seen.  The
    ``(use, def)`` masks of every instruction are memoized, keyed by the
    instruction object itself; the memo holds a reference, so a
    collected instruction's address can never alias a live one.  The
    memo assumes an instruction's operands and destination do not change
    while the index is in use: a caller that rewrites operands in place
    (copy propagation) must start a fresh index afterwards.
    """

    __slots__ = ("_bits", "_regs", "_masks")

    def __init__(self) -> None:
        self._bits: Dict[VirtualReg, int] = {}
        self._regs: List[VirtualReg] = []
        self._masks: Dict[Instruction, Tuple[int, int]] = {}

    def bit(self, reg: VirtualReg) -> int:
        """The mask of *reg* alone, allocating a bit for a new register."""
        bit = self._bits.get(reg)
        if bit is None:
            bit = self._bits[reg] = 1 << len(self._regs)
            self._regs.append(reg)
        return bit

    def masks(self, ins: Instruction) -> Tuple[int, int]:
        """``(use, def)``: the registers *ins* reads and writes."""
        masks = self._masks.get(ins)
        if masks is None:
            use = 0
            for src in ins.srcs:
                if isinstance(src, VirtualReg):
                    use |= self.bit(src)
            dest = ins.dest
            masks = self._masks[ins] = (
                use, 0 if dest is None else self.bit(dest))
        return masks

    def node_masks(self, node: Node) -> Tuple[int, int]:
        """``(use, def)`` of a whole node: its ops plus its control."""
        memo = self._masks
        used = defined = 0
        for ins in node.ops:
            ins_use, ins_def = memo.get(ins) or self.masks(ins)
            used |= ins_use
            defined |= ins_def
        if node.control is not None:
            used |= self.masks(node.control)[0]
        return used, defined

    def decode(self, mask: int) -> Set[VirtualReg]:
        """The registers whose bits are set in *mask*."""
        regs: Set[VirtualReg] = set()
        while mask:
            low = mask & -mask
            regs.add(self._regs[low.bit_length() - 1])
            mask ^= low
        return regs


@dataclass
class LivenessInfo:
    """Live registers per node id, as bit masks over ``index``.

    ``live_in_masks`` / ``live_out_masks`` are the solver's result;
    ``live_in`` / ``live_out`` decode them into register sets.
    """

    index: RegisterIndex
    live_in_masks: Dict[int, int]
    live_out_masks: Dict[int, int]

    @property
    def live_in(self) -> Dict[int, Set[VirtualReg]]:
        return {nid: self.index.decode(mask)
                for nid, mask in self.live_in_masks.items()}

    @property
    def live_out(self) -> Dict[int, Set[VirtualReg]]:
        return {nid: self.index.decode(mask)
                for nid, mask in self.live_out_masks.items()}

    def is_live_in(self, node_id: int, reg: VirtualReg) -> bool:
        return bool(self.live_in_masks.get(node_id, 0)
                    & self.index.bit(reg))

    def is_live_out(self, node_id: int, reg: VirtualReg) -> bool:
        return bool(self.live_out_masks.get(node_id, 0)
                    & self.index.bit(reg))


def compute_liveness(graph: ProgramGraph,
                     index: Optional[RegisterIndex] = None,
                     order: Optional[Sequence[int]] = None) -> LivenessInfo:
    """Classic backward worklist liveness over VLIW nodes.

    Within a node all reads happen before all writes, so a register both
    read and written by the same node is *used* (its incoming value matters):
    ``use(n) = reads(n)``, ``def(n) = writes(n)``,
    ``live_in = use ∪ (live_out − def)``.  Nodes unreachable from the
    entry have nothing live.

    *index* lets a caller that solves repeatedly over one graph (the
    compaction passes) keep the per-instruction mask memo; *order* is the
    graph's reverse postorder when the caller already has it.
    """
    if index is None:
        index = RegisterIndex()
    if order is None:
        order = graph.rpo_order()
    nodes = graph.nodes
    backward = []
    for nid in reversed(order):
        node = nodes[nid]
        used, defined = index.node_masks(node)
        backward.append((nid, node.succs, used, ~defined))

    live_in = dict.fromkeys(nodes, 0)
    live_out = dict.fromkeys(nodes, 0)
    # Iterate to fixpoint; process in reverse RPO for fast convergence.
    changed = True
    while changed:
        changed = False
        for nid, succs, used, keep in backward:
            out = 0
            for succ in succs:
                out |= live_in[succ]
            if out != live_out[nid]:
                live_out[nid] = out
                changed = True
            new_in = used | (out & keep)
            if new_in != live_in[nid]:
                live_in[nid] = new_in
                changed = True
    return LivenessInfo(index, live_in, live_out)


def reaching_uses(graph: ProgramGraph,
                  ) -> Dict[int, List[Tuple[int, Instruction]]]:
    """For each node, the (node_id, instruction) pairs that read each def.

    Returns a map keyed by instruction ``uid`` of a defining instruction to
    the list of (node, instruction) sites that may consume its value along
    some path without an intervening redefinition.  Used by the sequence
    analyzer to find producer→consumer pairs beyond immediate neighbours and
    by tests as an oracle.
    """
    consumers: Dict[int, List[Tuple[int, Instruction]]] = {}
    for nid, node in graph.nodes.items():
        for ins in node.ops:
            if ins.dest is None:
                continue
            found = _collect_consumers(graph, nid, ins.dest)
            consumers[ins.uid] = found
    return consumers


def _collect_consumers(graph: ProgramGraph, start: int,
                       reg: VirtualReg) -> List[Tuple[int, Instruction]]:
    """Walk forward from *start* finding reads of *reg* before redefinition."""
    result: List[Tuple[int, Instruction]] = []
    seen: Set[int] = set()
    stack = list(graph.nodes[start].succs)
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        node = graph.nodes[nid]
        for ins in node.all_instructions():
            if reg in ins.uses():
                result.append((nid, ins))
        if reg in node.defs():
            continue  # killed here; stop this path
        stack.extend(node.succs)
    return result
