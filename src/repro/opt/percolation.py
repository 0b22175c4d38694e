"""Percolation scheduling: compaction of program graphs.

Implements the core semantics-preserving transformations of Nicolau's
percolation scheduling ([9],[10] in the paper) on VLIW program graphs:

* **move_op** — hoist an operation from a node into its predecessor(s).
  When the node has several predecessors the operation is copied into every
  one of them (the paper's *unify* flavour); the move happens only if it is
  legal in all of them.
* **delete** — remove nodes that became empty, shortening the schedule.
* **register renaming** (optimization level 2) — when a hoist is blocked
  only by an output dependence or by the destination being live on another
  path, a renamed copy ``r' = op ...`` moves up and a ``mov dest, r'``
  stays behind.  This is precisely the mechanism the paper observed to
  *hurt* sequence detection: the producer percolates far from its consumer,
  "communicating only through the renamed register".

Legality rules (one VLIW node: reads at cycle start, writes at cycle end):

1. never move a ``call``; never move anything into a node containing one;
2. true dependence: a predecessor must not write any source of the moved op;
3. output dependence: a predecessor must not write the op's destination
   (renaming lifts this);
4. liveness: the destination must be dead on every other path out of each
   predecessor (renaming lifts this for pure, non-trapping ops);
5. no reader left behind: no instruction remaining in the source node may
   read the op's destination (they would suddenly see the new value);
6. speculation: trapping ops (loads, divides, intrinsics) and stores only
   move into predecessors whose sole successor is the source node;
7. memory order: stores never cross may-aliasing memory operations in
   either the target or the source node; loads never move into a node with
   a may-aliasing store;
8. motion follows forward edges only (strictly decreasing reverse-postorder
   index).  Cross-back-edge motion — software pipelining — is obtained by
   unrolling first (:mod:`repro.opt.looppipe`), which turns the interesting
   iteration seams into forward edges.  This also guarantees termination.

``move_cond`` (branch hoisting) is intentionally not implemented: chainable
sequences are data-operation chains, and in this framework branch order
contributes nothing to producer→consumer adjacency (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cfg.dataflow import RegisterIndex, compute_liveness
from repro.cfg.graph import Node, ProgramGraph
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.opt.alias import memory_conflict

#: Opcodes that may fault at run time and therefore must not be speculated.
TRAPPING_OPS = {Op.LOAD, Op.FLOAD, Op.DIV, Op.MOD, Op.FDIV, Op.INTRIN}

_LEGAL = "legal"
_RENAME = "rename"
_BLOCKED = "blocked"


@dataclass
class CompactionStats:
    """What one :func:`compact_graph` run did."""

    passes: int = 0
    moves: int = 0
    copies: int = 0
    renames: int = 0
    deleted_nodes: int = 0

    def merge(self, other: "CompactionStats") -> None:
        self.passes += other.passes
        self.moves += other.moves
        self.copies += other.copies
        self.renames += other.renames
        self.deleted_nodes += other.deleted_nodes


def _check_target(op: Instruction, use: int, dest: int, src_id: int,
                  target: Node, target_has_call: bool, target_defs: int,
                  live_in: Dict[int, int],
                  max_width: Optional[int]) -> str:
    """Classify hoisting *op* from node *src_id* into *target*.

    *use* / *dest* are the op's register masks, *target_defs* the mask of
    registers the target's ops write and *live_in* the pass's live-in
    masks.
    """
    if target_has_call:
        return _BLOCKED
    if max_width is not None and len(target.ops) >= max_width:
        return _BLOCKED

    succs = target.succs
    speculative = len(set(succs)) != 1 or succs[0] != src_id
    if speculative and (op.op in TRAPPING_OPS or op.is_store):
        return _BLOCKED

    if target_defs & use:
        return _BLOCKED  # true dependence
    if op.is_store or op.is_load:
        for existing in target.ops:
            if memory_conflict(op, existing):
                return _BLOCKED

    # Output dependence, or the destination is live on another path out
    # of the target: renaming can fix either.
    verdict = _RENAME if target_defs & dest else _LEGAL
    if dest:
        for succ in succs:
            if succ != src_id and live_in[succ] & dest:
                verdict = _RENAME
    if verdict is _RENAME:
        # Renaming produces a speculatively executed copy, so the op must
        # be pure and non-trapping, and it needs a destination to rename.
        if (op.dest is None or op.is_store or op.has_side_effects
                or op.op in TRAPPING_OPS):
            return _BLOCKED
    return verdict


def _movable_from_source(op: Instruction, use: int, dest: int,
                         src_node: Node, src_reads: int,
                         index: RegisterIndex) -> bool:
    """Check source-node conditions (reader-left-behind, memory order).

    *src_reads* is the mask of registers read anywhere in *src_node*.
    """
    if op.op is Op.CALL:
        return False
    if dest & src_reads:
        if not dest & use:
            return False  # someone other than op reads its destination
        masks = index.masks
        for other in src_node.ops:
            if other is not op and masks(other)[0] & dest:
                return False
        control = src_node.control
        if control is not None and masks(control)[0] & dest:
            return False
    if op.is_store:
        for other in src_node.ops:
            if other is not op and memory_conflict(op, other):
                return False
    return True


def compact_graph(graph: ProgramGraph, rename: bool = False,
                  max_width: Optional[int] = None,
                  max_passes: int = 64) -> CompactionStats:
    """Percolate operations upward until fixpoint.

    With ``rename=True`` this is the paper's optimization level 2 behaviour;
    without it, level 1.  Returns :class:`CompactionStats`.

    ``max_passes`` binds on the suite today: smooth's level-2 ``main``
    uses all 64 passes while the last one still moves ops, and compacting
    the result again makes 12 more moves over 7 passes.  Raising the cap
    changes smooth's level-2 cycle counts and the paper tables.
    """
    stats = CompactionStats()
    # Operands are never rewritten during compaction (moved copies are
    # new instructions), so one mask memo serves every pass.
    index = RegisterIndex()
    for _ in range(max_passes):
        stats.passes += 1
        made_progress = _compaction_pass(graph, index, rename, max_width,
                                         stats)
        stats.deleted_nodes += delete_empty_nodes(graph)
        if not made_progress:
            break
    return stats


def _compaction_pass(graph: ProgramGraph, index: RegisterIndex,
                     rename: bool, max_width: Optional[int],
                     stats: CompactionStats) -> bool:
    order = graph.rpo_order()
    # Later decisions of this pass read the live-in patches made below.
    live_in = compute_liveness(graph, index, order).live_in_masks
    rpo_index = {nid: i for i, nid in enumerate(order)}
    nodes = graph.nodes
    masks = index.masks
    # Calls never move, so whether a node holds one is fixed for the
    # pass; the def masks follow every op appended or removed below.
    has_call: Dict[int, bool] = {}
    defs: Dict[int, int] = {}
    for nid, node in nodes.items():
        has_call[nid] = any(ins.op is Op.CALL for ins in node.ops)
        defs[nid] = index.node_masks(node)[1]
    moved_any = False

    for nid in order:
        node = nodes[nid]
        if not node.preds:
            continue
        preds = list(dict.fromkeys(node.preds))
        if nid in preds:
            continue
        # Forward motion only (termination + no cycling around loops).
        here = rpo_index[nid]
        if any(rpo_index.get(p, -1) >= here for p in preds):
            continue
        reads = index.node_masks(node)[0]
        for op in list(node.ops):
            use, dest = masks(op)
            if not _movable_from_source(op, use, dest, node, reads, index):
                continue
            verdict = _LEGAL
            for p in preds:
                found = _check_target(op, use, dest, nid, nodes[p],
                                      has_call[p], defs[p], live_in,
                                      max_width)
                if found is not _LEGAL:
                    verdict = found
                    if found is _BLOCKED:
                        break
            if verdict is _BLOCKED or (verdict is _RENAME and not rename):
                continue

            if verdict is _RENAME:
                fresh = graph.new_temp(op.dest.is_float)
                fresh_bit = index.bit(fresh)
                for p in preds:
                    clone = op.clone()
                    clone.dest = fresh
                    nodes[p].ops.append(clone)
                    defs[p] |= fresh_bit
                mov_op = Op.FMOV if op.dest.is_float else Op.MOV
                position = node.ops.index(op)
                node.ops[position] = Instruction(
                    mov_op, dest=op.dest, srcs=(fresh,),
                    origin=op.origin, loc=op.loc)
                reads = index.node_masks(node)[0]
                live_in[nid] |= fresh_bit
                stats.renames += 1
                stats.copies += len(preds) - 1
            else:
                node.ops.remove(op)
                reads, defs[nid] = index.node_masks(node)
                first = True
                for p in preds:
                    moved = op if first else op.clone()
                    first = False
                    nodes[p].ops.append(moved)
                    defs[p] |= dest
                live_in[nid] |= dest
                stats.moves += 1
                stats.copies += len(preds) - 1
            moved_any = True
    return moved_any


def delete_empty_nodes(graph: ProgramGraph) -> int:
    """The *delete* transformation: splice out empty single-successor nodes.

    Every deleted node shortens some path by one cycle, which is where
    compaction's speedup comes from — and what brings a producer and its
    consumer into adjacent cycles.
    """
    deleted = 0
    changed = True
    while changed:
        changed = False
        for nid in list(graph.nodes):
            node = graph.nodes[nid]
            if not node.is_empty or len(node.succs) != 1:
                continue
            succ = node.succs[0]
            if succ == nid:
                continue  # empty self-loop: never deletable
            for pred in list(node.preds):
                graph.redirect_edge(pred, nid, succ)
            graph.remove_edge(nid, succ)
            if nid == graph.entry:
                graph.entry = succ
            graph.remove_node(nid)
            deleted += 1
            changed = True
    return deleted
