"""Checkpoint materialization and lowering (§6.6).

Code generation takes the pruned checkpoint plan plus the coloring and
storage decisions and rewrites the kernel:

1. adjustment blocks (with dummy checkpoints) are spliced onto their edges,
2. committed checkpoints become ``cp`` pseudo-instructions at their
   planned positions (after the LUP, or at the bottom of each boundary
   predecessor),
3. every ``cp`` is lowered to a real store with its address computation.

The low-level optimizations of §6.6 are modelled structurally: with
``low_opts`` enabled, the per-thread checkpoint base addresses are computed
once in the kernel preamble (LICM + CSE of the address arithmetic across
all checkpoints) and each checkpoint is a single store off that base;
without it, every checkpoint recomputes its effective address inline.

The preamble base registers become live across the whole kernel, so the
recovery table receives always-valid slices for them (they are recomputed
from special registers and buffer bases — never restored from slots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG
from repro.core.checkpoints import (
    CheckpointKind,
    CheckpointPlan,
    PlannedCheckpoint,
    PruneState,
)
from repro.core.coloring import ColoringResult
from repro.core.errors import CodegenError
from repro.core.slices import SImm, SOp, SSpecial, SSymRef, SliceExpr
from repro.core.storage import StorageAssignment, StorageKind
from repro.ir.instructions import (
    Alu,
    Bra,
    Checkpoint,
    Instruction,
    St,
)
from repro.ir.module import BasicBlock, Kernel, SharedDecl
from repro.ir.types import DType, Imm, MemSpace, Reg, Special, SymRef

#: Reserved buffer symbols for checkpoint storage.
SHARED_CKPT_SYMBOL = "__ckpt_shared"
GLOBAL_CKPT_SYMBOL = "__ckpt_global"


@dataclass
class CodegenResult:
    """Bookkeeping produced while rewriting the kernel."""

    #: label of the adjustment block created for each (pred, succ) edge
    adjustment_labels: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: codegen-introduced registers restored by slices at every boundary
    extra_slices: Dict[str, SliceExpr] = field(default_factory=dict)
    #: number of cp stores emitted (committed + dummies)
    emitted_checkpoints: int = 0
    #: extra non-store instructions emitted for address computation
    emitted_address_insts: int = 0


def generate(
    kernel: Kernel,
    cfg: CFG,
    plan: CheckpointPlan,
    storage: StorageAssignment,
    coloring: Optional[ColoringResult] = None,
    low_opts: bool = True,
) -> CodegenResult:
    """Materialize and lower all checkpoints; mutates the kernel."""
    result = CodegenResult()

    _insert_adjustment_blocks(kernel, cfg, coloring, result)
    _insert_checkpoints(kernel, cfg, plan, coloring)
    _declare_storage(kernel, storage)
    lowering = _CheckpointLowering(kernel, storage, low_opts, result)
    lowering.run()
    kernel.validate()
    return result


# -- adjustment blocks ------------------------------------------------------------


def _insert_adjustment_blocks(
    kernel: Kernel,
    cfg: CFG,
    coloring: Optional[ColoringResult],
    result: CodegenResult,
) -> None:
    if coloring is None or not coloring.adjustments:
        return
    by_edge: Dict[Tuple[str, str], List] = {}
    for adj in coloring.adjustments:
        by_edge.setdefault((adj.pred, adj.succ), []).append(adj)

    for (pred_label, succ_label), adjs in sorted(by_edge.items()):
        label = kernel.fresh_label(prefix=f"ADJ_{pred_label}")
        block = BasicBlock(label)
        for adj in sorted(adjs, key=lambda a: a.reg.name):
            block.instructions.append(
                Checkpoint(adj.reg, color=adj.color, dummy=True)
            )
        block.instructions.append(Bra(succ_label))

        pred = kernel.block(pred_label)
        rewired = False
        for inst in pred.instructions:
            if isinstance(inst, Bra) and inst.target == succ_label:
                inst.target = label
                rewired = True
        pred_idx = kernel.block_index(pred_label)
        falls_to_succ = (
            pred.falls_through
            and pred_idx + 1 < len(kernel.blocks)
            and kernel.blocks[pred_idx + 1].label == succ_label
        )
        if falls_to_succ:
            kernel.blocks.insert(pred_idx + 1, block)
        elif rewired:
            kernel.blocks.append(block)
        else:
            raise CodegenError(
                f"no edge {pred_label} -> {succ_label} to adjust",
                detail={"pred": pred_label, "succ": succ_label},
            )
        result.adjustment_labels[(pred_label, succ_label)] = label

    kernel.meta["adjustment_blocks"] = set(
        result.adjustment_labels.values()
    )


# -- checkpoint pseudo-instruction insertion ------------------------------------------


def _insert_checkpoints(
    kernel: Kernel,
    cfg: CFG,
    plan: CheckpointPlan,
    coloring: Optional[ColoringResult],
) -> None:
    def color_of(cp: PlannedCheckpoint, block: str) -> int:
        if coloring is None:
            return 0
        return coloring.color_of(cp.key, block)

    # LUP checkpoints: gather per block, insert bottom-up so indices hold.
    lup_by_block: Dict[str, List[PlannedCheckpoint]] = {}
    for cp in plan.committed():
        if cp.kind is CheckpointKind.LUP:
            lup_by_block.setdefault(cp.site.label, []).append(cp)
    for label, cps in lup_by_block.items():
        blk = kernel.block(label)
        for cp in sorted(cps, key=lambda c: -c.site.index):
            blk.instructions.insert(
                cp.site.index + 1,
                Checkpoint(cp.reg, color=color_of(cp, label)),
            )

    # Boundary checkpoints: append at the bottom of each predecessor, before
    # any trailing branch.  Predecessors are taken from the CFG snapshot
    # that existed when the plan was made; adjustment blocks spliced onto
    # edges do not disturb these positions (they only contain dummies).
    for cp in plan.committed():
        if cp.kind is not CheckpointKind.BOUNDARY:
            continue
        for pred_label in cfg.predecessors(cp.boundary):
            blk = kernel.block(pred_label)
            insert_at = len(blk.instructions)
            if blk.instructions and isinstance(blk.instructions[-1], Bra):
                insert_at -= 1
            blk.instructions.insert(
                insert_at,
                Checkpoint(cp.reg, color=color_of(cp, pred_label)),
            )


# -- storage declaration ----------------------------------------------------------------


def _declare_storage(kernel: Kernel, storage: StorageAssignment) -> None:
    if storage.shared_slots:
        kernel.shared.append(
            SharedDecl(
                SHARED_CKPT_SYMBOL,
                storage.shared_slots * storage.threads_per_block,
            )
        )
    kernel.meta["ckpt_global_words"] = (
        storage.global_slots * storage.total_threads
    )
    kernel.meta["storage_assignment"] = storage


# -- checkpoint lowering ------------------------------------------------------------------


class _CheckpointLowering:
    """Rewrites ``cp`` pseudo-instructions into stores."""

    def __init__(
        self,
        kernel: Kernel,
        storage: StorageAssignment,
        low_opts: bool,
        result: CodegenResult,
    ):
        self.kernel = kernel
        self.storage = storage
        self.low_opts = low_opts
        self.result = result
        self.base_shared: Optional[Reg] = None
        self.base_global: Optional[Reg] = None
        #: register names in use, scanned at the first address temporary:
        #: the kernel gains no other names while it is lowered
        self.names: Optional[Set[str]] = None

    def run(self) -> None:
        if self.low_opts and self.storage.slots:
            self._emit_preamble()
        for blk in self.kernel.blocks:
            new: List[Instruction] = []
            for inst in blk.instructions:
                if isinstance(inst, Checkpoint):
                    new.extend(self._lower(inst))
                else:
                    new.append(inst)
            blk.instructions = new

    def _emit_preamble(self) -> None:
        """Hoisted per-thread checkpoint base addresses (LICM + CSE)."""
        insts: List[Instruction] = []
        needs_shared = self.storage.shared_slots > 0
        needs_global = self.storage.global_slots > 0
        if needs_shared:
            self.base_shared = Reg("%ckb_s", DType.U32)
            insts.extend(
                [
                    Alu("mov", DType.U32, self.base_shared, [SymRef(SHARED_CKPT_SYMBOL)]),
                    Alu(
                        "mad",
                        DType.U32,
                        self.base_shared,
                        [Special("%tid.x"), Imm(4), self.base_shared],
                    ),
                ]
            )
            self.result.extra_slices["%ckb_s"] = SOp(
                "mad",
                DType.U32,
                (
                    SSpecial("%tid.x"),
                    SImm(4),
                    SSymRef(SHARED_CKPT_SYMBOL),
                ),
            )
        if needs_global:
            self.base_global = Reg("%ckb_g", DType.U32)
            gtid = Reg("%ckb_t", DType.U32)
            insts.extend(
                [
                    Alu("mov", DType.U32, gtid, [Special("%ctaid.x")]),
                    Alu(
                        "mad",
                        DType.U32,
                        gtid,
                        [gtid, Special("%ntid.x"), Special("%tid.x")],
                    ),
                    Alu("mov", DType.U32, self.base_global, [SymRef(GLOBAL_CKPT_SYMBOL)]),
                    Alu(
                        "mad",
                        DType.U32,
                        self.base_global,
                        [gtid, Imm(4), self.base_global],
                    ),
                ]
            )
            gtid_expr = SOp(
                "mad",
                DType.U32,
                (SSpecial("%ctaid.x"), SSpecial("%ntid.x"), SSpecial("%tid.x")),
            )
            self.result.extra_slices["%ckb_g"] = SOp(
                "mad",
                DType.U32,
                (gtid_expr, SImm(4), SSymRef(GLOBAL_CKPT_SYMBOL)),
            )
            self.result.extra_slices["%ckb_t"] = gtid_expr
        self.result.emitted_address_insts += len(insts)
        entry = self.kernel.entry
        entry.instructions[0:0] = insts

    def _address_reg(self) -> Reg:
        if self.names is None:
            self.names = {r.name for r in self.kernel.all_registers()}
        return self.kernel.fresh_reg(DType.U32, prefix="%ca", in_use=self.names)

    def _slot_offset(self, kind: StorageKind, index: int) -> int:
        if kind is StorageKind.SHARED:
            return index * self.storage.threads_per_block * 4
        return index * self.storage.total_threads * 4

    def _lower(self, cp: Checkpoint) -> List[Instruction]:
        slot = self.storage.slots.get((cp.reg.name, cp.color))
        if slot is None:
            raise KeyError(
                f"no storage slot for checkpoint of {cp.reg.name} "
                f"color {cp.color}"
            )
        space = (
            MemSpace.SHARED
            if slot.kind is StorageKind.SHARED
            else MemSpace.GLOBAL
        )
        offset = self._slot_offset(slot.kind, slot.index)
        self.result.emitted_checkpoints += 1

        if self.low_opts:
            base = (
                self.base_shared
                if slot.kind is StorageKind.SHARED
                else self.base_global
            )
            assert base is not None
            return [St(space, DType.U32, base, cp.reg, offset)]

        # Unoptimized: recompute the effective address inline.
        insts: List[Instruction] = []
        t0 = self._address_reg()
        if slot.kind is StorageKind.SHARED:
            insts.append(
                Alu("mov", DType.U32, t0, [SymRef(SHARED_CKPT_SYMBOL)])
            )
            insts.append(
                Alu("mad", DType.U32, t0, [Special("%tid.x"), Imm(4), t0])
            )
        else:
            t1 = self._address_reg()
            insts.append(Alu("mov", DType.U32, t1, [Special("%ctaid.x")]))
            insts.append(
                Alu(
                    "mad",
                    DType.U32,
                    t1,
                    [t1, Special("%ntid.x"), Special("%tid.x")],
                )
            )
            insts.append(
                Alu("mov", DType.U32, t0, [SymRef(GLOBAL_CKPT_SYMBOL)])
            )
            insts.append(Alu("mad", DType.U32, t0, [t1, Imm(4), t0]))
        self.result.emitted_address_insts += len(insts)
        insts.append(St(space, DType.U32, t0, cp.reg, offset))
        return insts
