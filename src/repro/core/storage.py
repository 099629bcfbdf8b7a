"""Automatic checkpoint storage assignment (§6.5).

Committed checkpoints live in shared or global memory (both ECC-protected
on GPUs).  Shared memory is fast but scarce: over-allocating it reduces the
number of resident thread blocks (occupancy) and can cost more than it
saves.  Penny therefore:

1. computes how much shared memory the kernel can consume *without*
   reducing its occupancy,
2. scores each checkpointed register by the total cost-model weight of its
   committed checkpoints (deep-loop checkpoints dominate), and
3. packs the highest-scoring registers into the occupancy-preserving shared
   budget, sending the rest to global memory.

Each register with committed checkpoints owns one slot per storage color
(two if storage alternation applies).  Layouts are coalesced: consecutive
threads hit consecutive 4-byte words.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import CFG
from repro.core.checkpoints import CheckpointPlan
from repro.core.coloring import ColoringResult
from repro.core.costmodel import CostModel
from repro.core.errors import ConfigError, StorageError
from repro.ir.types import Reg


class StorageKind(enum.Enum):
    SHARED = "shared"
    GLOBAL = "global"


@dataclass
class StorageBudget:
    """The per-SM resource limits the assignment reasons about (defaults are
    Fermi-class, matching the paper's Tesla C2050 target)."""

    shared_per_sm: int = 48 * 1024
    max_blocks_per_sm: int = 8
    max_threads_per_sm: int = 1536
    threads_per_block: int = 256
    kernel_shared_bytes: int = 0

    def occupancy_blocks(self, extra_shared_per_block: int = 0) -> int:
        """Resident blocks per SM given extra shared usage per block."""
        by_threads = self.max_threads_per_sm // max(1, self.threads_per_block)
        per_block = self.kernel_shared_bytes + extra_shared_per_block
        by_shared = (
            self.shared_per_sm // per_block if per_block > 0 else self.max_blocks_per_sm
        )
        return max(0, min(self.max_blocks_per_sm, by_threads, by_shared))

    def occupancy_preserving_shared(self) -> int:
        """Largest extra shared bytes per block that keeps occupancy at its
        current level."""
        current = self.occupancy_blocks(0)
        if current == 0:
            return 0
        lo, hi = 0, self.shared_per_sm
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.occupancy_blocks(mid) >= current:
                lo = mid
            else:
                hi = mid - 1
        return lo


@dataclass
class SlotAssignment:
    """One checkpoint slot: register + color mapped to a storage location.

    ``index`` is the slot number within its storage kind; codegen turns it
    into a byte offset using the coalesced layout."""

    reg_name: str
    color: int
    kind: StorageKind
    index: int


@dataclass
class StorageAssignment:
    """All slot placements for one kernel."""

    slots: Dict[Tuple[str, int], SlotAssignment] = field(default_factory=dict)
    shared_slots: int = 0
    global_slots: int = 0
    threads_per_block: int = 256
    total_threads: int = 256

    def slot(self, reg_name: str, color: int) -> SlotAssignment:
        return self.slots[(reg_name, color)]

    @property
    def shared_bytes_per_block(self) -> int:
        return self.shared_slots * self.threads_per_block * 4


def _slot_colors(
    reg: Reg, coloring: Optional[ColoringResult]
) -> List[int]:
    if coloring is not None and reg in coloring.colored_registers:
        return [0, 1]
    return [0]


def assign_storage(
    plan: CheckpointPlan,
    cfg: CFG,
    cost: CostModel,
    budget: StorageBudget,
    coloring: Optional[ColoringResult] = None,
    mode: str = "auto",
    total_threads: Optional[int] = None,
) -> StorageAssignment:
    """Assign every committed checkpoint's slots to shared/global memory.

    ``mode``: ``"auto"`` (occupancy-aware split, the paper's default),
    ``"shared"`` (everything in shared) or ``"global"`` (everything in
    global — the Bolt/Global configuration).
    """
    if mode not in ("auto", "shared", "global"):
        raise ConfigError(f"unknown storage mode {mode!r}", pass_name="storage")

    regs: Dict[Reg, int] = {}
    for cp in plan.committed():
        score = 0
        for label in cp.insertion_blocks(cfg):
            score += cost.block_cost(label)
        regs[cp.reg] = regs.get(cp.reg, 0) + score
    # Registers with dummy checkpoints but no committed plan checkpoints
    # still need their two slots.
    if coloring is not None:
        for adj in coloring.adjustments:
            regs.setdefault(adj.reg, 0)

    assignment = StorageAssignment(
        threads_per_block=budget.threads_per_block,
        total_threads=total_threads or budget.threads_per_block,
    )

    ordered = sorted(regs.items(), key=lambda kv: (-kv[1], kv[0].name))
    bytes_per_slot = budget.threads_per_block * 4
    shared_budget = (
        budget.occupancy_preserving_shared() if mode == "auto" else 0
    )

    for reg, _score in ordered:
        colors = _slot_colors(reg, coloring)
        want_shared = mode == "shared" or (
            mode == "auto"
            and (assignment.shared_slots + len(colors)) * bytes_per_slot
            <= shared_budget
        )
        for color in colors:
            if want_shared:
                slot = SlotAssignment(
                    reg.name, color, StorageKind.SHARED, assignment.shared_slots
                )
                assignment.shared_slots += 1
            else:
                slot = SlotAssignment(
                    reg.name, color, StorageKind.GLOBAL, assignment.global_slots
                )
                assignment.global_slots += 1
            assignment.slots[(reg.name, color)] = slot

    # Forced-shared layouts can exceed physical shared memory outright
    # (occupancy aside, the kernel would not even launch) — that is a
    # compile failure the fallback lattice degrades to global storage on.
    total_shared = (
        budget.kernel_shared_bytes + assignment.shared_bytes_per_block
    )
    if assignment.shared_slots and total_shared > budget.shared_per_sm:
        raise StorageError(
            f"checkpoint storage needs {total_shared} shared bytes per "
            f"block but the SM has {budget.shared_per_sm}",
            detail={
                "mode": mode,
                "shared_slots": assignment.shared_slots,
                "kernel_shared_bytes": budget.kernel_shared_bytes,
            },
        )
    return assignment
