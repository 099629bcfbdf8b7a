"""Recovery table: what the runtime does when parity fires.

For every region boundary the table records how to restore each live-in
register — from its checkpoint slot (with the right storage color) or by
executing a recovery slice.  Adjustment blocks (storage-alternation dummies)
get *mini-region* entries: their dummy registers are restored from the slot
holding the register's current value and only the adjustment block is
re-executed (see :mod:`repro.core.coloring` for why).

``build_recovery_table`` runs a small fixpoint: if no valid slice exists
for a (boundary, register) pair whose checkpoints were pruned, those
checkpoints are force-committed and the affected entries recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG
from repro.core.checkpoints import CheckpointPlan, PruneState
from repro.core.coloring import ColoringResult
from repro.core.errors import RecoveryMetaError
from repro.core.liveins import LiveinAnalysis
from repro.core.pddg import PddgValidator, VState
from repro.core.slices import SliceExpr
from repro.ir.types import Reg


@dataclass
class RestoreAction:
    """How to restore one register: from a slot or by running a slice."""

    reg_name: str
    dtype: str
    slot_color: Optional[int] = None  # set for slot restores
    slice_expr: Optional[SliceExpr] = None  # set for slice restores

    @property
    def is_slot(self) -> bool:
        return self.slot_color is not None


@dataclass
class RegionRecovery:
    """Recovery entry for one region: re-execute from ``entry_label`` after
    applying ``restores``."""

    entry_label: str
    restores: List[RestoreAction] = field(default_factory=list)
    #: True for adjustment-block mini-regions
    mini_region: bool = False


@dataclass
class RecoveryTable:
    """Per-boundary recovery entries, consumed by the simulator runtime."""

    regions: Dict[str, RegionRecovery] = field(default_factory=dict)
    #: number of force-committed checkpoints during table construction
    forced_commits: int = 0


def build_recovery_table(
    cfg: CFG,
    liveins: LiveinAnalysis,
    plan: CheckpointPlan,
    validator: PddgValidator,
    slices: Dict[Tuple, SliceExpr],
    coloring: Optional[ColoringResult] = None,
    extra_slices: Optional[Dict[str, SliceExpr]] = None,
    max_rounds: int = 32,
) -> RecoveryTable:
    """Build the restore plan for every boundary, force-committing pruned
    checkpoints whose values turn out not to be slice-restorable.

    ``extra_slices`` maps register names introduced by codegen (checkpoint
    base pointers) to always-valid slices added to every boundary entry.
    """
    table = RecoveryTable()

    def decision(cp):
        return cp.state

    for _ in range(max_rounds):
        changed = False
        table.regions.clear()
        for label, binfo in liveins.boundaries.items():
            entry = RegionRecovery(entry_label=label)
            for reg in sorted(binfo.live_ins, key=lambda r: r.name):
                if reg not in binfo.lups:
                    # Read-before-write on some path: nothing to restore
                    # (and nothing meaningful to restore to).
                    continue
                action = _restore_for(
                    label, reg, binfo, plan, validator, coloring, decision
                )
                if action is None:
                    # No slice available: force-commit the covering
                    # checkpoints and retry the whole table.
                    forced = _force_commit(label, reg, plan)
                    table.forced_commits += forced
                    changed = True
                    break
                entry.restores.append(action)
            if changed:
                break
            table.regions[label] = entry
        if not changed:
            break
    else:
        raise RecoveryMetaError(
            "recovery table construction did not converge"
        )

    if extra_slices:
        for entry in table.regions.values():
            for reg_name, expr in sorted(extra_slices.items()):
                entry.restores.append(
                    RestoreAction(
                        reg_name=reg_name, dtype="u32", slice_expr=expr
                    )
                )
    return table


def _covering_checkpoints(label: str, reg: Reg, plan: CheckpointPlan):
    """Checkpoints covering any (lup -> this boundary) edge of ``reg``."""
    out = []
    for cp in plan.checkpoints:
        if cp.reg != reg:
            continue
        if any(b == label for (_, b) in cp.covers):
            out.append(cp)
    return out


def _edges_of(label: str, reg: Reg, binfo) -> Set:
    return {(lup, label) for lup in binfo.lups.get(reg, set())}


def _restore_for(
    label: str,
    reg: Reg,
    binfo,
    plan: CheckpointPlan,
    validator: PddgValidator,
    coloring: Optional[ColoringResult],
    decision,
) -> Optional[RestoreAction]:
    edges = _edges_of(label, reg, binfo)
    covering = _covering_checkpoints(label, reg, plan)
    committed_edges = set()
    for cp in covering:
        if cp.state is PruneState.COMMITTED:
            committed_edges |= {e for e in cp.covers if e[1] == label}
    if edges and edges <= committed_edges:
        color = coloring.restore_color(label, reg) if coloring else 0
        return RestoreAction(
            reg_name=reg.name, dtype=reg.dtype.value, slot_color=color
        )
    marked = validator.value_at(label, 0, reg, decision)
    if marked.state is VState.VALID and marked.expr is not None:
        return RestoreAction(
            reg_name=reg.name, dtype=reg.dtype.value, slice_expr=marked.expr
        )
    return None


def _force_commit(label: str, reg: Reg, plan: CheckpointPlan) -> int:
    forced = 0
    for cp in plan.checkpoints:
        if cp.reg != reg:
            continue
        if any(b == label for (_, b) in cp.covers):
            if cp.state is not PruneState.COMMITTED:
                cp.state = PruneState.COMMITTED
                forced += 1
    if forced == 0:
        raise RecoveryMetaError(
            f"cannot restore {reg.name} at {label}: no checkpoints to commit",
            detail={"register": reg.name, "boundary": label},
        )
    # Keep the plan stats coherent.
    plan.stats["pruned"] = len(plan.pruned())
    plan.stats["committed"] = len(plan.committed())
    return forced


def adjustment_recoveries(
    coloring: Optional[ColoringResult],
    adjustment_labels: Dict[Tuple[str, str], str],
) -> Dict[str, RegionRecovery]:
    """Mini-region recovery entries for adjustment blocks.

    ``adjustment_labels`` maps each (pred, succ) edge to the label codegen
    gave its adjustment block."""
    out: Dict[str, RegionRecovery] = {}
    if coloring is None:
        return out
    for adj in coloring.adjustments:
        label = adjustment_labels[(adj.pred, adj.succ)]
        entry = out.setdefault(
            label, RegionRecovery(entry_label=label, mini_region=True)
        )
        entry.restores.append(
            RestoreAction(
                reg_name=adj.reg.name,
                dtype=adj.reg.dtype.value,
                slot_color=adj.restore_color,
            )
        )
    return out
