"""Backward liveness analysis with per-instruction-point queries.

Penny needs liveness at two granularities: live-in registers of each region
boundary (boundaries are normalized to block entries) and last-update-point
discovery, which walks definitions against per-point live sets.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import Analysis, Direction, Solver
from repro.ir.types import Reg


class _LiveRegs(Analysis):
    """Live registers before each instruction.  A guarded def may not
    execute, so the old value can flow through it: it kills nothing."""

    direction = Direction.BACKWARD

    def meet(self, a, b):
        return a | b

    def transfer(self, label, index, inst, value):
        if inst.guard is None and inst.defs():
            value = value.difference(inst.defs())
        uses = inst.reg_uses()
        return value.union(uses) if uses else value


class Liveness:
    """Register liveness per block entry/exit and per instruction point."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self._solver = Solver(cfg, _LiveRegs())
        self.live_in: Dict[str, FrozenSet[Reg]] = self._solver.block_in
        self.live_out: Dict[str, FrozenSet[Reg]] = self._solver.block_out

    def live_points(self, label: str) -> List[FrozenSet[Reg]]:
        """``points[i]`` = registers live immediately *before* instruction
        ``i`` of the block; ``points[len]`` = live at block exit."""
        return self._solver.points(label)

    def live_before(self, label: str, index: int) -> FrozenSet[Reg]:
        return self._solver.before(label, index)

    def live_after(self, label: str, index: int) -> FrozenSet[Reg]:
        return self._solver.after(label, index)
