"""Register-vulnerability and address-criticality analyses.

Both stand on the dataflow engine in :mod:`repro.analysis.dataflow` and
drive the selective-protection policies in :mod:`repro.policy`:

- :class:`AddressCriticality` (PRESAGE-style) is a backward may-analysis
  of the full chains feeding memory address operands, branch predicates
  and barrier conditions.  A fault on any register *outside* the
  criticality set can corrupt stored data but never where it is stored,
  which control path executes, or whether threads synchronize — the
  structural-correctness guarantee address-generation-only protection
  buys.
- :func:`register_vulnerability` is an ACE-style exposure model: a
  register accrues vulnerability for every instruction it sits live
  (and unconsumed) across, weighted by the instruction's issue/latency
  class from the :class:`repro.gpusim.config.GpuConfig` timing model and
  by loop depth.  It reads the per-point sets of
  :class:`repro.analysis.liveness.Liveness`.  The ranking feeds
  ``top-k-vulnerable`` policies.

Results are keyed by register name and deterministic (sorted tie-breaks
everywhere), so policies derived from them are hash-seed invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import Analysis, Direction, Solver, Value
from repro.analysis.liveness import Liveness
from repro.analysis.loops import LoopInfo
from repro.ir.instructions import Atom, Ld, St
from repro.ir.types import Reg


class AddressCriticality(Analysis):
    """Backward may-analysis: registers whose value can reach a memory
    address operand, a guard predicate, or a barrier/branch condition.

    Seeds: the base register of every ``Ld``/``St``/``Atom`` and the
    predicate of every guarded instruction (guards subsume branch
    predicates and predicated barriers).  Propagation: when an
    instruction defines a critical register, all its register operands
    become critical — except through ``Ld``/``Atom``, whose result comes
    from memory (the address feeding it is already seeded; chains through
    memory are out of scope, as in PRESAGE).
    """

    direction = Direction.BACKWARD

    def meet(self, a: Value, b: Value) -> Value:
        return a | b

    def transfer(self, label, index, inst, value: Value) -> Value:
        defs = frozenset(r.name for r in inst.defs())
        feeds = bool(defs & value)
        if feeds and inst.guard is None:
            value = value - defs
        seeds = set()
        if isinstance(inst, (Ld, St, Atom)) and isinstance(inst.base, Reg):
            seeds.add(inst.base.name)
        if inst.guard is not None:
            seeds.add(inst.guard[0].name)
        if feeds and not isinstance(inst, (Ld, Atom)):
            seeds.update(r.name for r in inst.reg_uses())
        if seeds:
            value = value | frozenset(seeds)
        return value


def solve_address_criticality(cfg: CFG) -> Solver:
    return Solver(cfg, AddressCriticality())


def address_critical_registers(cfg: CFG) -> FrozenSet[str]:
    """All registers critical at *any* program point.

    Every instruction point counts: a register defined and consumed as an
    address within one block is critical between those points but
    appears in no block-boundary value.
    """
    solver = solve_address_criticality(cfg)
    return frozenset().union(
        *(value for blk in cfg.blocks for value in solver.points(blk.label))
    )


@dataclass
class VulnerabilityReport:
    """Per-register exposure scores with deterministic ranking."""

    scores: Dict[str, float]

    def ranked(self) -> List[Tuple[str, float]]:
        """Highest exposure first; name-sorted among ties."""
        return sorted(self.scores.items(), key=lambda kv: (-kv[1], kv[0]))

    def top_k(self, k: int) -> FrozenSet[str]:
        if k <= 0:
            return frozenset()
        return frozenset(name for name, _ in self.ranked()[:k])

    def top_fraction(self, fraction: float) -> FrozenSet[str]:
        n = len(self.scores)
        if n == 0 or fraction <= 0:
            return frozenset()
        return self.top_k(int(math.ceil(n * min(fraction, 1.0))))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "vulnerability_report",
            "registers": len(self.scores),
            "scores": {k: self.scores[k] for k in sorted(self.scores)},
            "ranked": [name for name, _ in self.ranked()],
        }


def _class_weights(gpu) -> Dict[str, float]:
    """Exposure weight per instruction class: roughly the cycles the
    machine spends at that instruction (issue cost, or the latency the
    pipeline is exposed waiting on memory/barriers)."""
    from repro.gpusim.executor import (
        CLASS_ALU,
        CLASS_ATOM,
        CLASS_BAR,
        CLASS_LD_GLOBAL,
        CLASS_LD_OTHER,
        CLASS_LD_SHARED,
        CLASS_SFU,
        CLASS_ST_GLOBAL,
        CLASS_ST_OTHER,
        CLASS_ST_SHARED,
    )

    return {
        CLASS_ALU: float(gpu.issue_alu),
        CLASS_SFU: float(gpu.issue_sfu),
        CLASS_LD_GLOBAL: float(gpu.lat_global),
        CLASS_LD_SHARED: float(gpu.lat_shared),
        CLASS_LD_OTHER: float(gpu.lat_const),
        CLASS_ST_GLOBAL: float(gpu.issue_mem + gpu.lsu_global),
        CLASS_ST_SHARED: float(gpu.issue_mem + gpu.lsu_shared),
        CLASS_ST_OTHER: float(gpu.issue_mem),
        CLASS_BAR: float(gpu.lat_barrier),
        CLASS_ATOM: float(gpu.lat_global),
    }


def register_vulnerability(
    cfg: CFG, gpu=None, loop_base: int = 8
) -> VulnerabilityReport:
    """ACE-style exposure: for every instruction, every register live
    *across* it accrues the instruction's class weight times
    ``loop_base ** loop_depth`` (the same static trip-count heuristic the
    checkpoint cost model uses — pass ``PennyConfig.cost_base`` for
    consistency with placement decisions)."""
    from repro.gpusim.executor import _classify

    if gpu is None:
        from repro.gpusim.config import FERMI_C2050

        gpu = FERMI_C2050
    liveness = Liveness(cfg)
    loops = LoopInfo(cfg)
    weights = _class_weights(gpu)
    scores: Dict[str, float] = {}
    for blk in cfg.blocks:
        depth_w = float(loop_base) ** loops.depth_of(blk.label)
        insts = blk.instructions
        points = liveness.live_points(blk.label)
        for i in range(len(insts) - 1, -1, -1):
            w = weights[_classify(insts[i])] * depth_w
            for reg in points[i + 1]:  # live across instruction i
                scores[reg.name] = scores.get(reg.name, 0.0) + w
    return VulnerabilityReport(scores=scores)


__all__ = [
    "AddressCriticality",
    "VulnerabilityReport",
    "address_critical_registers",
    "register_vulnerability",
    "solve_address_criticality",
]
