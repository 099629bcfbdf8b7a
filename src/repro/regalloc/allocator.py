"""Linear-scan register allocation over the PTX-subset IR.

Live intervals are computed from block-boundary liveness, so registers live
across loop back edges get intervals covering the whole loop — the standard
sound over-approximation for non-SSA linear scan.

Spilling inserts ``ld.local`` / ``st.local`` around each use/def of the
spilled register (GPU "local" memory is per-thread, exactly how NVCC spills).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.liveness import Liveness
from repro.ir.instructions import Instruction, Ld, St
from repro.ir.module import Kernel
from repro.ir.types import DType, MemSpace, Reg


@dataclass
class Interval:
    reg: Reg
    start: int
    end: int

    def overlaps(self, other: "Interval") -> bool:
        return self.start <= other.end and other.start <= self.end


@dataclass
class AllocationResult:
    """Outcome of allocation.

    ``mapping`` maps original register names to physical names; ``num_regs``
    is the number of physical registers used (the occupancy input);
    ``spilled`` lists registers that did not fit in the budget;
    ``local_bytes`` is the per-thread local-memory spill footprint.
    """

    mapping: Dict[str, str]
    num_regs: int
    spilled: List[str] = field(default_factory=list)
    local_bytes: int = 0


def _live_intervals(kernel: Kernel) -> Tuple[List[Interval], Dict[str, int]]:
    """Compute a sound interval per register over a linearized layout."""
    cfg = CFG(kernel)
    liveness = Liveness(cfg)

    position: Dict[Tuple[str, int], int] = {}
    block_span: Dict[str, Tuple[int, int]] = {}
    pos = 0
    for blk in kernel.blocks:
        start = pos
        for i, _ in enumerate(blk.instructions):
            position[(blk.label, i)] = pos
            pos += 1
        block_span[blk.label] = (start, max(start, pos - 1))

    starts: Dict[Reg, int] = {}
    ends: Dict[Reg, int] = {}

    def touch(reg: Reg, p: int) -> None:
        starts[reg] = min(starts.get(reg, p), p)
        ends[reg] = max(ends.get(reg, p), p)

    for blk in kernel.blocks:
        span_start, span_end = block_span[blk.label]
        for reg in liveness.live_in[blk.label]:
            touch(reg, span_start)
        for reg in liveness.live_out[blk.label]:
            touch(reg, span_end)
        for i, inst in enumerate(blk.instructions):
            p = position[(blk.label, i)]
            for reg in inst.defs():
                touch(reg, p)
            for reg in inst.reg_uses():
                touch(reg, p)

    intervals = [
        Interval(reg, starts[reg], ends[reg]) for reg in starts
    ]
    # Ties are broken by name: first-touch order follows the iteration
    # order of the liveness sets, which depends on the hash seed.
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.reg.name))
    return intervals, dict(
        (label, block_span[label][0]) for label in block_span
    )


def allocate(
    kernel: Kernel,
    budget: int = 63,
    rewrite: bool = True,
    phys_prefix: str = "%r",
) -> AllocationResult:
    """Linear-scan allocate ``kernel``'s registers into ``budget`` physical
    registers, spilling the rest to local memory.

    With ``rewrite=True`` the kernel is renamed in place to physical names
    and spill code is inserted.  With ``rewrite=False`` only the accounting
    is produced (used to evaluate the register demand of a transformed
    kernel without touching it).
    """
    if budget < 2:
        raise ValueError("budget must leave room for spill temporaries")
    intervals, _ = _live_intervals(kernel)

    mapping: Dict[str, str] = {}
    spilled: List[str] = []
    active: List[Tuple[int, int]] = []  # (end, phys index), sorted by end
    used_phys: Set[int] = set()
    by_reg: Dict[str, Interval] = {iv.reg.name: iv for iv in intervals}

    for iv in intervals:
        # Expire intervals that ended before this one starts.
        active = [a for a in active if a[0] >= iv.start]
        in_use = {idx for _, idx in active}
        # The smallest free index: in start order this keeps the indices
        # in use below the interval graph's clique number.
        phys = next((i for i in range(budget) if i not in in_use), None)
        if phys is not None:
            mapping[iv.reg.name] = f"{phys_prefix}{phys}"
            used_phys.add(phys)
            active.append((iv.end, phys))
            active.sort()
        else:
            # Spill the active interval with the furthest end if it is
            # further than ours; otherwise spill the new interval.
            furthest = max(active, key=lambda a: a[0])
            if furthest[0] > iv.end:
                victim_phys = furthest[1]
                victim_name = None
                for name, assigned in mapping.items():
                    if (
                        assigned == f"{phys_prefix}{victim_phys}"
                        and by_reg[name].overlaps(iv)
                        and by_reg[name].end == furthest[0]
                    ):
                        victim_name = name
                        break
                if victim_name is None:
                    spilled.append(iv.reg.name)
                    continue
                spilled.append(victim_name)
                del mapping[victim_name]
                active.remove(furthest)
                mapping[iv.reg.name] = f"{phys_prefix}{victim_phys}"
                active.append((iv.end, victim_phys))
                active.sort()
            else:
                spilled.append(iv.reg.name)

    result = AllocationResult(
        mapping=mapping,
        num_regs=len(used_phys),
        spilled=spilled,
        local_bytes=4 * len(spilled),
    )
    if rewrite:
        _rewrite(kernel, result)
    return result


def _rewrite(kernel: Kernel, result: AllocationResult) -> None:
    """Apply the allocation: rename registers, insert spill code."""
    slot_of: Dict[str, int] = {
        name: 4 * i for i, name in enumerate(result.spilled)
    }
    reg_objects: Dict[str, Reg] = {
        r.name: r for r in kernel.all_registers()
    }
    rename: Dict[Reg, Reg] = {
        reg_objects[name]: Reg(phys, reg_objects[name].dtype)
        for name, phys in result.mapping.items()
        if name in reg_objects
    }

    # Spill temporaries share two reserved physical names.
    spill_tmp = Reg(f"%spill0", DType.U32)
    for blk in kernel.blocks:
        new_insts: List[Instruction] = []
        for inst in blk.instructions:
            pre: List[Instruction] = []
            post: List[Instruction] = []
            use_map: Dict[Reg, Reg] = {}
            def_map: Dict[Reg, Reg] = {}
            for reg in inst.reg_uses():
                if reg.name in slot_of:
                    tmp = Reg(f"%spill_u_{reg.name.lstrip('%')}", reg.dtype)
                    pre.append(
                        Ld(MemSpace.LOCAL, DType.U32, tmp, spill_tmp_base(),
                           slot_of[reg.name])
                    )
                    use_map[reg] = tmp
            for reg in inst.defs():
                if reg.name in slot_of:
                    tmp = Reg(f"%spill_d_{reg.name.lstrip('%')}", reg.dtype)
                    post.append(
                        St(MemSpace.LOCAL, DType.U32, spill_tmp_base(), tmp,
                           slot_of[reg.name])
                    )
                    def_map[reg] = tmp
            if use_map:
                inst.replace_uses(use_map)
            if def_map:
                inst.replace_defs(def_map)
            inst.replace_uses(rename)
            inst.replace_defs(rename)
            new_insts.extend(pre)
            new_insts.append(inst)
            new_insts.extend(post)
        blk.instructions = new_insts
    _ = spill_tmp  # reserved name documented above


def spill_tmp_base() -> "Imm":
    """Base address of the per-thread local spill area (address 0 of the
    thread-private local space)."""
    from repro.ir.types import Imm

    return Imm(0, DType.U32)


def count_registers(kernel: Kernel, budget: int = 256) -> int:
    """Physical register demand of a kernel (no rewriting, generous budget
    so nothing spills — mirrors how occupancy tables consume 'registers
    per thread')."""
    return allocate(kernel, budget=budget, rewrite=False).num_regs
