"""Region-boundary live-ins and last update points (LUPs).

After region formation every boundary is a block entry, so the live-in
registers of a region are the liveness live-ins of its boundary block.
The LUPs of a live-in register at a boundary are exactly the definition
sites of that register that *reach* the boundary (multiple on divergent
paths — Figure 2 of the paper), which is a reaching-definitions query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.liveness import Liveness
from repro.analysis.reachingdefs import DefSite, ReachingDefs
from repro.core.regions import RegionInfo
from repro.ir.module import Kernel
from repro.ir.types import Reg


@dataclass(frozen=True)
class LupInfo:
    """A last-update point: the def site whose value reaches boundaries."""

    site: DefSite

    @property
    def label(self) -> str:
        return self.site.label

    @property
    def index(self) -> int:
        return self.site.index

    @property
    def reg(self) -> Reg:
        return self.site.reg


@dataclass
class BoundaryInfo:
    """Live-in registers of one region boundary and their LUPs."""

    label: str
    live_ins: Set[Reg] = field(default_factory=set)
    #: reg -> the LUP def sites reaching this boundary
    lups: Dict[Reg, Set[DefSite]] = field(default_factory=dict)


@dataclass
class LiveinAnalysis:
    """Whole-kernel live-in / LUP relation.

    ``edges`` is the bipartite LUP ↔ boundary relation per register used by
    bimodal checkpoint placement: for register ``r``, an edge (lup, boundary)
    means the value defined at ``lup`` is a live-in of ``boundary``.
    """

    boundaries: Dict[str, BoundaryInfo] = field(default_factory=dict)
    edges: Dict[Reg, Set[Tuple[DefSite, str]]] = field(default_factory=dict)

    def checkpointed_registers(self) -> Set[Reg]:
        """Registers that need checkpointing somewhere (are live-in to at
        least one boundary and defined somewhere)."""
        return set(self.edges)


def analyze_liveins(
    kernel: Kernel,
    regions: RegionInfo,
    cfg: CFG = None,
    liveness: Liveness = None,
    rdefs: ReachingDefs = None,
) -> LiveinAnalysis:
    """Compute live-ins and LUPs for every region boundary."""
    cfg = cfg or CFG(kernel)
    liveness = liveness or Liveness(cfg)
    rdefs = rdefs or ReachingDefs(cfg)

    analysis = LiveinAnalysis()
    # Deterministic discovery order — boundaries in block order, registers
    # by name — so every consumer that iterates the result dicts (the
    # checkpoint planners in particular) is hash-seed invariant.
    block_order = {b.label: i for i, b in enumerate(kernel.blocks)}
    for label in sorted(
        regions.boundaries, key=lambda l: block_order.get(l, len(block_order))
    ):
        info = BoundaryInfo(label=label)
        info.live_ins = set(liveness.live_in.get(label, set()))
        for reg in sorted(info.live_ins, key=lambda r: r.name):
            sites = {
                s
                for s in rdefs.reaching_at(label, 0, reg)
                if not s.is_entry
            }
            # A use before the point of any definition is an uninitialized
            # read; entry pseudo-defs are dropped because nothing can (or
            # needs to) checkpoint them.
            if not sites:
                continue
            info.lups[reg] = sites
            for site in sites:
                analysis.edges.setdefault(reg, set()).add((site, label))
        analysis.boundaries[label] = info
    kernel.meta["livein_analysis"] = analysis
    return analysis
