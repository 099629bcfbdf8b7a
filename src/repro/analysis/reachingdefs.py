"""Reaching definitions and def-use chains.

Penny's PDDG (predicate/data dependence graph, §6.4) is built from def-use
chains: the definitions of a register that reach each of its uses.  Because
the IR is not SSA, a use may be reached by several definitions (one per
control path) — that is exactly when Penny adds *predicate dependences*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import Analysis, Direction, Solver
from repro.ir.types import Reg


@dataclass(frozen=True)
class DefSite:
    """A definition site: instruction ``index`` in block ``label`` defining
    ``reg``.  ``ENTRY_INDEX`` marks the synthetic definition at kernel entry
    for registers used before any real definition (uninitialized reads)."""

    label: str
    index: int
    reg: Reg

    ENTRY_INDEX = -1

    @property
    def is_entry(self) -> bool:
        return self.index == DefSite.ENTRY_INDEX


class _ReachingSites(Analysis):
    """Definition sites reaching each point.  An unguarded def kills every
    site of its register; a guarded one may not execute, so it only adds
    its own."""

    direction = Direction.FORWARD

    def __init__(
        self,
        defined: Dict[str, List[FrozenSet[DefSite]]],
        sites_of: Dict[Reg, FrozenSet[DefSite]],
    ):
        self._defined = defined
        self._sites_of = sites_of

    def meet(self, a, b):
        return a | b

    def transfer(self, label, index, inst, value):
        sites = self._defined[label][index]
        if not sites:
            return value
        if inst.guard is None:
            for site in sites:
                value = value - self._sites_of[site.reg]
        return value | sites


class ReachingDefs:
    """Forward may-analysis of definition sites."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg

        # Collect all def sites per register and per instruction.
        self.defs_of: Dict[Reg, List[DefSite]] = {}
        defined: Dict[str, List[FrozenSet[DefSite]]] = {}
        for blk in cfg.blocks:
            row = defined[blk.label] = []
            for i, inst in enumerate(blk.instructions):
                sites = [DefSite(blk.label, i, r) for r in inst.defs()]
                for site in sites:
                    self.defs_of.setdefault(site.reg, []).append(site)
                row.append(frozenset(sites))
        self._sites_of: Dict[Reg, FrozenSet[DefSite]] = {
            reg: frozenset(sites) for reg, sites in self.defs_of.items()
        }
        self._solver = Solver(cfg, _ReachingSites(defined, self._sites_of))

        # Entry pseudo-defs for registers ever used; filtered during queries.
        self._entry_sites: Dict[Reg, DefSite] = {}

    def entry_site(self, reg: Reg) -> DefSite:
        if reg not in self._entry_sites:
            self._entry_sites[reg] = DefSite(
                self.cfg.entry, DefSite.ENTRY_INDEX, reg
            )
        return self._entry_sites[reg]

    def reaching_at(self, label: str, index: int, reg: Reg) -> FrozenSet[DefSite]:
        """Definitions of ``reg`` reaching the point just before instruction
        ``index`` of block ``label``.  An empty result means the register is
        read uninitialized on every path; a result containing an entry site
        means it *may* be read uninitialized."""
        sites = self._solver.before(label, index) & self._sites_of.get(
            reg, frozenset()
        )
        if not sites and label == self.cfg.entry:
            return frozenset({self.entry_site(reg)})
        return sites

    def defs_reaching_use(
        self, label: str, index: int
    ) -> Dict[Reg, FrozenSet[DefSite]]:
        """For each register used by instruction ``index`` in ``label``, the
        definitions that reach that use."""
        blk = self.cfg.block(label)
        inst = blk.instructions[index]
        return {
            r: self.reaching_at(label, index, r) for r in set(inst.reg_uses())
        }
