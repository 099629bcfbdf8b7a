"""Postdominators and control dependence.

Penny's PDDG contains *predicate dependences*: a value defined on multiple
paths depends on the predicates of the branches its definitions are
control-dependent on (§6.4.1).  Control dependence is computed classically:
block X is control-dependent on branch edge (P → S) when X postdominates S
but does not postdominate P.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.analysis.cfg import CFG
from repro.analysis.dominators import immediate_dominators
from repro.ir.instructions import Bra
from repro.ir.types import Reg


class PostDominators:
    """Immediate postdominator tree, computed on the reversed CFG.

    Kernels may have several exit blocks (every ``ret``); a virtual exit
    node joins them.
    """

    VIRTUAL_EXIT = "<exit>"

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        labels = [blk.label for blk in cfg.blocks]
        # The reversed CFG, rooted at a virtual exit joining every exit.
        reverse: Dict[str, List[str]] = dict(cfg.preds)
        reverse[self.VIRTUAL_EXIT] = [
            label for label in labels if not cfg.successors(label)
        ]
        self.ipdom: Dict[str, Optional[str]] = dict.fromkeys(
            labels + [self.VIRTUAL_EXIT]
        )
        self.ipdom.update(immediate_dominators(self.VIRTUAL_EXIT, reverse))

    def postdominates(self, a: str, b: str) -> bool:
        """Does ``a`` postdominate ``b``?  (Reflexive.)"""
        if a == b:
            return True
        runner = self.ipdom.get(b)
        while runner is not None:
            if runner == a:
                return True
            runner = self.ipdom.get(runner)
        return False


@dataclass(frozen=True)
class ControlDep:
    """Block is control-dependent on the guarded branch ending ``branch_block``
    with predicate ``pred``; ``sense`` is the predicate value steering onto
    the dependent edge (True = branch taken)."""

    branch_block: str
    pred: Reg
    sense: bool


class ControlDependence:
    """Per-block control dependences (only guarded-branch blocks qualify —
    unconditional control flow creates none)."""

    def __init__(self, cfg: CFG, pdom: Optional[PostDominators] = None):
        self.cfg = cfg
        pdom = pdom or PostDominators(cfg)
        self.deps: Dict[str, Set[ControlDep]] = {
            blk.label: set() for blk in cfg.blocks
        }
        for blk in cfg.blocks:
            guard_branch = None
            for inst in blk.instructions:
                if isinstance(inst, Bra) and inst.guard is not None:
                    guard_branch = inst
            if guard_branch is None:
                continue
            pred_reg, guard_sense = guard_branch.guard
            taken = guard_branch.target
            succs = cfg.successors(blk.label)
            fallthrough = next((s for s in succs if s != taken), None)
            for succ, on_taken in ((taken, True), (fallthrough, False)):
                if succ is None:
                    continue
                # All blocks X postdominating succ but not blk are
                # control-dependent on this edge.
                runner: Optional[str] = succ
                while runner is not None and not pdom.postdominates(
                    runner, blk.label
                ):
                    sense = on_taken if guard_sense else not on_taken
                    self.deps[runner].add(
                        ControlDep(blk.label, pred_reg, sense)
                    )
                    runner = pdom.ipdom.get(runner)
                    if runner == PostDominators.VIRTUAL_EXIT:
                        break

    def of(self, label: str) -> Set[ControlDep]:
        return self.deps.get(label, set())
