"""The lint analyses, on the shared dataflow engine.

Each is an :class:`repro.analysis.dataflow.Analysis` solved by the
worklist :class:`repro.analysis.dataflow.Solver`.  Rules that need
liveness or reaching definitions reuse :mod:`repro.analysis.liveness` /
:mod:`repro.analysis.reachingdefs` directly; this module only adds the
analyses those passes do not already provide:

- :class:`DefiniteAssignment` — forward *must* analysis of registers
  written on every path (meet = intersection).  The fuzz oracle's
  undefined-behavior filter and the ``uninit-read`` rule are both this
  analysis (through :func:`uninitialized_reads`), so they can never
  disagree.
- :class:`ThreadTaint` — forward *may* analysis of registers whose value
  can differ between threads of one block (seeded by ``%tid.*`` and
  atomic results).  Divergence and shared-memory race rules consume it.
- :class:`SymbolTaint` — forward *may* analysis of registers derived
  from a set of buffer symbols (used with the checkpoint base symbols to
  find program stores aimed at ECC checkpoint space).

Values are frozensets of register names: cheap to hash, compare, and
meet, and precise enough for every rule shipped here.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import Analysis, Direction, Solver, Value
from repro.ir.instructions import Atom, Instruction, Ld
from repro.ir.types import Reg, Special, SymRef

#: special registers whose value differs between threads of one block
THREAD_VARYING_SPECIALS = ("%tid.x", "%tid.y")


def _universe(cfg: CFG) -> FrozenSet[str]:
    regs: Set[str] = set()
    for blk in cfg.blocks:
        for inst in blk.instructions:
            regs.update(r.name for r in inst.defs())
            regs.update(r.name for r in inst.reg_uses())
    return frozenset(regs)


class DefiniteAssignment(Analysis):
    """Forward must-analysis: registers written (unguarded) on *every*
    path reaching a point.  A read outside the set is an uninitialized
    (or maybe-uninitialized) register read — undefined behavior for the
    protection contract, since a register with no dominating write has no
    checkpoint to restore."""

    direction = Direction.FORWARD

    def __init__(self, cfg: CFG):
        self._top = _universe(cfg)

    def init(self) -> Value:
        return self._top

    def boundary(self) -> Value:
        return frozenset()

    def meet(self, a: Value, b: Value) -> Value:
        return a & b

    def transfer(self, label, index, inst, value) -> Value:
        if inst.guard is not None:
            return value  # predicated-off executions do not write
        defs = inst.defs()
        if not defs:
            return value
        return value | frozenset(r.name for r in defs)


def solve_definite_assignment(cfg: CFG) -> Solver:
    return Solver(cfg, DefiniteAssignment(cfg))


def uninitialized_reads(cfg: CFG):
    """All (label, index, reg) reads not definitely assigned — the shared
    engine behind the ``uninit-read`` rule and the fuzz oracle's
    undefined-behavior filter.

    On top of the must-analysis, one guard-aware refinement: a read
    guarded by ``(p, sense)`` is satisfied by an earlier *same-block*
    definition under the very same guard (whenever the read executes,
    so did the definition).  That is the idiomatic predicated
    load/compute chain (``@%p ld %a …; @%p add %c, %a, %b``) every
    butterfly-style benchmark uses."""
    solver = solve_definite_assignment(cfg)
    out = []
    for blk in cfg.blocks:
        points = solver.points(blk.label)
        # (pred name, sense) -> registers defined under that guard since
        # the last redefinition of the predicate
        cond: Dict[Tuple[str, bool], Set[str]] = {}
        for i, inst in enumerate(blk.instructions):
            value = points[i]
            guard_key = None
            if inst.guard is not None:
                guard_key = (inst.guard[0].name, inst.guard[1])
            extra = cond.get(guard_key, set()) if guard_key else set()
            for reg in inst.reg_uses():
                if reg.name not in value and reg.name not in extra:
                    out.append((blk.label, i, reg))
            for reg in inst.defs():
                if guard_key is not None:
                    cond.setdefault(guard_key, set()).add(reg.name)
                else:
                    # An unconditional redefinition of a predicate
                    # invalidates everything conditionally assigned
                    # under it.
                    for key in list(cond):
                        if key[0] == reg.name:
                            del cond[key]
    return out


class ThreadTaint(Analysis):
    """Forward may-analysis: registers whose value can differ between
    threads of the same block.

    Taint springs from the thread-varying specials (``%tid.*``) and from
    atomic return values; it propagates through ALU/setp/selp operands,
    through loads whose *address* is tainted, and through guarded writes
    whose predicate is tainted (whether the write happens at all then
    varies per thread)."""

    direction = Direction.FORWARD

    def meet(self, a: Value, b: Value) -> Value:
        return a | b

    @staticmethod
    def op_tainted(op, value: Value) -> bool:
        """Is this operand thread-varying under the given value set?"""
        if isinstance(op, Reg):
            return op.name in value
        if isinstance(op, Special):
            return op.name in THREAD_VARYING_SPECIALS
        return False

    def guard_tainted(self, inst: Instruction, value: Value) -> bool:
        return inst.guard is not None and inst.guard[0].name in value

    def transfer(self, label, index, inst, value) -> Value:
        defs = inst.defs()
        if not defs:
            return value
        if isinstance(inst, Atom):
            tainted = True  # RMW return values differ per thread
        elif isinstance(inst, Ld):
            tainted = self.op_tainted(inst.base, value)
        else:
            tainted = any(self.op_tainted(op, value) for op in inst.uses())
        if self.guard_tainted(inst, value):
            tainted = True
        names = frozenset(r.name for r in defs)
        if tainted:
            return value | names
        if inst.guard is not None:
            return value  # may not execute: old (possibly tainted) survives
        return value - names


def solve_thread_taint(cfg: CFG) -> Solver:
    return Solver(cfg, ThreadTaint())


class SymbolTaint(Analysis):
    """Forward may-analysis: registers holding an address derived from
    one of the given buffer symbols (``mov r, sym`` then arithmetic).
    Loads do not propagate (a value read *from* the buffer is data, not
    an address into it)."""

    direction = Direction.FORWARD

    def __init__(self, symbols: Iterable[str]):
        self.symbols = frozenset(symbols)

    def meet(self, a: Value, b: Value) -> Value:
        return a | b

    def _op_tainted(self, op, value: Value) -> bool:
        if isinstance(op, Reg):
            return op.name in value
        if isinstance(op, SymRef):
            return op.name in self.symbols
        return False

    def transfer(self, label, index, inst, value) -> Value:
        defs = inst.defs()
        if not defs:
            return value
        if isinstance(inst, (Ld, Atom)):
            tainted = False
        else:
            tainted = any(self._op_tainted(op, value) for op in inst.uses())
        names = frozenset(r.name for r in defs)
        if tainted:
            return value | names
        if inst.guard is not None:
            return value
        return value - names


def solve_symbol_taint(cfg: CFG, symbols: Iterable[str]) -> Solver:
    return Solver(cfg, SymbolTaint(symbols))
