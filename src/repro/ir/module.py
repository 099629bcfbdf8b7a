"""Kernels, basic blocks, and modules.

A :class:`Kernel` holds an ordered list of :class:`BasicBlock`; control falls
through from each block to the next unless the block ends in an unconditional
branch or ``ret``.  Blocks may additionally contain *guarded* branches, which
conditionally leave the block mid-stream — but by construction (the parser
and builder enforce it) guarded branches only appear as the last instruction,
so a block has at most two successors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ir.instructions import Bra, Instruction
from repro.ir.types import DType, MemSpace, Reg


@dataclass
class KernelParam:
    """A kernel parameter: a scalar or a pointer passed via param space."""

    name: str
    dtype: DType = DType.U32
    is_pointer: bool = False
    #: for pointers, the space the pointee lives in (always GLOBAL here)
    pointee_space: MemSpace = MemSpace.GLOBAL


@dataclass
class SharedDecl:
    """A statically-sized shared-memory array declared by the kernel."""

    name: str
    num_words: int  # size in 32-bit words


class BasicBlock:
    """A labelled straight-line instruction sequence."""

    def __init__(self, label: str, instructions: Optional[List[Instruction]] = None):
        self.label = label
        self.instructions: List[Instruction] = list(instructions or [])

    @property
    def terminator(self) -> Optional[Instruction]:
        """The final instruction if it is an unconditional ``bra``/``ret``."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def branch_targets(self) -> List[str]:
        """Labels this block may branch to (conditionally or not)."""
        return [
            inst.target
            for inst in self.instructions
            if isinstance(inst, Bra)
        ]

    @property
    def falls_through(self) -> bool:
        """True when control can reach the lexically-next block."""
        term = self.terminator
        return term is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BasicBlock({self.label!r}, {len(self.instructions)} insts)"


class Kernel:
    """A GPU kernel: params, shared declarations, and an ordered block list."""

    def __init__(
        self,
        name: str,
        params: Optional[List[KernelParam]] = None,
        blocks: Optional[List[BasicBlock]] = None,
        shared: Optional[List[SharedDecl]] = None,
    ):
        self.name = name
        self.params: List[KernelParam] = list(params or [])
        self.blocks: List[BasicBlock] = list(blocks or [])
        self.shared: List[SharedDecl] = list(shared or [])
        self._label_counter = itertools.count()
        self._reg_counter = itertools.count()
        #: free-form metadata attached by passes (region info, checkpoint
        #: storage map, recovery table, ...)
        self.meta: Dict[str, object] = {}

    # -- lookups -------------------------------------------------------------

    def block(self, label: str) -> BasicBlock:
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise KeyError(f"no block labelled {label!r} in kernel {self.name!r}")

    def block_index(self, label: str) -> int:
        for i, blk in enumerate(self.blocks):
            if blk.label == label:
                return i
        raise KeyError(f"no block labelled {label!r} in kernel {self.name!r}")

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"kernel {self.name!r} has no blocks")
        return self.blocks[0]

    def param(self, name: str) -> KernelParam:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"no param {name!r} in kernel {self.name!r}")

    # -- iteration -----------------------------------------------------------

    def instructions(self) -> Iterable[Tuple[BasicBlock, int, Instruction]]:
        """Yield (block, index, instruction) over the whole kernel."""
        for blk in self.blocks:
            for i, inst in enumerate(blk.instructions):
                yield blk, i, inst

    def all_registers(self) -> List[Reg]:
        """All registers referenced anywhere, in first-appearance order."""
        seen: Dict[Reg, None] = {}
        for _, _, inst in self.instructions():
            for r in inst.defs():
                seen.setdefault(r, None)
            for r in inst.reg_uses():
                seen.setdefault(r, None)
        return list(seen)

    # -- mutation helpers ------------------------------------------------------

    def fresh_label(self, prefix: str = "L") -> str:
        existing = {blk.label for blk in self.blocks}
        while True:
            label = f"{prefix}_{next(self._label_counter)}"
            if label not in existing:
                return label

    def fresh_reg(
        self,
        dtype: DType = DType.U32,
        prefix: str = "%t",
        in_use: Optional[Set[str]] = None,
    ) -> Reg:
        """A register named ``prefix`` plus the next counter value that no
        register of the kernel uses.  A caller naming many registers in a
        row passes ``in_use``, the set of names in use, which this method
        extends with each name it returns; without it the kernel is
        scanned."""
        existing = (
            {r.name for r in self.all_registers()} if in_use is None else in_use
        )
        while True:
            name = f"{prefix}{next(self._reg_counter)}"
            if name not in existing:
                existing.add(name)
                return Reg(name, dtype)

    def split_block(self, label: str, index: int, new_label: Optional[str] = None) -> BasicBlock:
        """Split the block at instruction ``index``: instructions from
        ``index`` onward move to a new fall-through block, which is returned.
        Splitting at 0 inserts an empty predecessor; splitting at
        ``len(instructions)`` creates an empty successor.

        Used by region formation to normalize every region boundary to a
        block entry.
        """
        blk = self.block(label)
        if index < 0 or index > len(blk.instructions):
            raise IndexError(
                f"split index {index} out of range for block {label!r}"
            )
        new_label = new_label or self.fresh_label(prefix=f"{label}_split")
        tail = BasicBlock(new_label, blk.instructions[index:])
        blk.instructions = blk.instructions[:index]
        self.blocks.insert(self.block_index(label) + 1, tail)
        return tail

    def validate(self) -> None:
        """Structural sanity checks; raises ValueError on malformed IR."""
        labels = [blk.label for blk in self.blocks]
        if len(labels) != len(set(labels)):
            raise ValueError(f"duplicate block labels in kernel {self.name!r}")
        label_set = set(labels)
        for blk in self.blocks:
            for i, inst in enumerate(blk.instructions):
                if isinstance(inst, Bra) and inst.target not in label_set:
                    raise ValueError(
                        f"branch to unknown label {inst.target!r} in {blk.label}"
                    )
                is_last = i == len(blk.instructions) - 1
                if (inst.is_terminator or isinstance(inst, Bra)) and not is_last:
                    raise ValueError(
                        f"branch/terminator mid-block in {blk.label!r} (index {i})"
                    )
        if self.blocks:
            last = self.blocks[-1]
            if last.falls_through:
                raise ValueError(
                    f"final block {last.label!r} falls through kernel end"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Kernel({self.name!r}, {len(self.blocks)} blocks)"


@dataclass
class Module:
    """A compilation unit: a set of kernels."""

    kernels: List[Kernel] = field(default_factory=list)

    def kernel(self, name: str) -> Kernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"no kernel named {name!r}")
