"""Control-flow graph over a kernel's basic blocks."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.ir.instructions import Bra, Ret
from repro.ir.module import BasicBlock, Kernel


def reverse_postorder(
    root: str, succs: Mapping[str, Sequence[str]]
) -> List[str]:
    """The nodes reachable from ``root`` in reverse postorder of a
    depth-first walk that takes successors in ``succs`` order."""
    visited = {root}
    postorder: List[str] = []
    stack = [(root, iter(succs[root]))]
    while stack:
        node, it = stack[-1]
        for succ in it:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(succs[succ])))
                break
        else:
            postorder.append(node)
            stack.pop()
    return postorder[::-1]


class CFG:
    """Successor / predecessor maps and traversal orders for a kernel.

    The CFG is a snapshot: rebuild it after structural mutation (block
    splitting, inserted blocks).
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.blocks: List[BasicBlock] = list(kernel.blocks)
        self._index: Dict[str, int] = {
            blk.label: i for i, blk in enumerate(self.blocks)
        }
        self.succs: Dict[str, List[str]] = {}
        self.preds: Dict[str, List[str]] = {b.label: [] for b in self.blocks}
        for i, blk in enumerate(self.blocks):
            succs: List[str] = []
            term: Optional[object] = (
                blk.instructions[-1] if blk.instructions else None
            )
            for inst in blk.instructions:
                if isinstance(inst, Bra):
                    succs.append(inst.target)
            falls = not (
                isinstance(term, (Bra, Ret)) and term.guard is None
            )
            if falls and i + 1 < len(self.blocks):
                succs.append(self.blocks[i + 1].label)
            # Deduplicate while preserving order (branch to fallthrough).
            seen: Set[str] = set()
            uniq = [s for s in succs if not (s in seen or seen.add(s))]
            self.succs[blk.label] = uniq
            for s in uniq:
                self.preds[s].append(blk.label)

    @property
    def entry(self) -> str:
        return self.blocks[0].label

    def block(self, label: str) -> BasicBlock:
        return self.blocks[self._index[label]]

    def successors(self, label: str) -> List[str]:
        return self.succs[label]

    def predecessors(self, label: str) -> List[str]:
        return self.preds[label]

    def reverse_postorder(self) -> List[str]:
        """RPO from the entry; unreachable blocks are appended at the end in
        layout order so analyses still cover them."""
        order = reverse_postorder(self.entry, self.succs)
        reached = set(order)
        order.extend(b.label for b in self.blocks if b.label not in reached)
        return order

    def reachable(self) -> Set[str]:
        """Labels reachable from the entry block."""
        seen: Set[str] = set()
        stack = [self.entry]
        while stack:
            label = stack.pop()
            if label in seen:
                continue
            seen.add(label)
            stack.extend(self.succs[label])
        return seen

    def paths_exist(self, src: str, dst: str, avoiding: Set[str]) -> bool:
        """Is there a path ``src -> ... -> dst`` whose *intermediate* nodes
        avoid the given label set?  (src/dst themselves may be in it.)"""
        if src == dst:
            return True
        seen: Set[str] = {src}
        stack = [src]
        while stack:
            label = stack.pop()
            for succ in self.succs[label]:
                if succ == dst:
                    return True
                if succ not in seen and succ not in avoiding:
                    seen.add(succ)
                    stack.append(succ)
        return False
