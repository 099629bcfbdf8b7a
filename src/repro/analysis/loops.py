"""Natural-loop detection and nesting depth.

Penny's checkpoint cost model is ``C ** d`` with ``d`` the loop nesting
depth of the checkpoint's location (§6.1), so loop depth per block is the
one analysis the optimizer consults constantly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.cfg import CFG
from repro.analysis.dominators import Dominators


@dataclass
class Loop:
    """A natural loop: header plus body block labels (header included)."""

    header: str
    body: Set[str] = field(default_factory=set)
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        """Nesting depth: 1 for outermost loops, +1 per enclosing loop."""
        d = 1
        p = self.parent
        while p is not None:
            d += 1
            p = p.parent
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Loop(header={self.header!r}, blocks={len(self.body)})"


class LoopInfo:
    """All natural loops of a CFG, with per-block nesting depth."""

    def __init__(self, cfg: CFG, dom: Optional[Dominators] = None):
        self.cfg = cfg
        dom = dom or Dominators(cfg)
        reachable = cfg.reachable()

        # Back edges: tail -> header where header dominates tail.
        loops_by_header: Dict[str, Loop] = {}
        for tail in reachable:
            for head in cfg.successors(tail):
                if head in reachable and dom.dominates(head, tail):
                    loop = loops_by_header.setdefault(head, Loop(header=head))
                    loop.body.update(self._natural_loop_body(tail, head))

        self.loops: List[Loop] = list(loops_by_header.values())

        # Nest loops: parent is the smallest strictly-containing loop.
        for loop in self.loops:
            candidates = [
                other
                for other in self.loops
                if other is not loop
                and loop.header in other.body
                and loop.body <= other.body
            ]
            if candidates:
                loop.parent = min(candidates, key=lambda l: len(l.body))
                loop.parent.children.append(loop)

        self._depth: Dict[str, int] = {blk.label: 0 for blk in cfg.blocks}
        for loop in self.loops:
            for label in loop.body:
                self._depth[label] = max(self._depth[label], loop.depth)

    def _natural_loop_body(self, tail: str, header: str) -> Set[str]:
        """Blocks of the natural loop of back edge tail -> header."""
        body = {header, tail}
        stack = [tail]
        while stack:
            label = stack.pop()
            if label == header:
                continue
            for pred in self.cfg.predecessors(label):
                if pred not in body:
                    body.add(pred)
                    stack.append(pred)
        return body

    def depth_of(self, label: str) -> int:
        """Loop nesting depth of a block (0 = not in any loop)."""
        return self._depth.get(label, 0)
