"""Iterative dominator computation (Cooper-Harvey-Kennedy style)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.cfg import CFG, reverse_postorder


def immediate_dominators(
    root: str, succs: Mapping[str, Sequence[str]]
) -> Dict[str, Optional[str]]:
    """Immediate dominator of every node reachable from ``root`` in the
    graph ``succs`` (Cooper, Harvey and Kennedy's iterative algorithm over
    reverse postorder).  ``root`` maps to ``None``; unreachable nodes are
    absent."""
    rpo = reverse_postorder(root, succs)
    order = {node: i for i, node in enumerate(rpo)}
    preds: Dict[str, List[str]] = {node: [] for node in rpo}
    for node in rpo:
        for nxt in succs[node]:
            preds[nxt].append(node)

    idom: Dict[str, Optional[str]] = dict.fromkeys(rpo)
    idom[root] = root

    def intersect(a: str, b: str) -> str:
        while a != b:
            while order[a] > order[b]:
                a = idom[a]  # type: ignore[assignment]
            while order[b] > order[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo[1:]:
            # the DFS parent precedes ``node`` in RPO, so one is ready
            ready = [p for p in preds[node] if idom[p] is not None]
            new_idom = ready[0]
            for p in ready[1:]:
                new_idom = intersect(new_idom, p)
            if idom[node] != new_idom:
                idom[node] = new_idom
                changed = True
    idom[root] = None  # conventional: the root has no idom
    return idom


class Dominators:
    """Immediate-dominator tree for a CFG.

    Unreachable blocks have no immediate dominator and dominate nothing.
    """

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.idom: Dict[str, Optional[str]] = immediate_dominators(
            cfg.entry, cfg.succs
        )

    def dominates(self, a: str, b: str) -> bool:
        """Does block ``a`` dominate block ``b``?  (Reflexive.)"""
        if a == b:
            return True
        runner: Optional[str] = self.idom.get(b)
        while runner is not None:
            if runner == a:
                return True
            runner = self.idom.get(runner)
        return False

    def dominators_of(self, label: str) -> List[str]:
        """All dominators of ``label``, innermost-out (label itself first)."""
        result = [label]
        runner = self.idom.get(label)
        while runner is not None:
            result.append(runner)
            runner = self.idom.get(runner)
        return result
