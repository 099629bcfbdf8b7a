"""The dataflow engine every analysis builds on.

One worklist solver (:class:`Solver`) parameterized by an
:class:`Analysis` — direction, lattice values, meet, and a
per-instruction transfer function — over :class:`repro.analysis.cfg.CFG`.
:class:`repro.analysis.liveness.Liveness`,
:class:`repro.analysis.reachingdefs.ReachingDefs`, the vulnerability
analyses in :mod:`repro.analysis.vuln` and the linter's dataflow
analyses are all analyses on it.

Values are frozensets: cheap to hash, compare and meet, and safe to
share between the cached instruction points of a block.
"""

from __future__ import annotations

import enum
import heapq
from typing import Dict, FrozenSet, List

from repro.analysis.cfg import CFG
from repro.ir.instructions import Instruction

Value = FrozenSet


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class Analysis:
    """One dataflow problem: subclass and override the four hooks."""

    direction: Direction = Direction.FORWARD

    def boundary(self) -> Value:
        """Value at the CFG entry (forward) / at exit blocks (backward).
        Blocks with no predecessors (resp. successors) also start here —
        for a *must* analysis that conservatively treats unreachable code
        as having established nothing."""
        return frozenset()

    def init(self) -> Value:
        """Optimistic initial value for all other blocks (the lattice
        top); the solver refines it downward to the fixed point."""
        return frozenset()

    def meet(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def transfer(
        self, label: str, index: int, inst: Instruction, value: Value
    ) -> Value:
        """Value after ``inst`` (forward) / before it (backward)."""
        raise NotImplementedError


class Solver:
    """Worklist fixed point of an :class:`Analysis` over a CFG.

    The worklist pops blocks in reverse postorder (forward) / postorder
    (backward) priority, and a block is re-queued only when a value
    flowing into it changed.  Every visit records the value at each
    instruction point of the block, so point queries read the cache of
    the last visit instead of replaying the transfer function.

    ``block_in``/``block_out`` are in *execution* order regardless of
    direction: ``block_in`` is the value on entry to the block's first
    instruction, ``block_out`` after its last.
    """

    def __init__(self, cfg: CFG, analysis: Analysis):
        self.cfg = cfg
        self.analysis = analysis
        self._points: Dict[str, List[Value]] = {}
        self._solve()
        self.block_in: Dict[str, Value] = {
            label: points[0] for label, points in self._points.items()
        }
        self.block_out: Dict[str, Value] = {
            label: points[-1] for label, points in self._points.items()
        }

    # -- queries ------------------------------------------------------------

    def points(self, label: str) -> List[Value]:
        """``points[i]`` = value immediately before instruction ``i`` of
        the block; ``points[len]`` = value after its last instruction."""
        return self._points[label]

    def before(self, label: str, index: int) -> Value:
        """Dataflow value immediately before instruction ``index``."""
        return self._points[label][index]

    def after(self, label: str, index: int) -> Value:
        """Dataflow value immediately after instruction ``index``."""
        return self._points[label][index + 1]

    # -- solving ------------------------------------------------------------

    def _visit(self, label: str, incoming: Value) -> List[Value]:
        an = self.analysis
        insts = self.cfg.block(label).instructions
        points = [incoming] * (len(insts) + 1)
        if an.direction is Direction.FORWARD:
            for i, inst in enumerate(insts):
                points[i + 1] = an.transfer(label, i, inst, points[i])
        else:
            for i in range(len(insts) - 1, -1, -1):
                points[i] = an.transfer(label, i, insts[i], points[i + 1])
        return points

    def _solve(self) -> None:
        an = self.analysis
        forward = an.direction is Direction.FORWARD
        order = self.cfg.reverse_postorder()
        if not forward:
            order.reverse()
        sources = self.cfg.preds if forward else self.cfg.succs
        targets = self.cfg.succs if forward else self.cfg.preds
        priority = {label: i for i, label in enumerate(order)}
        # value leaving each block in the analysis direction
        result: Dict[str, Value] = {label: an.init() for label in order}

        worklist = list(range(len(order)))  # sorted, hence a heap
        queued = set(order)
        while worklist:
            label = order[heapq.heappop(worklist)]
            queued.discard(label)
            incoming = None
            for src in sources[label]:
                v = result[src]
                incoming = v if incoming is None else an.meet(incoming, v)
            if incoming is None:
                incoming = an.boundary()
            points = self._visit(label, incoming)
            self._points[label] = points
            out = points[-1] if forward else points[0]
            if out != result[label]:
                result[label] = out
                for target in targets[label]:
                    if target not in queued:
                        queued.add(target)
                        heapq.heappush(worklist, priority[target])
