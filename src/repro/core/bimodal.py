"""Bimodal checkpoint placement (§6.2).

For each register, every LUP↔boundary edge must be covered by a checkpoint
at one of its endpoints: checkpoint at the LUP (classic eager placement) or
delayed to the region boundary.  Choosing the cheapest set of endpoints is
min-weight vertex cover, NP-hard in general but polynomial on bipartite
graphs: by the weighted König theorem it equals a max-flow / min-cut
computation, which is how Penny solves it.

Vertex weights follow the cost model (``base ** loop_depth``); the paper's
Figure 3 uses base 2.

:func:`min_weight_cover` runs Edmonds–Karp on the flow network
source → LUP (the LUP's weight) → boundary (unbounded) → sink (the
boundary's weight).  Its cover is read off one side of the cut: the sink
side is every vertex that still has a residual path to the sink; a LUP is
chosen iff it is on the sink side, a boundary iff it is not.  That set is
the same for every maximum flow, so neither the augmenting order nor set
iteration order (the hash seed) can change the cover.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, Hashable, Iterable, Mapping, Set, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.reachingdefs import DefSite
from repro.core.checkpoints import (
    CheckpointKind,
    CheckpointPlan,
    PlannedCheckpoint,
)
from repro.core.costmodel import CostModel
from repro.core.liveins import LiveinAnalysis
from repro.ir.types import Reg

_SOURCE, _SINK = "source", "sink"


def bimodal_plan(
    cfg: CFG,
    liveins: LiveinAnalysis,
    cost: CostModel,
    cover_base: int = 2,
) -> CheckpointPlan:
    """Choose LUP-vs-boundary placement for every register's checkpoints."""
    plan = CheckpointPlan()
    for reg in sorted(liveins.edges, key=lambda r: r.name):
        edges = liveins.edges[reg]
        chosen_lups, chosen_bounds = min_weight_cover(
            {lup: cover_base ** cost.depth(lup.label) for lup, _ in edges},
            {b: cover_base ** cost.depth(b) for _, b in edges},
            edges,
        )
        _emit_register_plan(plan, reg, edges, chosen_lups, chosen_bounds)
    return plan


def min_weight_cover(
    lup_weights: Mapping[Hashable, int],
    bound_weights: Mapping[Hashable, int],
    edges: Iterable[Tuple[Hashable, Hashable]],
) -> Tuple[Set[Hashable], Set[Hashable]]:
    """Min-weight vertex cover of a bipartite LUP/boundary graph, via
    max-flow min-cut (weighted König): ``(chosen LUPs, chosen
    boundaries)``.  Every endpoint of ``edges`` needs a weight; the
    integer weights make Edmonds–Karp terminate."""
    # residual[u][v]: what u -> v can still carry; every edge has its
    # reverse entry, so residual[v] also lists the vertices that reach v.
    residual: Dict[Hashable, Dict[Hashable, float]] = defaultdict(dict)

    def link(u, v, capacity) -> None:
        residual[u][v] = capacity
        residual[v][u] = 0

    for lup, weight in lup_weights.items():
        link(_SOURCE, ("lup", lup), weight)
    for bound, weight in bound_weights.items():
        link(("bound", bound), _SINK, weight)
    for lup, bound in edges:
        link(("lup", lup), ("bound", bound), float("inf"))

    while True:  # augment along shortest paths until none is left
        parent = {_SOURCE: None}
        queue = deque([_SOURCE])
        while queue and _SINK not in parent:
            u = queue.popleft()
            for v, capacity in residual[u].items():
                if capacity > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if _SINK not in parent:
            break
        path = []
        v = _SINK
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push

    sink_side = {_SINK}
    queue = deque([_SINK])
    while queue:
        v = queue.popleft()
        for u in residual[v]:
            if u not in sink_side and residual[u][v] > 0:
                sink_side.add(u)
                queue.append(u)
    chosen_lups = {lup for lup in lup_weights if ("lup", lup) in sink_side}
    chosen_bounds = {
        b for b in bound_weights if ("bound", b) not in sink_side
    }
    return chosen_lups, chosen_bounds


def _emit_register_plan(
    plan: CheckpointPlan,
    reg: Reg,
    edges: Set[Tuple[DefSite, str]],
    chosen_lups: Set[DefSite],
    chosen_bounds: Set[str],
) -> None:
    lup_cps: Dict[DefSite, PlannedCheckpoint] = {}
    bound_cps: Dict[str, PlannedCheckpoint] = {}
    for lup, boundary in sorted(
        edges, key=lambda e: (e[0].label, e[0].index, e[1])
    ):
        if lup in chosen_lups:
            cp = lup_cps.get(lup)
            if cp is None:
                cp = PlannedCheckpoint(reg=reg, kind=CheckpointKind.LUP, site=lup)
                lup_cps[lup] = cp
                plan.checkpoints.append(cp)
            cp.covers.add((lup, boundary))
        if boundary in chosen_bounds:
            cp = bound_cps.get(boundary)
            if cp is None:
                cp = PlannedCheckpoint(
                    reg=reg, kind=CheckpointKind.BOUNDARY, boundary=boundary
                )
                bound_cps[boundary] = cp
                plan.checkpoints.append(cp)
            cp.covers.add((lup, boundary))
        if lup not in chosen_lups and boundary not in chosen_bounds:
            raise AssertionError(
                f"uncovered checkpoint edge for {reg.name}: "
                f"{lup.label}:{lup.index} -> {boundary}"
            )
