"""Predicate/data dependence graph (PDDG) validation — Algorithm 1 (§6.4.1).

Validating a checkpoint ``cv`` asks: can the value it saves be recomputed at
recovery time from things that are guaranteed intact — constants, special
registers, read-only or un-overwritten memory, and other *committed*
checkpoints?  The answer is computed by a depth-first traversal of the
value's dependences, merging three validation states with priority
``invalid > undecided > valid``:

- ``VALID``     — recomputable; a recovery-slice expression is produced.
- ``INVALID``   — provably not recomputable (cyclic dependence, overwritten
  memory, atomics, uninitialized input).
- ``UNDECIDED`` — recomputable *if* some other checkpoint ends up committed
  (its pruning decision is deferred to phase 2).

Deviations from the paper, chosen to keep the produced recovery slices
*executable* in our recovery runtime and documented in DESIGN.md:

- A valid state whose value our slice builder cannot linearize (e.g. a join
  of more than two definitions) is demoted to INVALID, so "prunable" always
  means "the runtime can actually rebuild the value".
- A committed checkpoint's slot is only trusted under conservative
  conditions (LUP-kind, sole writer of its slot, not inside a loop); see
  :meth:`PddgValidator._slot_usable`.

Dependences are acyclic except around loops, and a definition is
typically reached along many paths.  Walking them as a tree costs one
visit per *path* (2^k for k chained two-way joins), so within one public
query (:meth:`PddgValidator.validate_checkpoint` or
:meth:`PddgValidator.value_at`) each definition's result is memoized.
Decisions are fixed within a query, so the only thing a definition's
sub-walk reads besides the site itself is the cycle check against the
current path.  A memo entry therefore records the set ``Q`` of sites the
sub-walk tested against the path and the subset ``H`` of them that were
ancestors (on the path) at the time, and is reused only where the current
path meets ``Q`` in exactly ``H``: every test then gets the same answer,
so the walk would replay identically and return the stored result.  The
memo is cleared at the start of each query, because pruning decisions
change between queries, and the root call of a checkpoint's validation is
never memoized, because it alone treats its own checkpoint as
not-a-checkpoint.

Every merge stops at its first INVALID input, walking its inputs in a
fixed order (a join's definitions, then its predicates; a guarded
definition's prior value, guard, then value; operands left to right), and
a load from writable memory asks the cached CheckMemOW before walking its
base address.  INVALID absorbs every state, so the answer is the one the
full merge gives, and a VALID answer still merges every input.  The memo
stays exact: a shortened walk is still a deterministic function of the
decisions and of which of the sites it tested are on the path, and it
records in ``Q`` exactly the sites it tested.

Cost: each definition is evaluated at most about once per query (more
only where differing ancestors defeat reuse around loops), and a query
that ends INVALID walks only up to its first INVALID input: one Penny
compile of NQU evaluates 78 definitions, where the full merge evaluated
10,268.  Site sets are bitmasks over the validator's sites, so an entry
is two integers and a result, and each evaluation ORs its tested set
into its parent's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.alias import AliasAnalysis, AliasResult
from repro.analysis.cfg import CFG
from repro.analysis.loops import LoopInfo
from repro.analysis.postdom import ControlDependence
from repro.analysis.reachingdefs import DefSite, ReachingDefs
from repro.core.checkpoints import (
    CheckpointKind,
    CheckpointPlan,
    PlannedCheckpoint,
    PruneState,
)
from repro.core.coloring import ColoringResult
from repro.core.hazards import CpInstance
from repro.core.slices import (
    SImm,
    SLoad,
    SOp,
    SSelp,
    SSetp,
    SSlot,
    SSpecial,
    SSymRef,
    SliceExpr,
)
from repro.ir.instructions import Alu, Atom, Ld, Selp, Setp, St
from repro.ir.types import DType, Imm, Operand, Reg, Special, SymRef


class VState(enum.IntEnum):
    """Validation state; numeric order is the merge priority."""

    VALID = 0
    UNDECIDED = 1
    INVALID = 2


def merge(a: VState, b: VState) -> VState:
    return max(a, b)


@dataclass
class Marked:
    """Validation result for one node: the merged state and, when VALID,
    the recovery-slice expression that recomputes the value."""

    state: VState
    expr: Optional[SliceExpr] = None


def _merge_lazily(marks: Iterable[Marked]) -> Tuple[VState, List[Marked]]:
    """Merge ``marks`` in order, stopping at the first INVALID one: it
    absorbs every other state, so the marks after it are never produced.
    Returns the merged state and the marks merged before any INVALID."""
    state = VState.VALID
    merged: List[Marked] = []
    for m in marks:
        state = merge(state, m.state)
        if state is VState.INVALID:
            break
        merged.append(m)
    return state, merged


#: Callback giving the current pruning decision of a checkpoint, or None
#: when decisions are not yet known (phase 1).
DecisionFn = Callable[[PlannedCheckpoint], Optional[PruneState]]


@dataclass(frozen=True)
class _MemoEntry:
    """A definition's result within one query, reusable wherever the path
    meets ``tested`` (the sites its sub-walk checked against the path,
    itself excluded) in exactly ``on_path``.  Both are site bitmasks."""

    tested: int
    on_path: int
    marked: Marked


class PddgValidator:
    """Shared machinery for phase-1/phase-2 validation and restore slices."""

    def __init__(
        self,
        cfg: CFG,
        rdefs: ReachingDefs,
        plan: CheckpointPlan,
        instances: List[CpInstance],
        aa: AliasAnalysis,
        loops: LoopInfo,
        ctrldep: ControlDependence,
        coloring: Optional[ColoringResult] = None,
    ):
        self.cfg = cfg
        self.rdefs = rdefs
        self.plan = plan
        self.instances = instances
        self.aa = aa
        self.loops = loops
        self.ctrldep = ctrldep
        self.coloring = coloring
        #: failed join linearizations among evaluated (not memo-reused) nodes
        self.materialization_failures = 0
        #: definition nodes walked, and walks skipped by a memo entry
        self.evaluated = 0
        self.memo_hits = 0

        # Per-query walk state.  A set of sites is a bitmask over ``_bit``
        # (the n-th site the validator meets is 1 << n): the sites on the
        # current path, the memo, and for every open evaluation the sites
        # its sub-walk has tested against the path.
        self._bit: Dict[DefSite, int] = {}
        self._path = 0
        self._memo: Dict[int, _MemoEntry] = {}
        self._tested: List[int] = []
        #: memory_intact answers by load
        self._intact: Dict[Tuple[str, int], bool] = {}

        #: LUP checkpoints by their defining site.
        self.cp_at_site: Dict[DefSite, PlannedCheckpoint] = {}
        for cp in plan.checkpoints:
            if cp.kind is CheckpointKind.LUP and cp.site is not None:
                self.cp_at_site[cp.site] = cp

        #: all stores, for memory-overwrite checks
        self._stores: List[Tuple[str, int]] = []
        for blk in cfg.blocks:
            for i, inst in enumerate(blk.instructions):
                if inst.is_memory_write:
                    self._stores.append((blk.label, i))

    # -- public API -------------------------------------------------------------

    def validate_checkpoint(
        self, cv: PlannedCheckpoint, decision: Optional[DecisionFn] = None
    ) -> Marked:
        """Run Algorithm 1 from checkpoint ``cv``."""
        self._begin_query()
        if cv.kind is CheckpointKind.LUP:
            assert cv.site is not None
            return self._mark_def(cv.site, decision, root=cv)
        assert cv.boundary is not None
        return self._mark_reg_at(cv.boundary, 0, cv.reg, decision)

    def value_at(
        self, label: str, index: int, reg: Reg, decision: Optional[DecisionFn]
    ) -> Marked:
        """Validate/slice the value of ``reg`` just before (label, index) —
        used to build boundary restore slices."""
        self._begin_query()
        return self._mark_reg_at(label, index, reg, decision)

    def _begin_query(self) -> None:
        self._path = 0
        self._memo.clear()
        self._tested.clear()

    def collect_decision_deps(
        self, cv: PlannedCheckpoint, decision: DecisionFn
    ) -> Set[PlannedCheckpoint]:
        """Algorithm 2's CollectDecisionDeps: the checkpoints whose pruning
        decisions must be known before ``cv`` can be finalized."""
        deps: Set[PlannedCheckpoint] = set()
        visited: Set[DefSite] = set()
        if cv.kind is CheckpointKind.LUP:
            self._deps_from_def(cv.site, cv, decision, deps, visited)
        else:
            self._deps_from_reg(
                cv.boundary, 0, cv.reg, cv, decision, deps, visited
            )
        deps.discard(cv)
        return deps

    # -- memory-overwrite check ----------------------------------------------------

    def memory_intact(self, label: str, index: int) -> bool:
        """CheckMemOW: may the location loaded at (label, index) be
        overwritten before recovery re-executes the load?  Conservative:
        invalid when any may-aliasing store is reachable from the load.
        Cached per load: the answer depends only on the validator's CFG."""
        key = (label, index)
        if key not in self._intact:
            self._intact[key] = not self._aliasing_store_reachable(
                label, index
            )
        return self._intact[key]

    def _aliasing_store_reachable(self, label: str, index: int) -> bool:
        addr = self.aa.address_of(label, index)
        for s_label, s_index in self._stores:
            s_addr = self.aa.address_of(s_label, s_index)
            if self.aa.alias(addr, s_addr) is AliasResult.NO:
                continue
            if self._reachable(label, s_label, index, s_index):
                return True
        return False

    def _reachable(
        self, from_label: str, to_label: str, from_idx: int, to_idx: int
    ) -> bool:
        if from_label == to_label and to_idx > from_idx:
            return True
        seen: Set[str] = set()
        stack = list(self.cfg.successors(from_label))
        while stack:
            lbl = stack.pop()
            if lbl == to_label:
                return True
            if lbl in seen:
                continue
            seen.add(lbl)
            stack.extend(self.cfg.successors(lbl))
        return False

    # -- slot usability ----------------------------------------------------------------

    def _slot_usable(self, cd: PlannedCheckpoint) -> bool:
        """May a recovery slice read ``cd``'s checkpoint slot?

        Conservative conditions guaranteeing the slot holds exactly the
        value that flowed into the dependent computation:

        - ``cd`` is LUP-kind (it provably executed right after the value was
          defined; a boundary checkpoint may still be pending),
        - ``cd``'s block is not inside a loop (no self-overwrite across
          iterations),
        - no other checkpoint instance or coloring dummy writes the same
          (register, color) slot.
        """
        if cd.kind is not CheckpointKind.LUP:
            return False
        if self.loops.depth_of(cd.site.label) > 0:
            return False
        color = 0
        if self.coloring is not None:
            color = self.coloring.color_of(cd.key, cd.site.label)
        for inst in self.instances:
            if inst.cp is cd or inst.reg != cd.reg:
                continue
            other_color = 0
            if self.coloring is not None:
                other_color = self.coloring.color_of(inst.cp.key, inst.block)
            if other_color == color:
                return False
        if self.coloring is not None:
            for adj in self.coloring.adjustments:
                if adj.reg == cd.reg and adj.color == color:
                    return False
        return True

    # -- Algorithm 1: marking --------------------------------------------------------------

    def _mark_reg_at(
        self,
        label: str,
        index: int,
        reg: Reg,
        decision: Optional[DecisionFn],
    ) -> Marked:
        sites = [
            s
            for s in self.rdefs.reaching_at(label, index, reg)
            if not s.is_entry
        ]
        if not sites:
            return Marked(VState.INVALID)  # uninitialized input
        if len(sites) == 1:
            return self._mark_def(sites[0], decision)
        return self._mark_join(sites, decision)

    def _mark_join(
        self,
        sites: List[DefSite],
        decision: Optional[DecisionFn],
    ) -> Marked:
        """A value defined on multiple paths: data dependences on every
        definition plus predicate dependences on the branches steering
        between them (§6.4.1).  The first INVALID dependence ends the
        walk, as in every merge of Algorithm 1."""
        ordered = sorted(sites, key=lambda s: (s.label, s.index))
        state, defs = _merge_lazily(
            self._mark_def(site, decision) for site in ordered
        )
        if state is VState.INVALID:
            return Marked(state)
        marks = list(zip(ordered, defs))
        # Predicate dependences: the branch predicates the definitions are
        # control-dependent on.
        walked: Set[Tuple[str, str]] = set()
        for site in ordered:
            for cd in self.ctrldep.of(site.label):
                key = (cd.branch_block, cd.pred.name)
                if key in walked:
                    continue
                walked.add(key)
                branch_blk = self.cfg.block(cd.branch_block)
                pm = self._mark_reg_at(
                    cd.branch_block,
                    len(branch_blk.instructions),
                    cd.pred,
                    decision,
                )
                state = merge(state, pm.state)
                if state is VState.INVALID:
                    return Marked(state)
        if state is not VState.VALID:
            return Marked(state)
        expr = self._materialize_join(marks, decision)
        if expr is None:
            self.materialization_failures += 1
            return Marked(VState.INVALID)
        return Marked(VState.VALID, expr)

    def _materialize_join(
        self,
        marks: List[Tuple[DefSite, Marked]],
        decision: Optional[DecisionFn],
    ) -> Optional[SliceExpr]:
        """Linearize a two-way join as a select over its branch predicate.

        Supported shapes: both definitions control-dependent on opposite
        edges of one branch, or one definition on a branch edge with the
        other flowing around the branch."""
        if len(marks) != 2:
            return None
        (site_a, mark_a), (site_b, mark_b) = marks
        deps_a = self.ctrldep.of(site_a.label)
        deps_b = self.ctrldep.of(site_b.label)
        for cd_a in deps_a:
            opposite = next(
                (
                    cd_b
                    for cd_b in deps_b
                    if cd_b.branch_block == cd_a.branch_block
                    and cd_b.pred == cd_a.pred
                    and cd_b.sense != cd_a.sense
                ),
                None,
            )
            matches_around = not any(
                cd_b.branch_block == cd_a.branch_block for cd_b in deps_b
            )
            if opposite is None and not matches_around:
                continue
            branch_blk = self.cfg.block(cd_a.branch_block)
            pm = self._mark_reg_at(
                cd_a.branch_block,
                len(branch_blk.instructions),
                cd_a.pred,
                decision,
            )
            if pm.state is not VState.VALID or pm.expr is None:
                continue
            dtype = site_a.reg.dtype
            if cd_a.sense:
                return SSelp(dtype, mark_a.expr, mark_b.expr, pm.expr)
            return SSelp(dtype, mark_b.expr, mark_a.expr, pm.expr)
        return None

    def _mark_def(
        self,
        site: DefSite,
        decision: Optional[DecisionFn],
        root: Optional[PlannedCheckpoint] = None,
    ) -> Marked:
        """Mark the value defined at ``site``, reusing this query's memo
        where that is exact (see the module docstring)."""
        bit = self._bit.get(site)
        if bit is None:
            bit = self._bit[site] = 1 << len(self._bit)
        tested = self._tested
        if tested:
            tested[-1] |= bit
        if self._path & bit:
            return Marked(VState.INVALID)  # cyclic dependence
        if root is None:
            entry = self._memo.get(bit)
            if entry is not None and self._path & entry.tested == entry.on_path:
                self.memo_hits += 1
                if tested:
                    tested[-1] |= entry.tested
                return entry.marked

        self.evaluated += 1
        self._path |= bit
        tested.append(0)
        result = self._evaluate_def(site, decision, root)
        self._path &= ~bit
        sub = tested.pop() & ~bit
        if tested:
            tested[-1] |= sub
        if root is None:
            self._memo[bit] = _MemoEntry(sub, self._path & sub, result)
        return result

    def _evaluate_def(
        self,
        site: DefSite,
        decision: Optional[DecisionFn],
        root: Optional[PlannedCheckpoint],
    ) -> Marked:
        cp = self.cp_at_site.get(site)
        is_checkpoint_node = cp is not None and cp is not root
        # Phase 2 shortcut: a committed checkpoint with a trustworthy slot
        # terminates the traversal (Algorithm 2, lines 7-8).
        if is_checkpoint_node and decision is not None:
            d = decision(cp)
            if d is PruneState.COMMITTED and self._slot_usable(cp):
                color = (
                    self.coloring.color_of(cp.key, cp.site.label)
                    if self.coloring
                    else 0
                )
                return Marked(VState.VALID, SSlot(cp.reg.name, color))

        result = self._mark_instruction(site, decision)

        if result.state is VState.INVALID and is_checkpoint_node:
            if decision is None:
                # Phase 1: the checkpoint *might* be committed — defer.
                return Marked(VState.UNDECIDED)
            d = decision(cp)
            if d is PruneState.UNDECIDED:
                return Marked(VState.UNDECIDED)
            # Committed-but-unusable or pruned: the value is unreachable.
            return Marked(VState.INVALID)
        return result

    def _mark_instruction(
        self,
        site: DefSite,
        decision: Optional[DecisionFn],
    ) -> Marked:
        inst = self.cfg.block(site.label).instructions[site.index]

        if inst.guard is not None:
            # A guarded definition merges with the prior value under the
            # guard predicate: dst = guard ? value : previous.
            prior = self._mark_reg_at(
                site.label, site.index, site.reg, decision
            )
            if prior.state is VState.INVALID:
                return prior
            guard_reg, sense = inst.guard
            guard_mark = self._mark_reg_at(
                site.label, site.index, guard_reg, decision
            )
            if guard_mark.state is VState.INVALID:
                return guard_mark
            value = self._mark_unguarded(site, inst, decision)
            state = merge(merge(prior.state, guard_mark.state), value.state)
            if state is not VState.VALID:
                return Marked(state)
            if sense:
                expr = SSelp(
                    site.reg.dtype, value.expr, prior.expr, guard_mark.expr
                )
            else:
                expr = SSelp(
                    site.reg.dtype, prior.expr, value.expr, guard_mark.expr
                )
            return Marked(VState.VALID, expr)

        return self._mark_unguarded(site, inst, decision)

    def _mark_unguarded(
        self,
        site: DefSite,
        inst,
        decision: Optional[DecisionFn],
    ) -> Marked:
        if isinstance(inst, Atom):
            return Marked(VState.INVALID)  # non-idempotent read

        if isinstance(inst, Ld):
            # CheckMemOW first: it is cached, walks no dependence, and an
            # overwritten location is INVALID whatever the base address.
            if not inst.space.read_only and not self.memory_intact(
                site.label, site.index
            ):
                return Marked(VState.INVALID)
            base = self._mark_operand(
                site, inst.base, DType.U32, decision
            )
            if base.state is not VState.VALID:
                return Marked(base.state)
            return Marked(
                VState.VALID,
                SLoad(inst.space, inst.dtype, base.expr, inst.offset),
            )

        if isinstance(inst, Setp):
            state, marks = _merge_lazily(
                self._mark_operand(site, src, inst.dtype, decision)
                for src in inst.srcs
            )
            if state is not VState.VALID:
                return Marked(state)
            a, b = marks
            return Marked(VState.VALID, SSetp(inst.cmp, inst.dtype, a.expr, b.expr))

        if isinstance(inst, Selp):
            operands = [(src, inst.dtype) for src in inst.srcs]
            operands.append((inst.pred, DType.PRED))
            state, marks = _merge_lazily(
                self._mark_operand(site, op, dtype, decision)
                for op, dtype in operands
            )
            if state is not VState.VALID:
                return Marked(state)
            a, b, p = marks
            return Marked(
                VState.VALID, SSelp(inst.dtype, a.expr, b.expr, p.expr)
            )

        if isinstance(inst, Alu):
            state, marks = _merge_lazily(
                self._mark_operand(site, src, inst.dtype, decision)
                for src in inst.srcs
            )
            if state is not VState.VALID:
                return Marked(state)
            return Marked(
                VState.VALID,
                SOp(inst.op, inst.dtype, tuple(m.expr for m in marks)),
            )

        return Marked(VState.INVALID)

    def _mark_operand(
        self,
        site: DefSite,
        op: Operand,
        dtype: DType,
        decision: Optional[DecisionFn],
    ) -> Marked:
        if isinstance(op, Imm):
            return Marked(VState.VALID, SImm(op.value, op.dtype))
        if isinstance(op, Special):
            return Marked(VState.VALID, SSpecial(op.name))
        if isinstance(op, SymRef):
            return Marked(VState.VALID, SSymRef(op.name))
        return self._mark_reg_at(
            site.label, site.index, op, decision
        )

    # -- Algorithm 2: decision-dependence collection ---------------------------------------

    def overwriting_checkpoints(
        self, cd: PlannedCheckpoint
    ) -> Set[PlannedCheckpoint]:
        """OWCkpts: checkpoints that may overwrite ``cd``'s slot (same
        register, same color — conservatively, all other checkpoints of the
        register when coloring is absent)."""
        color = 0
        if self.coloring is not None and cd.kind is CheckpointKind.LUP:
            color = self.coloring.color_of(cd.key, cd.site.label)
        out: Set[PlannedCheckpoint] = set()
        for inst in self.instances:
            if inst.cp is cd or inst.reg != cd.reg:
                continue
            other = 0
            if self.coloring is not None:
                other = self.coloring.color_of(inst.cp.key, inst.block)
            if other == color:
                out.add(inst.cp)
        return out

    def _deps_from_def(
        self,
        site: DefSite,
        cv: PlannedCheckpoint,
        decision: DecisionFn,
        deps: Set[PlannedCheckpoint],
        visited: Set[DefSite],
    ) -> None:
        if site in visited:
            return
        visited.add(site)
        cp = self.cp_at_site.get(site)
        if cp is not None and cp is not cv:
            d = decision(cp)
            if d is PruneState.COMMITTED:
                deps.update(self.overwriting_checkpoints(cp))
                return  # traversal stops at committed checkpoints
            if d is PruneState.UNDECIDED:
                deps.add(cp)
                deps.update(self.overwriting_checkpoints(cp))
                # continue the traversal to find committed ones deeper
        inst = self.cfg.block(site.label).instructions[site.index]
        regs = list(inst.reg_uses())
        if inst.guard is not None:
            self._deps_from_reg(
                site.label, site.index, site.reg, cv, decision, deps, visited
            )
        for reg in regs:
            self._deps_from_reg(
                site.label, site.index, reg, cv, decision, deps, visited
            )

    def _deps_from_reg(
        self,
        label: str,
        index: int,
        reg: Reg,
        cv: PlannedCheckpoint,
        decision: DecisionFn,
        deps: Set[PlannedCheckpoint],
        visited: Set[DefSite],
    ) -> None:
        sites = [
            s
            for s in self.rdefs.reaching_at(label, index, reg)
            if not s.is_entry
        ]
        for site in sites:
            self._deps_from_def(site, cv, decision, deps, visited)
        if len(sites) > 1:
            for site in sites:
                for cd in self.ctrldep.of(site.label):
                    branch_blk = self.cfg.block(cd.branch_block)
                    self._deps_from_reg(
                        cd.branch_block,
                        len(branch_blk.instructions),
                        cd.pred,
                        cv,
                        decision,
                        deps,
                        visited,
                    )
