"""Field-insensitive alias analysis for GPU memory references.

Region formation must find every memory anti-dependence (load before a
possibly-aliasing store), so the compiler needs a may-alias judgement
between two memory references.  We compute a symbolic *address expression*
for each reference by walking def-use chains:

    addr = root + sum(coeff_i * term_i) + const

where ``root`` identifies the buffer (a pointer kernel parameter or a shared
array symbol — distinct roots are assumed not to alias, the usual
``restrict`` discipline of GPU kernels), the symbolic terms are special
registers (``%tid.x``...) or *opaque* values (loop induction variables,
loaded values, control-flow joins), and ``const`` is a byte offset.

Two references may alias unless the analysis can prove they don't:
different spaces, provably different roots, or identical symbolic parts
with different constant offsets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.reachingdefs import DefSite, ReachingDefs
from repro.ir.instructions import Alu, Atom, Ld, St
from repro.ir.types import Imm, MemSpace, Reg, Special, SymRef

_MASK32 = 0xFFFFFFFF


class AliasResult(enum.Enum):
    NO = "no"
    MAY = "may"
    MUST = "must"


@dataclass(frozen=True)
class AddressExpr:
    """Symbolic address: root + linear terms + constant offset."""

    space: MemSpace
    root: Optional[str]  # None = unknown buffer
    terms: FrozenSet[Tuple[str, int]]  # (symbol, coefficient) pairs
    const: int = 0

    @property
    def is_opaque_root(self) -> bool:
        return self.root is None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [self.root or "?"]
        for sym, coeff in sorted(self.terms):
            parts.append(f"{coeff}*{sym}")
        if self.const:
            parts.append(str(self.const))
        return f"{self.space.value}[{' + '.join(parts)}]"


@dataclass
class _Sym:
    """Mutable accumulator for a symbolic value during expression walking."""

    root: Optional[str] = None
    terms: Dict[str, int] = field(default_factory=dict)
    const: int = 0
    opaque: bool = False

    def freeze(self, space: MemSpace) -> AddressExpr:
        if self.opaque:
            return AddressExpr(space, None, frozenset(), 0)
        terms = frozenset(
            (sym, coeff) for sym, coeff in self.terms.items() if coeff
        )
        return AddressExpr(space, self.root, terms, self.const & _MASK32)


def _opaque(tag: str) -> _Sym:
    return _Sym(terms={tag: 1})


class AliasAnalysis:
    """Address-expression based may-alias analysis for one kernel.

    ``param_noalias`` controls whether two *different* pointer parameters
    are assumed disjoint.  PTX carries no ``restrict`` information, so the
    faithful default is False: loads from one parameter buffer may alias
    stores through another, exactly the conservatism that makes the paper's
    benchmarks grow per-iteration regions (and makes STC's loop-carried
    checkpoints un-prunable).  Setting it True models a source-level
    compiler with restrict-qualified pointers.
    """

    def __init__(
        self,
        cfg: CFG,
        rdefs: Optional[ReachingDefs] = None,
        param_noalias: bool = False,
    ):
        self.cfg = cfg
        self.rdefs = rdefs or ReachingDefs(cfg)
        self.param_noalias = param_noalias
        self._value_cache: Dict[DefSite, _Sym] = {}
        self._pointer_params = {
            p.name for p in cfg.kernel.params if p.is_pointer
        }

    # -- address expressions ---------------------------------------------------

    def address_of(self, label: str, index: int) -> AddressExpr:
        """Address expression of the memory instruction at (label, index)."""
        inst = self.cfg.block(label).instructions[index]
        if not isinstance(inst, (Ld, St, Atom)):
            raise TypeError(f"not a memory instruction: {inst}")
        base = inst.base
        if isinstance(base, SymRef):
            sym = _Sym(root=base.name)
        elif isinstance(base, Imm):
            sym = _Sym(root=f"@abs", const=int(base.value))
        elif isinstance(base, Special):
            sym = _Sym(terms={base.name: 1})
        else:
            sym = self._reg_value(label, index, base, frozenset())
        result = _Sym(
            root=sym.root,
            terms=dict(sym.terms),
            const=sym.const + inst.offset,
            opaque=sym.opaque,
        )
        return result.freeze(inst.space)

    def _reg_value(
        self, label: str, index: int, reg: Reg, visiting: FrozenSet[DefSite]
    ) -> _Sym:
        sites = self.rdefs.reaching_at(label, index, reg)
        if len(sites) != 1:
            # Join of several definitions (or uninitialized): opaque value
            # distinguished by the use point.
            return _opaque(f"join:{label}:{index}:{reg.name}")
        (site,) = sites
        return self._site_value(site, visiting)

    def _site_value(self, site: DefSite, visiting: FrozenSet[DefSite]) -> _Sym:
        if site in self._value_cache:
            return self._value_cache[site]
        if site in visiting:
            # Cyclic dependence: a loop induction variable.  Its value varies
            # per iteration — opaque, unique per def site.
            return _opaque(f"cycle:{site.label}:{site.index}:{site.reg.name}")
        if site.is_entry:
            return _opaque(f"entry:{site.reg.name}")
        result = self._compute_site_value(site, visiting | {site})
        self._value_cache[site] = result
        return result

    def _compute_site_value(
        self, site: DefSite, visiting: FrozenSet[DefSite]
    ) -> _Sym:
        inst = self.cfg.block(site.label).instructions[site.index]
        if inst.guard is not None:
            # A guarded def merges with the fall-through value: opaque.
            return _opaque(f"guarded:{site.label}:{site.index}")
        if isinstance(inst, Ld):
            if inst.space is MemSpace.PARAM and isinstance(inst.base, SymRef):
                # Loading a kernel parameter: the canonical buffer root for
                # pointers, a stable opaque scalar otherwise.
                param = self._param(inst.base.name)
                if param is not None and param.is_pointer:
                    return _Sym(root=inst.base.name)
                return _opaque(f"param:{inst.base.name}")
            return _opaque(f"load:{site.label}:{site.index}")
        if not isinstance(inst, Alu):
            return _opaque(f"def:{site.label}:{site.index}")

        def operand_value(op) -> _Sym:
            if isinstance(op, Imm):
                return _Sym(const=int(op.value))
            if isinstance(op, Special):
                return _Sym(terms={op.name: 1})
            if isinstance(op, SymRef):
                return _Sym(root=op.name)
            return self._reg_value(site.label, site.index, op, visiting)

        op = inst.op
        if op == "mov" or op == "cvt":
            return operand_value(inst.srcs[0])
        if op in ("add", "sub"):
            a = operand_value(inst.srcs[0])
            b = operand_value(inst.srcs[1])
            return self._combine_linear(a, b, -1 if op == "sub" else 1, site)
        if op == "shl" and isinstance(inst.srcs[1], Imm):
            a = operand_value(inst.srcs[0])
            return self._scale(a, 1 << int(inst.srcs[1].value), site)
        if op == "mul" and isinstance(inst.srcs[1], Imm):
            a = operand_value(inst.srcs[0])
            return self._scale(a, int(inst.srcs[1].value), site)
        if op == "mul" and isinstance(inst.srcs[0], Imm):
            a = operand_value(inst.srcs[1])
            return self._scale(a, int(inst.srcs[0].value), site)
        if op == "mad" and isinstance(inst.srcs[1], Imm):
            a = operand_value(inst.srcs[0])
            scaled = self._scale(a, int(inst.srcs[1].value), site)
            c = operand_value(inst.srcs[2])
            return self._combine_linear(scaled, c, 1, site)
        return _opaque(f"alu:{site.label}:{site.index}")

    @staticmethod
    def _combine_linear(a: _Sym, b: _Sym, sign: int, site: DefSite) -> _Sym:
        if a.opaque or b.opaque:
            return _opaque(f"mix:{site.label}:{site.index}")
        if a.root is not None and b.root is not None:
            return _opaque(f"tworoots:{site.label}:{site.index}")
        root = a.root or b.root
        if sign < 0 and b.root is not None:
            # Subtracting a base pointer: not an address anymore.
            return _opaque(f"subroot:{site.label}:{site.index}")
        terms = dict(a.terms)
        for sym, coeff in b.terms.items():
            terms[sym] = terms.get(sym, 0) + sign * coeff
        return _Sym(root=root, terms=terms, const=a.const + sign * b.const)

    @staticmethod
    def _scale(a: _Sym, factor: int, site: DefSite) -> _Sym:
        if a.opaque or a.root is not None:
            return _opaque(f"scale:{site.label}:{site.index}")
        return _Sym(
            terms={sym: coeff * factor for sym, coeff in a.terms.items()},
            const=a.const * factor,
        )

    def _param(self, name: str):
        for p in self.cfg.kernel.params:
            if p.name == name:
                return p
        return None

    # -- alias queries -----------------------------------------------------------

    def alias(self, a: AddressExpr, b: AddressExpr) -> AliasResult:
        """May/must/no-alias judgement between two address expressions.

        The judgement is *intra-thread*: special-register terms denote the
        same value in both expressions.  Inter-thread aliasing is handled by
        Penny treating synchronization as region boundaries.
        """
        if a.space is not b.space:
            return AliasResult.NO
        if a.is_opaque_root or b.is_opaque_root:
            return AliasResult.MAY
        if a.root != b.root:
            both_params = (
                a.root in self._pointer_params
                and b.root in self._pointer_params
            )
            if both_params and not self.param_noalias:
                # Distinct pointer parameters may point anywhere into the
                # same global buffer (no restrict information in PTX).
                return AliasResult.MAY
            return AliasResult.NO
        if a.terms == b.terms:
            if a.const == b.const:
                return AliasResult.MUST
            # Same symbolic index, different static offsets: assuming the
            # 4-byte access granularity of our IR, offsets >= 4 apart can
            # never overlap.
            if abs(a.const - b.const) >= 4:
                return AliasResult.NO
            return AliasResult.MAY
        return AliasResult.MAY
