"""Classic compiler analyses over the PTX-subset IR.

Everything Penny's passes need: control-flow graph, dominators, natural
loops with nesting depth, per-point liveness, reaching definitions /
def-use chains, a field-insensitive alias analysis for GPU memory spaces,
and memory anti-dependence detection (the input to region formation).
Liveness, reaching definitions, the vulnerability analyses of
:mod:`repro.analysis.vuln` and the lint analyses all run on the one
worklist solver in :mod:`repro.analysis.dataflow`.
"""

from repro.analysis.cfg import CFG
from repro.analysis.dominators import Dominators
from repro.analysis.loops import Loop, LoopInfo
from repro.analysis.liveness import Liveness
from repro.analysis.reachingdefs import DefSite, ReachingDefs
from repro.analysis.alias import AddressExpr, AliasAnalysis, AliasResult
from repro.analysis.antidep import AntiDependence, find_memory_antideps

__all__ = [
    "CFG",
    "Dominators",
    "Loop",
    "LoopInfo",
    "Liveness",
    "DefSite",
    "ReachingDefs",
    "AddressExpr",
    "AliasAnalysis",
    "AliasResult",
    "AntiDependence",
    "find_memory_antideps",
]
