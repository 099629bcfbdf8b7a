"""GPU architecture simulator (GPGPU-Sim stand-in).

A functional SIMT interpreter for the PTX-subset IR with:

- a parity/EDC-tracked register file — every register read is checked, so
  corrupted values can never propagate (the property Penny's recovery
  correctness rests on, Appendix A),
- shared / global / local / const / param memory spaces (ECC-protected:
  fault injection never touches them),
- barrier-synchronized thread blocks with divergence (threads execute
  independently and meet at barriers),
- a recovery runtime that catches parity exceptions, restores live-ins from
  checkpoint storage or recovery slices, and re-executes the region,
- a fault injector with three surfaces — register bits at chosen dynamic
  points, checkpoint slots in shared/global memory under a SECDED
  correct-or-escalate model, and strikes during recovery itself — and
  one campaign engine (:mod:`repro.gpusim.campaign`): a
  :class:`FaultCampaign` runs and classifies single injections with a
  DUE taxonomy, and a parallel, journaled sweep runs a campaign spec on
  it,
- an analytic timing model (occupancy + latency hiding) and an RF energy
  model (GPUWattch stand-in) fed by the interpreter's dynamic counts.

Two interchangeable execution engines sit behind :func:`make_executor`:
the scalar interpreter (:mod:`repro.gpusim.executor`, the semantic
oracle) and a NumPy lane-parallel engine (:mod:`repro.gpusim.vexec`) that
evaluates whole thread blocks per instruction.  They are bit-for-bit
equivalent — same results, counters, fault hooks, and recovery behavior —
so ``backend="auto"`` simply picks the fast one.

Fermi (Tesla C2050) and Volta (Titan V) configurations mirror the paper's
two evaluation targets.
"""

from repro.gpusim.config import FERMI_C2050, VOLTA_TITAN_V, GpuConfig
from repro.gpusim.memory import MemoryImage
from repro.gpusim.regfile import ParityError, RegisterFile
from repro.gpusim.executor import ExecutionResult, Executor, Launch
from repro.gpusim.backend import (
    BACKEND_CHOICES,
    ExecutorBackend,
    make_executor,
    resolve_backend,
)
from repro.gpusim.occupancy import occupancy
from repro.gpusim.timing import TimingModel, TimingReport
from repro.gpusim.energy import rf_energy
from repro.gpusim.faults import (
    CheckpointFaultPlan,
    ComposedFaultPlan,
    DueType,
    FaultOutcome,
    FaultPlan,
    RateFaultPlan,
    RecoveryFaultPlan,
    classify_due,
)
from repro.gpusim.campaign import (
    CampaignReport,
    CampaignSpec,
    FaultCampaign,
    InjectionRecord,
    JournalFsck,
    ParallelCampaign,
    fsck_journal,
    run_campaign,
    wilson_interval,
)

__all__ = [
    "GpuConfig",
    "FERMI_C2050",
    "VOLTA_TITAN_V",
    "MemoryImage",
    "RegisterFile",
    "ParityError",
    "Executor",
    "ExecutorBackend",
    "make_executor",
    "resolve_backend",
    "BACKEND_CHOICES",
    "Launch",
    "ExecutionResult",
    "occupancy",
    "TimingModel",
    "TimingReport",
    "rf_energy",
    "FaultCampaign",
    "FaultOutcome",
    "FaultPlan",
    "RateFaultPlan",
    "CheckpointFaultPlan",
    "RecoveryFaultPlan",
    "ComposedFaultPlan",
    "DueType",
    "classify_due",
    "CampaignSpec",
    "CampaignReport",
    "InjectionRecord",
    "JournalFsck",
    "ParallelCampaign",
    "fsck_journal",
    "run_campaign",
    "wilson_interval",
]
