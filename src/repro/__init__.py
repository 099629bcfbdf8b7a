"""Penny: compiler-directed soft error resilience for lightweight GPU
register file protection — a from-scratch reproduction of the PLDI 2020
paper, with every substrate it depends on.

Quickstart::

    import repro

    kernel = ...                     # build or parse a PTX-subset kernel
    result = repro.protect(kernel)   # full Penny pipeline, strict
    stats = repro.simulate(
        result, launch=repro.Launch(grid=1, block=32),
        mem=repro.MemoryImage(),
    )

:func:`protect` is the one-call compile entry point and
:func:`simulate` the one-call execute entry point (``backend="auto"``
picks the vectorized NumPy engine; pass ``backend="scalar"`` for the
reference interpreter).  Drop down to :class:`PennyCompiler` +
:class:`PennyConfig`, or :func:`repro.gpusim.make_executor`, when you
need to mix knobs the presets don't cover.  To watch a run, install a tracer first::

    with repro.obs.Tracer() as tracer:
        result = repro.protect(kernel)
    repro.obs.write_chrome_trace("trace.json", tracer)

Packages:

- :mod:`repro.coding`      — EDC/ECC codes and hardware cost models
- :mod:`repro.ir`          — the PTX-subset compiler IR
- :mod:`repro.analysis`    — CFG / dataflow / alias analyses
- :mod:`repro.regalloc`    — register allocation (CRAT stand-in)
- :mod:`repro.core`        — the Penny compiler itself
- :mod:`repro.gpusim`      — GPU simulator, recovery runtime, fault injection
- :mod:`repro.bench`       — the 25 Table-3 benchmarks
- :mod:`repro.experiments` — one module per paper table/figure
- :mod:`repro.obs`         — tracing, metrics, and exporters
"""

from typing import Optional, Union

from repro import obs
from repro.core.pipeline import (
    CompileResult,
    LaunchConfig,
    PennyCompiler,
    PennyConfig,
)
from repro.core.schemes import (
    SCHEME_BOLT_AUTO,
    SCHEME_BOLT_GLOBAL,
    SCHEME_IGPU,
    SCHEME_PENNY,
    Scheme,
    scheme_config,
)
from repro.gpusim.backend import make_executor
from repro.gpusim.campaign import FaultCampaign
from repro.gpusim.executor import ExecutionResult, Executor, Launch
from repro.gpusim.faults import FaultOutcome, FaultPlan
from repro.gpusim.memory import MemoryImage
from repro.ir.builder import KernelBuilder
from repro.ir.module import Kernel
from repro.ir.parser import parse_kernel, parse_module
from repro.ir.printer import print_kernel, print_module

__version__ = "1.0.0"


def protect(
    kernel: Union[Kernel, str],
    *,
    scheme: str = SCHEME_PENNY,
    overwrite: Union[Scheme, str, None] = None,
    strict: bool = True,
    launch: Optional[LaunchConfig] = None,
) -> CompileResult:
    """Protect a kernel against soft errors with one call.

    The documented entry point: picks the ``scheme`` preset (default:
    the full Penny pipeline), compiles, and returns a
    :class:`CompileResult` whose ``.kernel`` carries checkpoints and the
    recovery table.  All arguments but the kernel are keyword-only.

    :param kernel: a :class:`Kernel`, or PTX-subset source text.
    :param scheme: comparison-scheme preset name (``SCHEME_PENNY``,
        ``SCHEME_BOLT_GLOBAL``, ``SCHEME_BOLT_AUTO``).
    :param overwrite: override the preset's overwrite-prevention scheme
        (a :class:`Scheme` or any alias ``Scheme.parse`` accepts).
    :param strict: raise typed compile errors instead of degrading
        through the fallback lattice.
    :param launch: launch geometry for storage layout (defaults to
        ``LaunchConfig()``).
    """
    if isinstance(kernel, str):
        kernel = parse_kernel(kernel)
    config = scheme_config(scheme)
    if overwrite is not None:
        config.overwrite = Scheme.parse(overwrite)
    return PennyCompiler(config, strict=strict).compile(
        kernel, launch or LaunchConfig()
    )


def simulate(
    result: Union[CompileResult, Kernel],
    *,
    launch: Launch,
    mem: MemoryImage,
    backend: str = "auto",
    fault_plan=None,
) -> ExecutionResult:
    """Execute a protected kernel on the simulator with one call.

    The execution-side twin of :func:`protect`: accepts the
    :class:`CompileResult` ``protect`` returned (or a bare
    :class:`Kernel`), picks an execution engine, runs it, and returns
    the :class:`ExecutionResult`.  Outputs land in ``mem`` — download
    them from there.  All arguments but the kernel are keyword-only.

    :param result: a :class:`CompileResult` (its ``.kernel`` is run) or
        a :class:`Kernel`.
    :param launch: grid/block geometry (:class:`Launch`).
    :param mem: the :class:`MemoryImage` holding params and buffers.
    :param backend: ``"auto"`` (default — the vectorized NumPy engine),
        ``"scalar"`` (the reference interpreter), or ``"vector"``.
    :param fault_plan: optional fault-injection plan (e.g.
        :class:`FaultPlan`); hooks fire identically on both backends.
    """
    kernel = result.kernel if isinstance(result, CompileResult) else result
    executor = make_executor(kernel, backend=backend, fault_plan=fault_plan)
    return executor.run(launch, mem)


__all__ = [
    "protect",
    "simulate",
    "PennyCompiler",
    "PennyConfig",
    "CompileResult",
    "LaunchConfig",
    "Scheme",
    "SCHEME_IGPU",
    "SCHEME_BOLT_GLOBAL",
    "SCHEME_BOLT_AUTO",
    "SCHEME_PENNY",
    "scheme_config",
    "Executor",
    "ExecutionResult",
    "make_executor",
    "Launch",
    "MemoryImage",
    "FaultCampaign",
    "FaultPlan",
    "FaultOutcome",
    "Kernel",
    "KernelBuilder",
    "parse_kernel",
    "parse_module",
    "print_kernel",
    "print_module",
    "obs",
    "__version__",
]
