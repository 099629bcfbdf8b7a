"""Backend-selectable executor construction.

Every consumer of the simulator — the CLI, the fuzz oracle, the campaign
engine, the experiment scripts — used to construct
:class:`repro.gpusim.executor.Executor` directly.  This module is the
seam that lets a second engine slot in: a :class:`ExecutorBackend`
protocol naming the surface both engines implement, a registry keyed by
backend name, and the :func:`make_executor` factory everything now calls.

Backend resolution (:func:`resolve_backend`):

1. an explicit ``backend=`` argument wins ("scalar" / "vector"),
2. ``backend="auto"`` consults the ``REPRO_SIM_BACKEND`` environment
   variable if set,
3. otherwise "auto" picks the vectorized engine — the backends are
   bit-for-bit interchangeable (enforced by the differential A/B suite),
   so the default is simply the fast one.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Protocol, runtime_checkable

from repro.coding.parity import ParityCode
from repro.gpusim.executor import ExecutionResult, Executor, Launch
from repro.gpusim.memory import MemoryImage
from repro.ir.module import Kernel

#: environment variable consulted when ``backend="auto"``
BACKEND_ENV_VAR = "REPRO_SIM_BACKEND"

#: valid values for every ``backend=`` argument in the public API
BACKEND_CHOICES = ("auto", "scalar", "vector")


@runtime_checkable
class ExecutorBackend(Protocol):
    """What every execution engine provides.

    Both engines are constructed with the same keyword surface (see
    :func:`make_executor`) and must produce bit-identical
    :class:`ExecutionResult`\\ s for the same kernel, launch, memory
    image, and fault plan — including fault-hook ordering, recovery
    behavior, and exception messages.  The scalar interpreter is the
    semantic oracle; the vector engine is the throughput engine.  Both
    run a launch through the one driver,
    :func:`repro.gpusim.executor.run_launch`, and implement only how one
    CTA runs (``_run_block(launch, mem, ctaid, result)``).
    """

    backend_name: str
    kernel: Kernel
    fault_plan: object

    def run(self, launch: Launch, mem: MemoryImage) -> ExecutionResult:
        """Execute the kernel over the launch grid against ``mem``."""
        ...


def _make_vector(kernel: Kernel, **kwargs) -> ExecutorBackend:
    from repro.gpusim.vexec import VectorExecutor

    return VectorExecutor(kernel, **kwargs)


_BACKENDS: Dict[str, Callable[..., ExecutorBackend]] = {
    "scalar": Executor,
    "vector": _make_vector,
}


def resolve_backend(backend: str = "auto") -> str:
    """Normalize a backend request to a concrete engine name."""
    if backend is None:
        backend = "auto"
    if backend == "auto":
        backend = os.environ.get(BACKEND_ENV_VAR, "").strip() or "vector"
        if backend == "auto":
            backend = "vector"
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r} "
            f"(choose from {', '.join(BACKEND_CHOICES)})"
        )
    return backend


def make_executor(
    kernel: Kernel,
    *,
    backend: str = "auto",
    rf_code_factory=ParityCode,
    max_instructions_per_thread: int = 2_000_000,
    max_recoveries_per_thread: int = 1000,
    fault_plan=None,
) -> ExecutorBackend:
    """Construct an execution engine for ``kernel``.

    The single construction point for simulators: callers select an
    engine by name (or leave ``backend="auto"``) instead of hard-coding a
    class, and all engine knobs are keyword-only so the two engines can
    never drift apart in constructor signature.
    """
    name = resolve_backend(backend)
    factory = _BACKENDS[name]
    return factory(
        kernel,
        rf_code_factory=rf_code_factory,
        max_instructions_per_thread=max_instructions_per_thread,
        max_recoveries_per_thread=max_recoveries_per_thread,
        fault_plan=fault_plan,
    )
