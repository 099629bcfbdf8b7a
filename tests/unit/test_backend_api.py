"""Unit tests for the backend-selectable execution API.

Covers :func:`repro.gpusim.make_executor` / :func:`resolve_backend`
(explicit names, ``auto`` resolution, the ``REPRO_SIM_BACKEND``
environment override, rejection of unknown names), the
:class:`ExecutorBackend` protocol, the :func:`repro.simulate` facade,
and the ``backend`` field on :class:`ExecutionResult`.
"""

import pytest

import repro
from repro.gpusim import (
    BACKEND_CHOICES,
    Executor,
    ExecutorBackend,
    MemoryImage,
    make_executor,
    resolve_backend,
)
from repro.gpusim.backend import BACKEND_ENV_VAR
from repro.gpusim.executor import Launch
from repro.gpusim.faults import FaultPlan
from repro.gpusim.vexec import VectorExecutor
from repro.ir.builder import KernelBuilder


def _tiny_kernel():
    b = KernelBuilder("tiny", params=[("A", "ptr")])
    tid = b.special_u32("%tid.x")
    base = b.ld_param("A")
    addr = b.add(base, b.shl(tid, 2))
    v = b.ld("global", addr, dtype="u32")
    b.st("global", addr, b.add(v, 1))
    b.ret()
    return b.finish()


def _memory(n=32):
    mem = MemoryImage()
    buf = mem.alloc_global(n)
    mem.upload(buf, range(n))
    mem.set_param("A", buf)
    return mem, buf


# -- resolve_backend ---------------------------------------------------------


def test_resolve_explicit_names():
    assert resolve_backend("scalar") == "scalar"
    assert resolve_backend("vector") == "vector"


def test_resolve_auto_defaults_to_vector(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert resolve_backend("auto") == "vector"
    assert resolve_backend(None) == "vector"


def test_resolve_auto_honors_environment(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "scalar")
    assert resolve_backend("auto") == "scalar"
    # explicit names ignore the environment
    assert resolve_backend("vector") == "vector"


def test_resolve_rejects_unknown():
    with pytest.raises(ValueError, match="unknown executor backend"):
        resolve_backend("cuda")


def test_backend_choices_cover_registry():
    assert set(BACKEND_CHOICES) == {"auto", "scalar", "vector"}


# -- make_executor -----------------------------------------------------------


def test_make_executor_classes():
    kernel = _tiny_kernel()
    assert isinstance(make_executor(kernel, backend="scalar"), Executor)
    assert isinstance(
        make_executor(kernel, backend="vector"), VectorExecutor
    )


def test_both_engines_satisfy_protocol():
    kernel = _tiny_kernel()
    for backend in ("scalar", "vector"):
        ex = make_executor(kernel, backend=backend)
        assert isinstance(ex, ExecutorBackend)
        assert ex.backend_name == backend


def test_execution_result_records_backend():
    kernel = _tiny_kernel()
    for backend in ("scalar", "vector"):
        mem, _ = _memory()
        result = make_executor(kernel, backend=backend).run(
            Launch(grid=1, block=32), mem
        )
        assert result.backend == backend
        assert result.to_dict()["backend"] == backend


def test_backend_excluded_from_equality():
    """The A/B contract compares results across engines; the provenance
    field must not defeat it."""
    kernel = _tiny_kernel()
    results = []
    for backend in ("scalar", "vector"):
        mem, _ = _memory()
        results.append(
            make_executor(kernel, backend=backend).run(
                Launch(grid=1, block=32), mem
            )
        )
    assert results[0] == results[1]


def test_executor_direct_construction_still_works():
    """The pre-redesign spelling stays available for downstream code."""
    kernel = _tiny_kernel()
    mem, buf = _memory()
    result = Executor(kernel).run(Launch(grid=1, block=32), mem)
    assert result.backend == "scalar"
    assert mem.download(buf, 32) == [v + 1 for v in range(32)]


# -- repro.simulate ----------------------------------------------------------


def test_simulate_facade_accepts_kernel_and_compile_result():
    kernel = _tiny_kernel()
    mem, buf = _memory()
    stats = repro.simulate(
        kernel, launch=Launch(grid=1, block=32), mem=mem
    )
    assert stats.instructions > 0
    assert mem.download(buf, 32) == [v + 1 for v in range(32)]

    compiled = repro.protect(_tiny_kernel())
    mem2, buf2 = _memory()
    stats2 = repro.simulate(
        compiled, launch=Launch(grid=1, block=32), mem=mem2
    )
    assert mem2.download(buf2, 32) == [v + 1 for v in range(32)]
    assert stats2.backend == resolve_backend("auto")


def test_simulate_fault_plan_recovers():
    compiled = repro.protect(_tiny_kernel())
    for backend in ("scalar", "vector"):
        mem, buf = _memory()
        plan = FaultPlan(ctaid=0, tid=3, after_instructions=4, bits=(13,))
        stats = repro.simulate(
            compiled,
            launch=Launch(grid=1, block=32),
            mem=mem,
            backend=backend,
            fault_plan=plan,
        )
        assert stats.detections == stats.recoveries == 1
        assert mem.download(buf, 32) == [v + 1 for v in range(32)]
