"""The typed CompileError hierarchy and its carrying of pass context."""

import pytest

from repro.core.errors import (
    CloneError,
    CompileError,
    ConfigError,
    FallbackExhaustedError,
    InvalidKernelError,
    PruningError,
    StorageError,
)
from repro.core.pipeline import (
    LaunchConfig,
    PennyCompiler,
    PennyConfig,
    clone_kernel,
)
from repro.core.storage import StorageBudget
from repro.ir import KernelBuilder


def tiny_kernel():
    b = KernelBuilder("t", params=[("A", "ptr")])
    a = b.ld_param("A")
    v = b.ld("global", a, dtype="u32")
    b.st("global", a, b.add(v, 1))
    b.ret()
    return b.finish()


LAUNCH = LaunchConfig(threads_per_block=32, num_blocks=1)


class TestErrorHierarchy:
    def test_config_error_is_value_error(self):
        # pre-existing callers catch ValueError for bad knob values
        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigError, CompileError)

    def test_unknown_pruning_mode(self):
        cfg = PennyConfig(pruning="wat")
        with pytest.raises(ConfigError) as ei:
            PennyCompiler(cfg).compile(tiny_kernel(), LAUNCH)
        assert ei.value.pass_name == "pruning"
        assert "wat" in str(ei.value)

    def test_unknown_storage_mode(self):
        cfg = PennyConfig(storage_mode="floppy")
        with pytest.raises(ConfigError) as ei:
            PennyCompiler(cfg).compile(tiny_kernel(), LAUNCH)
        assert ei.value.pass_name == "storage"

    def test_error_carries_kernel_snapshot(self):
        cfg = PennyConfig(pruning="nope")
        with pytest.raises(CompileError) as ei:
            PennyCompiler(cfg).compile(tiny_kernel(), LAUNCH)
        err = ei.value
        assert err.kernel_name == "t"
        assert err.kernel_ptx and ".entry t" in err.kernel_ptx

    def test_to_dict_round_trips_fields(self):
        err = PruningError(
            "no slice for cp", scheme="Penny", detail={"key": "x"}
        )
        d = err.to_dict()
        assert d["type"] == "PruningError"
        assert d["pass"] == "pruning"
        assert d["scheme"] == "Penny"
        assert d["detail"] == {"key": "x"}

    def test_str_includes_pass_and_scheme(self):
        err = StorageError("over capacity", scheme="Penny")
        assert "storage" in str(err)
        assert "Penny" in str(err)

    def test_invalid_kernel_error(self):
        kernel = tiny_kernel()
        kernel.blocks[-1].instructions.pop()  # drop ret: falls off the end
        with pytest.raises(InvalidKernelError) as ei:
            PennyCompiler(PennyConfig()).compile(kernel, LAUNCH)
        assert isinstance(ei.value, ValueError)  # legacy contract

    @pytest.mark.parametrize("copy", [True, False])
    def test_auto_rr_arm_error_keeps_the_input_snapshot(
        self, copy, monkeypatch
    ):
        """A pass that fails with no kernel in scope, inside the RR arm
        of an auto compile, reports the kernel it was handed, not the
        arm's half-compiled rewrite of it."""
        import repro.core.pipeline as pipeline
        from repro.bench import get_benchmark
        from repro.core.errors import RecoveryMetaError
        from repro.ir import print_kernel

        def failing(*args, **kwargs):
            raise RecoveryMetaError("no recovery table")

        monkeypatch.setattr(pipeline, "build_recovery_table", failing)
        bench = get_benchmark("STC")
        kernel = bench.fresh_kernel()
        source = print_kernel(kernel)
        with pytest.raises(RecoveryMetaError) as ei:
            PennyCompiler(PennyConfig(overwrite="auto")).compile(
                kernel, bench.workload().launch_config, copy=copy
            )
        assert ei.value.kernel_ptx == source


class TestCloneGuard:
    def test_clone_of_compiled_kernel_raises(self):
        result = PennyCompiler(PennyConfig()).compile(tiny_kernel(), LAUNCH)
        with pytest.raises(CloneError) as ei:
            clone_kernel(result.kernel)
        # names the compiled-meta keys so the misuse is diagnosable
        assert "recovery_table" in str(ei.value)

    def test_clone_of_fresh_kernel_is_fine(self):
        clone = clone_kernel(tiny_kernel())
        clone.validate()

    def test_recompiling_compiled_output_raises_typed(self):
        compiler = PennyCompiler(PennyConfig())
        result = compiler.compile(tiny_kernel(), LAUNCH)
        with pytest.raises(CompileError):
            compiler.compile(result.kernel, LAUNCH)


class TestStorageCapacity:
    def test_shared_capacity_overflow_is_typed(self):
        # a budget with almost no shared memory cannot hold any slots
        budget = StorageBudget(shared_per_sm=8)
        cfg = PennyConfig(storage_mode="shared")
        with pytest.raises(StorageError) as ei:
            PennyCompiler(cfg, budget=budget).compile(
                tiny_kernel(), LaunchConfig(threads_per_block=256,
                                            num_blocks=4)
            )
        assert ei.value.pass_name == "storage"

    def test_global_storage_immune_to_shared_budget(self):
        budget = StorageBudget(shared_per_sm=8)
        cfg = PennyConfig(storage_mode="global")
        result = PennyCompiler(cfg, budget=budget).compile(
            tiny_kernel(), LAUNCH
        )
        assert result.kernel.meta.get("recovery_table") is not None


class TestFallbackExhausted:
    def test_terminal_cause(self):
        causes = [
            ("as-configured", PruningError("boom")),
            ("sa", StorageError("bang")),
        ]
        err = FallbackExhaustedError("all rungs failed", causes)
        assert isinstance(err.terminal_cause, StorageError)
        assert err.causes == causes

    def test_empty_causes(self):
        err = FallbackExhaustedError("nothing attempted", [])
        assert err.terminal_cause is None
