"""Recovery tables, restore actions, and slice expressions in isolation."""

import pytest

from repro.core.pipeline import LaunchConfig, PennyCompiler, PennyConfig
from repro.core.recovery_meta import RestoreAction
from repro.core.slices import (
    SImm,
    SLoad,
    SOp,
    SSelp,
    SSetp,
    SSlot,
    SSpecial,
    SSymRef,
    slice_size,
    slots_used,
)
from repro.gpusim.executor import Executor, Launch, f2b
from repro.gpusim.memory import MemoryImage
from repro.ir import KernelBuilder
from repro.ir.types import DType, MemSpace


class TestSliceExpressions:
    def test_slice_size_counts_nodes(self):
        expr = SOp(
            "add",
            DType.U32,
            (SImm(1), SOp("mul", DType.U32, (SSpecial("%tid.x"), SImm(4)))),
        )
        assert slice_size(expr) == 5

    def test_slice_size_of_leaves(self):
        for leaf in (SImm(0), SSpecial("%tid.x"), SSymRef("A"), SSlot("%r", 0)):
            assert slice_size(leaf) == 1

    def test_selp_and_setp_sizes(self):
        pred = SSetp("lt", DType.U32, SImm(1), SImm(2))
        sel = SSelp(DType.U32, SImm(10), SImm(20), pred)
        assert slice_size(pred) == 3
        assert slice_size(sel) == 6

    def test_slots_used_walks_everything(self):
        expr = SSelp(
            DType.U32,
            SSlot("%a", 0),
            SLoad(MemSpace.GLOBAL, DType.U32, SSlot("%b", 1), 4),
            SSetp("eq", DType.U32, SSlot("%c", 0), SImm(0)),
        )
        found = {(s.reg_name, s.color) for s in slots_used(expr)}
        assert found == {("%a", 0), ("%b", 1), ("%c", 0)}

    def test_slice_size_rejects_garbage(self):
        with pytest.raises(TypeError):
            slice_size("not a slice")


class TestRestoreAction:
    def test_slot_action(self):
        action = RestoreAction(reg_name="%r1", dtype="u32", slot_color=1)
        assert action.is_slot

    def test_slice_action(self):
        action = RestoreAction(
            reg_name="%r1", dtype="u32", slice_expr=SImm(7)
        )
        assert not action.is_slot


class TestSliceEvaluation:
    """Drive the recovery runtime's evaluator through a compiled kernel by
    corrupting registers that are restored via slices."""

    def _compiled(self):
        b = KernelBuilder("k", params=[("A", "ptr"), ("bias", "u32")])
        tid = b.special_u32("%tid.x")
        a = b.ld_param("A")
        bias = b.ld_param("bias")
        off = b.shl(tid, 2)
        addr = b.add(a, off)
        b.ld("global", addr, dtype="u32")  # anti-dep trigger (dead value)
        x = b.add(tid, bias)  # recomputable live-in: slice = tid + [bias]
        b.st("global", addr, x)
        y = b.mul(x, 2)
        b.st("global", addr, y, offset=256)
        b.ret()
        return PennyCompiler(PennyConfig(overwrite="sa")).compile(
            b.finish(), LaunchConfig(threads_per_block=16, num_blocks=1)
        )

    def test_sliced_registers_pruned(self):
        result = self._compiled()
        assert result.stats["checkpoints_pruned"] > 0
        # every boundary restore must be slice-based for the pruned regs
        slice_restores = [
            a
            for entry in result.recovery.regions.values()
            for a in entry.restores
            if not a.is_slot
        ]
        assert slice_restores

    def test_recovery_through_slices(self):
        from repro.gpusim.campaign import FaultCampaign

        result = self._compiled()

        def make_memory():
            mem = MemoryImage()
            addr = mem.alloc_global(128)
            mem.set_param("A", addr)
            mem.set_param("bias", 100)
            return mem

        campaign = FaultCampaign(
            result.kernel, Launch(1, 16), make_memory, (0, 128)
        )
        golden = campaign.golden_output()
        assert golden[:4] == [100, 101, 102, 103]
        report = campaign.run_random(30, seed=42, bits_per_fault=1)
        summary = report.summary()
        assert summary["sdc"] == 0 and summary["due"] == 0
        assert summary["recovered"] > 0


class TestRecoveryTableShape:
    def test_no_duplicate_restores_per_entry(self):
        from repro.bench import get_benchmark

        bench = get_benchmark("STC")
        wl = bench.workload()
        result = PennyCompiler(PennyConfig(overwrite="sa")).compile(
            bench.fresh_kernel(), wl.launch_config
        )
        for entry in result.recovery.regions.values():
            names = [a.reg_name for a in entry.restores]
            assert len(names) == len(set(names)), entry.entry_label

    def test_forced_commits_counted(self):
        from repro.bench import get_benchmark

        bench = get_benchmark("STC")
        wl = bench.workload()
        result = PennyCompiler(PennyConfig(overwrite="sa")).compile(
            bench.fresh_kernel(), wl.launch_config
        )
        assert result.recovery.forced_commits >= 0
