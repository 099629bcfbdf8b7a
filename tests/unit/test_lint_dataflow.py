"""The generic worklist solver and the shipped lint analyses."""

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import Analysis, Direction, Solver
from repro.ir.parser import parse_kernel
from repro.lint.dataflow import (
    solve_definite_assignment,
    solve_symbol_taint,
    solve_thread_taint,
    uninitialized_reads,
)


def _cfg(text: str) -> CFG:
    return CFG(parse_kernel(text))


DIAMOND = """
.entry k (.param .ptr A) {
ENTRY:
  ld.param.u32 %a, [A];
  mov.u32 %t, %tid.x;
  setp.lt.u32 %p, %t, 16;
  @%p bra LEFT;
RIGHT:
  mov.u32 %x, 1;
  mov.u32 %y, 2;
  bra JOIN;
LEFT:
  mov.u32 %y, 3;
  bra JOIN;
JOIN:
  add.u32 %z, %y, 1;
  st.global.u32 [%a], %z;
  ret;
}
"""


class TestDefiniteAssignment:
    def test_one_armed_def_is_not_definite_at_join(self):
        solver = solve_definite_assignment(_cfg(DIAMOND))
        assert "%x" not in solver.block_in["JOIN"]

    def test_both_armed_def_is_definite_at_join(self):
        solver = solve_definite_assignment(_cfg(DIAMOND))
        assert "%y" in solver.block_in["JOIN"]

    def test_before_after_replay_mid_block(self):
        solver = solve_definite_assignment(_cfg(DIAMOND))
        # ENTRY: %a defined by instruction 0, %t by 1
        assert "%a" not in solver.before("ENTRY", 0)
        assert "%a" in solver.after("ENTRY", 0)
        assert "%t" not in solver.before("ENTRY", 1)
        assert "%t" in solver.before("ENTRY", 2)

    def test_unreachable_block_starts_at_boundary(self):
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  ret;\n"
            "DEAD:\n"
            "  ret;\n"
            "}\n"
        )
        solver = solve_definite_assignment(cfg)
        # a must-analysis treats unreachable code as having established
        # nothing, not everything
        assert solver.block_in["DEAD"] == frozenset()


class TestUninitializedReads:
    def test_clean_kernel_has_none(self):
        assert uninitialized_reads(_cfg(DIAMOND)) == []

    def test_never_written_register_is_flagged(self):
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  add.u32 %r1, %r0, %a;\n"
            "  st.global.u32 [%a], %r1;\n"
            "  ret;\n"
            "}\n"
        )
        flagged = uninitialized_reads(cfg)
        assert [(l, i, r.name) for l, i, r in flagged] == [
            ("ENTRY", 1, "%r0")
        ]

    def test_guarded_def_does_not_count(self):
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  setp.lt.u32 %p, %a, 16;\n"
            "  @%p mov.u32 %x, 1;\n"
            "  st.global.u32 [%a], %x;\n"
            "  ret;\n"
            "}\n"
        )
        assert any(r.name == "%x" for _, _, r in uninitialized_reads(cfg))

    def test_same_guard_chain_is_accepted(self):
        # @%p ld %v; @%p add %w, %v — whenever the read executes, so did
        # the def: the predicated butterfly idiom must stay clean.
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  setp.lt.u32 %p, %a, 16;\n"
            "  @%p ld.global.u32 %v, [%a];\n"
            "  @%p add.u32 %w, %v, 1;\n"
            "  @%p st.global.u32 [%a], %w;\n"
            "  ret;\n"
            "}\n"
        )
        assert uninitialized_reads(cfg) == []

    def test_predicate_redefinition_invalidates_the_chain(self):
        # The guard is recomputed between the def and the use, so the
        # use may execute without its def.
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  setp.lt.u32 %p, %a, 16;\n"
            "  @%p ld.global.u32 %v, [%a];\n"
            "  setp.ge.u32 %p, %a, 8;\n"
            "  @%p add.u32 %w, %v, 1;\n"
            "  @%p st.global.u32 [%a], %w;\n"
            "  ret;\n"
            "}\n"
        )
        assert any(r.name == "%v" for _, _, r in uninitialized_reads(cfg))

    def test_opposite_sense_guard_is_not_accepted(self):
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  setp.lt.u32 %p, %a, 16;\n"
            "  @%p ld.global.u32 %v, [%a];\n"
            "  @!%p add.u32 %w, %v, 1;\n"
            "  @!%p st.global.u32 [%a], %w;\n"
            "  ret;\n"
            "}\n"
        )
        assert any(r.name == "%v" for _, _, r in uninitialized_reads(cfg))


class TestThreadTaint:
    def test_tid_derivation_chain_is_tainted(self):
        solver = solve_thread_taint(_cfg(DIAMOND))
        out = solver.block_out["ENTRY"]
        assert "%t" in out
        assert "%p" in out  # setp over a tainted operand
        assert "%a" not in out  # param load is uniform

    def test_guarded_write_under_tainted_guard_taints_dst(self):
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  mov.u32 %t, %tid.x;\n"
            "  setp.lt.u32 %p, %t, 16;\n"
            "  mov.u32 %x, 0;\n"
            "  @%p mov.u32 %x, 1;\n"
            "  st.global.u32 [%a], %x;\n"
            "  ret;\n"
            "}\n"
        )
        solver = solve_thread_taint(cfg)
        assert "%x" in solver.block_out["ENTRY"]
        # ...but only from the guarded write on: the unconditional zero
        # is still uniform
        assert "%x" not in solver.before("ENTRY", 4)
        assert "%x" in solver.after("ENTRY", 4)

    def test_uniform_redefinition_clears_taint(self):
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  mov.u32 %x, %tid.x;\n"
            "  mov.u32 %x, 7;\n"
            "  st.global.u32 [%a], %x;\n"
            "  ret;\n"
            "}\n"
        )
        solver = solve_thread_taint(cfg)
        assert "%x" not in solver.block_out["ENTRY"]

    def test_load_taints_only_through_address(self):
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  mov.u32 %t, %tid.x;\n"
            "  add.u32 %pa, %a, %t;\n"
            "  ld.global.u32 %v, [%pa];\n"
            "  ld.global.u32 %u, [%a];\n"
            "  st.global.u32 [%a], %v;\n"
            "  ret;\n"
            "}\n"
        )
        solver = solve_thread_taint(cfg)
        out = solver.block_out["ENTRY"]
        assert "%v" in out  # per-thread address: per-thread value
        assert "%u" not in out  # same address for all threads


class TestSymbolTaint:
    def test_symbol_address_arithmetic_is_tracked(self):
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "  .shared .b32 buf[16];\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  mov.u32 %b, buf;\n"
            "  add.u32 %pb, %b, 4;\n"
            "  ld.shared.u32 %v, [%pb];\n"
            "  st.global.u32 [%a], %v;\n"
            "  ret;\n"
            "}\n"
        )
        solver = solve_symbol_taint(cfg, ["buf"])
        out = solver.block_out["ENTRY"]
        assert "%b" in out and "%pb" in out
        # a value loaded *from* the buffer is data, not an address
        assert "%v" not in out


class _LiveRegs(Analysis):
    """Classic backward live-variables, expressed over the solver."""

    direction = Direction.BACKWARD

    def meet(self, a, b):
        return a | b

    def transfer(self, label, index, inst, value):
        if inst.guard is None:
            value = value - frozenset(r.name for r in inst.defs())
        return value | frozenset(r.name for r in inst.reg_uses())


class TestBackwardDirection:
    def test_backward_before_after_replay(self):
        cfg = _cfg(DIAMOND)
        solver = Solver(cfg, _LiveRegs())
        # JOIN: add %z, %y, 1; st [%a], %z; ret
        assert "%y" in solver.before("JOIN", 0)
        assert "%y" not in solver.after("JOIN", 0)
        assert "%z" in solver.before("JOIN", 1)
        assert "%z" not in solver.after("JOIN", 1)


class TestTaintEdgeCases:
    """Select joins, loop-carried taint, and taint across compiled
    checkpoint/restore code — the shapes the selective-protection
    analyses lean on."""

    def test_selp_joins_taint_from_either_value_operand(self):
        # dst = pred ? a : b — taint flows in through a, b, or the
        # predicate; a fully uniform selp stays clean.
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  mov.u32 %t, %tid.x;\n"
            "  mov.u32 %u, 7;\n"
            "  setp.lt.u32 %pc, %u, 16;\n"
            "  selp.u32 %m1, %t, %u, %pc;\n"
            "  selp.u32 %m2, %u, %u, %pc;\n"
            "  st.global.u32 [%a], %m1;\n"
            "  st.global.u32 [%a], %m2;\n"
            "  ret;\n"
            "}\n"
        )
        solver = solve_thread_taint(cfg)
        out = solver.block_out["ENTRY"]
        assert "%m1" in out  # one arm is %tid-derived
        assert "%m2" not in out  # both arms and predicate uniform

    def test_selp_tainted_predicate_taints_dst(self):
        # the selected value differs per thread even when both arms are
        # uniform, because *which* arm is picked varies
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  mov.u32 %t, %tid.x;\n"
            "  setp.lt.u32 %pc, %t, 16;\n"
            "  selp.u32 %m, 1, 2, %pc;\n"
            "  st.global.u32 [%a], %m;\n"
            "  ret;\n"
            "}\n"
        )
        assert "%m" in solve_thread_taint(cfg).block_out["ENTRY"]

    def test_symbol_taint_joins_through_selp(self):
        # either arm holding a buf-derived address taints the select
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "  .shared .b32 buf[16];\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  mov.u32 %b, buf;\n"
            "  mov.u32 %c, 64;\n"
            "  setp.lt.u32 %pc, %c, 16;\n"
            "  selp.u32 %sel, %b, %c, %pc;\n"
            "  ld.shared.u32 %v, [%sel];\n"
            "  st.global.u32 [%a], %v;\n"
            "  ret;\n"
            "}\n"
        )
        solver = solve_symbol_taint(cfg, ["buf"])
        assert "%sel" in solver.block_out["ENTRY"]

    def test_loop_carried_taint_reaches_fixpoint(self):
        # %x starts uniform and picks up taint on the backedge (from
        # %t); only the second worklist pass over the loop can see it —
        # the solver must iterate to a fixpoint, not stop after one
        # sweep.
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  mov.u32 %t, %tid.x;\n"
            "  mov.u32 %x, 0;\n"
            "  mov.u32 %i, 0;\n"
            "L_TOP:\n"
            "  add.u32 %x, %x, %t;\n"
            "  add.u32 %i, %i, 1;\n"
            "  setp.lt.u32 %c, %i, 4;\n"
            "  @%c bra L_TOP;\n"
            "EXIT:\n"
            "  st.global.u32 [%a], %x;\n"
            "  ret;\n"
            "}\n"
        )
        solver = solve_thread_taint(cfg)
        assert "%x" in solver.block_in["L_TOP"]  # carried around
        assert "%x" in solver.block_in["EXIT"]

    def test_loop_carried_uniform_stays_uniform(self):
        # the dual: a loop-carried accumulator fed only by uniform
        # values must NOT be tainted by mere loop membership
        cfg = _cfg(
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  mov.u32 %x, 0;\n"
            "  mov.u32 %i, 0;\n"
            "L_TOP:\n"
            "  add.u32 %x, %x, 3;\n"
            "  add.u32 %i, %i, 1;\n"
            "  setp.lt.u32 %c, %i, 4;\n"
            "  @%c bra L_TOP;\n"
            "EXIT:\n"
            "  st.global.u32 [%a], %x;\n"
            "  ret;\n"
            "}\n"
        )
        solver = solve_thread_taint(cfg)
        assert "%x" not in solver.block_in["EXIT"]

    def test_taint_across_compiled_checkpoint_restore(self):
        # Penny's emitted checkpoint/restore code (shared-memory stores
        # indexed by %tid, slot-base arithmetic on %ckb_*) must not
        # confuse either taint analysis: the compiled kernel's dataflow
        # still solves to a fixpoint, the checkpoint base register is
        # thread-varying (tid-indexed slots), and restoring a uniform
        # register does not invent taint for it.
        from repro.core.pipeline import LaunchConfig, PennyCompiler, PennyConfig
        from repro.ir.parser import parse_kernel

        src = (
            ".entry k (.param .ptr A) {\n"
            "ENTRY:\n"
            "  ld.param.u32 %a, [A];\n"
            "  mov.u32 %t, %tid.x;\n"
            "  mul.u32 %o, %t, 4;\n"
            "  add.u32 %p, %a, %o;\n"
            "  mov.u32 %i, 0;\n"
            "L_TOP:\n"
            "  ld.global.u32 %v, [%p];\n"
            "  add.u32 %v, %v, 1;\n"
            "  st.global.u32 [%p], %v;\n"
            "  add.u32 %i, %i, 1;\n"
            "  setp.lt.u32 %c, %i, 4;\n"
            "  @%c bra L_TOP;\n"
            "EXIT:\n"
            "  ret;\n"
            "}\n"
        )
        result = PennyCompiler(PennyConfig()).compile(
            parse_kernel(src),
            LaunchConfig(threads_per_block=32, num_blocks=1),
        )
        cfg = CFG(result.kernel)
        taint = solve_thread_taint(cfg)
        # the fixpoint exists and per-thread state stayed per-thread
        exit_in = taint.block_in["EXIT"]
        assert "%p" in taint.block_out["ENTRY"]
        # checkpoint-base registers index shared slots by %tid: tainted
        ckb = [
            r
            for blk in cfg.blocks
            for i in blk.instructions
            for r in i.defs()
            if r.name.startswith("%ckb_")
        ]
        assert ckb, "compiled kernel emitted no checkpoint base"
        for reg in ckb:
            assert any(
                reg.name in taint.block_out[blk.label]
                for blk in cfg.blocks
            )
        # the uniform trip counter is restored from a checkpoint slot
        # (a tid-indexed shared load) — conservative taint is fine, but
        # the solver must still classify the never-checkpointed uniform
        # param load as uniform
        assert "%a" not in exit_in
