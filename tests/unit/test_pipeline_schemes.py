"""Compiler pipeline configuration, scheme presets, iGPU, and regalloc."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import (
    LaunchConfig,
    PennyCompiler,
    PennyConfig,
    clone_kernel,
)
from repro.core.schemes import (
    SCHEME_BOLT_AUTO,
    SCHEME_BOLT_GLOBAL,
    SCHEME_PENNY,
    igpu_transform,
    scheme_config,
)
from repro.ir import KernelBuilder, print_kernel
from repro.regalloc import allocate, count_registers


def little_kernel():
    b = KernelBuilder("k", params=[("A", "ptr"), ("n", "u32")])
    a = b.ld_param("A")
    n = b.ld_param("n")
    i = b.mov(0, dst=b.reg("u32", "%i"))
    b.label("HEAD")
    p = b.setp("ge", i, n)
    b.bra("EXIT", pred=p)
    off = b.shl(i, 2)
    addr = b.add(a, off)
    v = b.ld("global", addr, dtype="u32")
    v2 = b.mul(v, 2)
    b.st("global", addr, v2)
    b.add(i, 1, dst=i)
    b.bra("HEAD")
    b.label("EXIT")
    b.ret()
    return b.finish()


class TestRegalloc:
    def test_allocation_within_budget(self):
        k = little_kernel()
        result = allocate(k, budget=8, rewrite=False)
        assert result.num_regs <= 8

    def test_rewrite_renames_to_physical(self):
        k = little_kernel()
        allocate(k, budget=16, rewrite=True)
        names = {r.name for r in k.all_registers()}
        assert all(n.startswith("%r") or n.startswith("%spill") for n in names)
        k.validate()

    def test_rewritten_kernel_still_runs(self):
        from repro.gpusim import Executor, Launch, MemoryImage

        k = little_kernel()
        mem = MemoryImage()
        addr = mem.alloc_global(8)
        mem.upload(addr, [1, 2, 3, 4, 5, 6, 7, 8])
        mem.set_param("A", addr)
        mem.set_param("n", 8)
        allocate(k, budget=16, rewrite=True)
        Executor(k, rf_code_factory=lambda: None).run(Launch(1, 1), mem)
        assert mem.download(addr, 8) == [2, 4, 6, 8, 10, 12, 14, 16]

    def test_count_registers_stable(self):
        k = little_kernel()
        before = print_kernel(k)
        n = count_registers(k)
        assert n > 0
        assert print_kernel(k) == before  # counting must not mutate

    def test_budget_too_small_rejected(self):
        with pytest.raises(ValueError):
            allocate(little_kernel(), budget=1)

    def test_allocation_does_not_depend_on_the_hash_seed(self):
        """Intervals that tie on start and end are taken in name order,
        not in the order of the liveness sets, which follows the hash
        seed: two child interpreters at different seeds allocate the
        suite's input kernels and 100 fuzz kernels alike."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _ALLOCATIONS],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                stdout=subprocess.PIPE,
                text=True,
            )
            for seed in ("1", "2")
        ]
        outputs = []
        for child in children:
            stdout, _ = child.communicate(timeout=300)
            assert child.returncode == 0
            outputs.append(json.loads(stdout))
        assert len(outputs[0]) == 125 * 7
        assert outputs[0] == outputs[1]


#: prints ``[mapping, spilled]`` of every allocation, in a fixed order
_ALLOCATIONS = """
import json
from repro.bench import ALL_BENCHMARKS
from repro.fuzz.generator import generate_case
from repro.regalloc import allocate

kernels = [b.fresh_kernel() for b in ALL_BENCHMARKS]
kernels += [generate_case(seed).kernel() for seed in range(100)]
out = []
for kernel in kernels:
    for budget in (2, 3, 4, 8, 16, 63, 256):
        result = allocate(kernel, budget=budget, rewrite=False)
        out.append([result.mapping, result.spilled])
print(json.dumps(out, sort_keys=True))
"""


def _allocation_kernels():
    """Every suite kernel compiled under Penny, plus 30 fuzz kernels."""
    from repro.bench import ALL_BENCHMARKS
    from repro.fuzz.generator import generate_case

    kernels = [
        PennyCompiler(scheme_config(SCHEME_PENNY))
        .compile(b.fresh_kernel(), b.workload().launch_config)
        .kernel
        for b in ALL_BENCHMARKS
    ]
    return kernels + [generate_case(seed).kernel() for seed in range(30)]


class TestFirstFreeRegister:
    """Linear scan in start order that takes the smallest free index uses
    exactly as many registers as the most intervals sharing one point
    (the clique number of the interval graph), capped at the budget."""

    @pytest.fixture(scope="class")
    def kernels(self):
        return _allocation_kernels()

    @pytest.mark.parametrize("budget", [4, 8, 256])
    def test_num_regs_is_the_capped_clique_number(self, kernels, budget):
        from repro.regalloc.allocator import _live_intervals

        for kernel in kernels:
            intervals, _ = _live_intervals(kernel)
            points = {iv.start for iv in intervals}
            clique = max(
                sum(iv.start <= p <= iv.end for iv in intervals)
                for p in points
            )
            result = allocate(kernel, budget=budget, rewrite=False)
            assert result.num_regs == min(budget, clique), kernel.name

    @pytest.mark.parametrize("budget", [4, 8, 256])
    def test_overlapping_intervals_never_share_a_register(
        self, kernels, budget
    ):
        from repro.regalloc.allocator import _live_intervals

        for kernel in kernels:
            intervals, _ = _live_intervals(kernel)
            mapping = allocate(kernel, budget=budget, rewrite=False).mapping
            placed = [iv for iv in intervals if iv.reg.name in mapping]
            for i, a in enumerate(placed):
                for b in placed[i + 1:]:
                    if a.overlaps(b):
                        assert mapping[a.reg.name] != mapping[b.reg.name], (
                            kernel.name, a.reg.name, b.reg.name
                        )


class TestSchemePresets:
    def test_known_schemes(self):
        for name in (SCHEME_BOLT_GLOBAL, SCHEME_BOLT_AUTO, SCHEME_PENNY):
            cfg = scheme_config(name)
            assert cfg.name == name

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            scheme_config("Hope")

    def test_bolt_is_eager_basic(self):
        cfg = scheme_config(SCHEME_BOLT_GLOBAL)
        assert cfg.placement == "eager"
        assert cfg.pruning == "basic"
        assert cfg.storage_mode == "global"
        assert not cfg.low_opts

    def test_penny_fully_enabled(self):
        cfg = scheme_config(SCHEME_PENNY)
        assert cfg.placement == "bimodal"
        assert cfg.pruning == "optimal"
        assert cfg.storage_mode == "auto"
        assert cfg.low_opts

    def test_configs_are_copies(self):
        a = scheme_config(SCHEME_PENNY)
        a.low_opts = False
        assert scheme_config(SCHEME_PENNY).low_opts


class TestIgpu:
    def test_renames_antidependent_registers(self):
        k = little_kernel()
        renamed = igpu_transform(k)
        k.validate()
        # loop-carried %i cannot be renamed, but the transform must not
        # corrupt the kernel
        assert renamed >= 0

    def test_functionally_equivalent(self):
        from repro.gpusim import Executor, Launch, MemoryImage

        def run(kernel):
            mem = MemoryImage()
            addr = mem.alloc_global(8)
            mem.upload(addr, list(range(1, 9)))
            mem.set_param("A", addr)
            mem.set_param("n", 8)
            Executor(kernel, rf_code_factory=lambda: None).run(
                Launch(1, 1), mem
            )
            return mem.download(addr, 8)

        assert run(little_kernel()) == run(
            (lambda k: (igpu_transform(k), k)[1])(little_kernel())
        )


class TestPipeline:
    def test_clone_kernel_is_deep(self):
        k = little_kernel()
        c = clone_kernel(k)
        c.blocks[0].instructions.pop()
        assert len(k.blocks[0].instructions) != len(c.blocks[0].instructions)

    def test_compile_does_not_mutate_input_by_default(self):
        k = little_kernel()
        before = print_kernel(k)
        PennyCompiler(PennyConfig(overwrite="sa")).compile(k, LaunchConfig(32, 2))
        assert print_kernel(k) == before

    def test_all_pruning_modes_compile(self):
        for pruning in ("none", "basic", "optimal"):
            cfg = PennyConfig(pruning=pruning, overwrite="sa")
            result = PennyCompiler(cfg).compile(
                little_kernel(), LaunchConfig(32, 2)
            )
            assert result.stats["checkpoints_total"] >= 0

    def test_pruning_mode_ordering(self):
        committed = {}
        for pruning in ("none", "basic", "optimal"):
            cfg = PennyConfig(pruning=pruning, overwrite="sa")
            result = PennyCompiler(cfg).compile(
                little_kernel(), LaunchConfig(32, 2)
            )
            committed[pruning] = result.stats["checkpoints_committed"]
        assert committed["optimal"] <= committed["basic"] <= committed["none"]

    def test_auto_overwrite_picks_cheaper(self):
        cfg = PennyConfig(overwrite="auto")
        result = PennyCompiler(cfg).compile(little_kernel(), LaunchConfig(32, 2))
        assert result.stats["overwrite_scheme"] in ("rr", "sa")
        assert "auto_selected" in result.stats

    def test_invalid_pruning_mode(self):
        cfg = PennyConfig(pruning="psychic", overwrite="sa")
        with pytest.raises(ValueError):
            PennyCompiler(cfg).compile(little_kernel(), LaunchConfig(32, 2))

    def test_stats_populated(self):
        result = PennyCompiler(PennyConfig(overwrite="sa")).compile(
            little_kernel(), LaunchConfig(32, 2)
        )
        for key in (
            "estimated_cost",
            "checkpoints_total",
            "registers",
            "num_boundaries",
            "emitted_checkpoints",
        ):
            assert key in result.stats

    def test_unoptimized_lowering_scans_register_names_once(
        self, monkeypatch
    ):
        """Bolt/Global lowers every checkpoint with inline address
        temporaries; naming them all takes one scan of the kernel."""
        import repro.core.pipeline as pipeline
        from repro.bench import get_benchmark
        from repro.ir.module import Kernel

        scans = []
        real_scan = Kernel.all_registers
        real_generate = pipeline.generate
        in_codegen = []

        def counting_scan(self):
            if in_codegen:
                scans.append(self.name)
            return real_scan(self)

        def generate(*args, **kwargs):
            in_codegen.append(True)
            try:
                return real_generate(*args, **kwargs)
            finally:
                in_codegen.pop()

        monkeypatch.setattr(Kernel, "all_registers", counting_scan)
        monkeypatch.setattr(pipeline, "generate", generate)
        bench = get_benchmark("STC")
        result = PennyCompiler(scheme_config(SCHEME_BOLT_GLOBAL)).compile(
            bench.fresh_kernel(), bench.workload().launch_config
        )
        assert result.stats["emitted_checkpoints"] >= 3
        assert len(scans) == 1

    def test_param_noalias_reduces_boundaries(self):
        b = KernelBuilder("two", params=[("A", "ptr"), ("B", "ptr")])
        a = b.ld_param("A")
        bb = b.ld_param("B")
        v = b.ld("global", a, dtype="u32")
        b.st("global", bb, v)
        b.ret()
        k = b.finish()
        strict = PennyCompiler(
            PennyConfig(overwrite="sa", param_noalias=False)
        ).compile(k, LaunchConfig(32, 1))
        relaxed = PennyCompiler(
            PennyConfig(overwrite="sa", param_noalias=True)
        ).compile(k, LaunchConfig(32, 1))
        assert relaxed.stats["num_boundaries"] <= strict.stats["num_boundaries"]


class TestSpilling:
    def test_tight_budget_spills_and_still_computes(self):
        from repro.gpusim import Executor, Launch, MemoryImage

        def build():
            b = KernelBuilder("fat", params=[("A", "ptr")])
            a = b.ld_param("A")
            # more simultaneously-live values than a budget of 6 can hold
            vals = [b.ld("global", a, offset=4 * i, dtype="u32")
                    for i in range(10)]
            total = vals[0]
            for v in vals[1:]:
                total = b.add(total, v)
            b.st("global", a, total, offset=4096)
            b.ret()
            return b.finish()

        def run(kernel):
            mem = MemoryImage()
            addr = mem.alloc_global(2048)
            mem.upload(addr, list(range(1, 11)))
            mem.set_param("A", addr)
            Executor(kernel, rf_code_factory=lambda: None).run(
                Launch(1, 1), mem
            )
            return mem.download(addr + 4096, 1)[0]

        golden = run(build())
        assert golden == sum(range(1, 11))
        spilled_kernel = build()
        result = allocate(spilled_kernel, budget=6, rewrite=True)
        assert result.spilled, "budget 6 must force spills"
        assert run(spilled_kernel) == golden


# -- the auto arms (§6.3) ---------------------------------------------------------

#: the policies the compile goldens pin under Penny
ARM_POLICIES = ("full", "address-only", "top-k-vulnerable")


def _counting_renames(monkeypatch):
    """Wrap the pipeline's ``apply_renaming``; the returned list holds
    the webs each call renamed."""
    import repro.core.pipeline as pipeline

    counts = []
    real = pipeline.apply_renaming

    def counting(*args, **kwargs):
        renamed = real(*args, **kwargs)
        counts.append(renamed)
        return renamed

    monkeypatch.setattr(pipeline, "apply_renaming", counting)
    return counts


def _penny(policy, overwrite):
    from dataclasses import replace

    return replace(
        scheme_config(SCHEME_PENNY), policy=policy, overwrite=overwrite
    )


def _bench_ids():
    from repro.bench import ALL_BENCHMARKS

    return [b.abbr for b in ALL_BENCHMARKS]


class TestAutoArms:
    @pytest.mark.parametrize("policy", ARM_POLICIES)
    @pytest.mark.parametrize("abbr", _bench_ids())
    def test_sa_repeats_rr_when_nothing_was_renamed(
        self, abbr, policy, monkeypatch
    ):
        """Without a renamed web the RR arm ran the SA arm's passes: the
        explicit SA compile prints the same kernel, with the same stats
        but ``overwrite_scheme``."""
        from repro.bench import get_benchmark

        bench = get_benchmark(abbr)
        launch = bench.workload().launch_config
        renames = _counting_renames(monkeypatch)
        rr = PennyCompiler(_penny(policy, "rr")).compile(
            bench.fresh_kernel(), launch
        )
        if sum(renames):
            pytest.skip(f"the RR arm renamed {sum(renames)} web(s)")
        sa = PennyCompiler(_penny(policy, "sa")).compile(
            bench.fresh_kernel(), launch
        )
        assert print_kernel(sa.kernel) == print_kernel(rr.kernel)
        assert rr.stats.pop("overwrite_scheme") == "rr"
        assert sa.stats.pop("overwrite_scheme") == "sa"
        assert sa.stats == rr.stats

    def test_auto_keeps_the_cheaper_arm_when_renaming_fires(
        self, monkeypatch
    ):
        from tests.unit.test_checkpoint_passes import figure4_kernel

        launch = LaunchConfig(32, 2)
        renames = _counting_renames(monkeypatch)
        rr = PennyCompiler(PennyConfig(overwrite="rr")).compile(
            figure4_kernel(), launch
        )
        assert sum(renames) == 1
        sa = PennyCompiler(PennyConfig(overwrite="sa")).compile(
            figure4_kernel(), launch
        )
        auto = PennyCompiler(PennyConfig(overwrite="auto")).compile(
            figure4_kernel(), launch
        )
        # min() keeps the first of equal costs: RR wins ties
        cheaper = min((rr, sa), key=lambda r: r.stats["estimated_cost"])
        assert print_kernel(auto.kernel) == print_kernel(cheaper.kernel)
        assert auto.stats == {
            **cheaper.stats,
            "auto_selected": cheaper.stats["overwrite_scheme"],
        }

    @pytest.mark.parametrize("copy, parses", [(True, 1), (False, 0)])
    def test_auto_parses_only_the_private_copy(
        self, copy, parses, monkeypatch
    ):
        """The RR arm compiles the kernel ``_compile_auto`` is handed: a
        kernel renaming leaves alone is parsed only by ``pass.clone``."""
        import repro.core.pipeline as pipeline
        from repro.bench import get_benchmark

        calls = []
        real = pipeline.parse_kernel

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(pipeline, "parse_kernel", counting)
        bench = get_benchmark("BFS")
        PennyCompiler(PennyConfig(overwrite="auto")).compile(
            bench.fresh_kernel(), bench.workload().launch_config, copy=copy
        )
        assert len(calls) == parses

    def test_auto_without_copy_returns_the_callers_kernel(self):
        from repro.bench import get_benchmark

        bench = get_benchmark("BFS")
        kernel = bench.fresh_kernel()
        result = PennyCompiler(PennyConfig(overwrite="auto")).compile(
            kernel, bench.workload().launch_config, copy=False
        )
        assert result.stats["auto_selected"] == "rr"
        assert result.kernel is kernel

    @pytest.mark.parametrize("kernel, arms", [("BFS", 1), ("figure4", 2)])
    def test_auto_compiles_sa_only_after_a_rename(self, kernel, arms):
        """A kernel renaming leaves alone compiles one candidate; the
        Figure 4 kernel (one renamed web) compiles both."""
        import repro.obs as obs
        from repro.bench import get_benchmark
        from tests.unit.test_checkpoint_passes import figure4_kernel

        if kernel == "figure4":
            source, launch = figure4_kernel(), LaunchConfig(32, 2)
        else:
            bench = get_benchmark(kernel)
            source = bench.fresh_kernel()
            launch = bench.workload().launch_config
        tracer = obs.Tracer()
        with tracer:
            PennyCompiler(PennyConfig(overwrite="auto")).compile(
                source, launch
            )
        candidates = tracer.find("compile.candidate")
        assert [s.tags["overwrite"] for s in candidates] == (
            ["rr", "sa"][:arms]
        )
        (selected,) = [
            e for e in tracer.events if e.name == "compile.auto_selected"
        ]
        assert selected.tags["arms"] == arms
