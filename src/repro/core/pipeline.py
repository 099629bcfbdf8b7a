"""The Penny compiler driver: §5's phase ordering behind one call.

:func:`PennyCompiler.compile` takes an input kernel (virtual registers,
no checkpoints) and produces a protected kernel plus a
:class:`CompileResult` with everything the evaluation needs: checkpoint
statistics, estimated costs, register demand, shared-memory consumption,
and the recovery table the simulator's runtime consumes.

Configuration knobs mirror the paper's evaluated variants:

===============  ==========================================================
``placement``    ``"eager"`` (Bolt) or ``"bimodal"`` (§6.2)
``pruning``      ``"none"``, ``"basic"`` (Bolt's random search), or
                 ``"optimal"`` (§6.4)
``storage_mode`` ``"shared"``, ``"global"``, or ``"auto"`` (§6.5)
``overwrite``    ``"rr"`` (renaming first), ``"sa"`` (2-coloring only),
                 ``"auto"`` (compile both, keep the cheaper — §6.3; SA
                 only when renaming renamed a web), or ``"none"`` (no
                 protection; Fig. 11's last bar)
``low_opts``     §6.6 address-computation LICM/CSE on checkpoint stores
===============  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Set, Tuple

import repro.obs as obs
from repro.analysis.alias import AliasAnalysis
from repro.analysis.cfg import CFG
from repro.analysis.liveness import Liveness
from repro.analysis.loops import LoopInfo
from repro.analysis.postdom import ControlDependence
from repro.analysis.reachingdefs import ReachingDefs
from repro.core.bimodal import bimodal_plan
from repro.core.checkpoints import (
    CheckpointKind,
    CheckpointPlan,
    PlannedCheckpoint,
    PruneState,
    eager_plan,
)
from repro.core.codegen import CodegenResult, generate
from repro.core.coloring import ColoringResult, color_checkpoints
from repro.core.costmodel import CostModel
from repro.core.errors import (
    CloneError,
    CompileError,
    ConfigError,
    FallbackExhaustedError,
    InvalidKernelError,
    ReconcileError,
    RenamingError,
)
from repro.core.hazards import detect_hazards, materialize_instances
from repro.core.liveins import LiveinAnalysis, analyze_liveins
from repro.core.pddg import PddgValidator
from repro.core.pruning import (
    PruneResult,
    prune_basic,
    prune_none,
    prune_optimal,
)
from repro.core.recovery_meta import (
    RecoveryTable,
    adjustment_recoveries,
    build_recovery_table,
)
from repro.core.regions import RegionInfo, form_regions
from repro.core.renaming import apply_renaming
from repro.core.storage import StorageBudget, assign_storage
from repro.ir.module import Kernel
from repro.ir.parser import parse_kernel
from repro.ir.printer import print_kernel
from repro.ir.types import Reg
from repro.regalloc import count_registers


@dataclass
class LaunchConfig:
    """The launch geometry the compiler needs for storage layout."""

    threads_per_block: int = 256
    num_blocks: int = 4

    @property
    def total_threads(self) -> int:
        return self.threads_per_block * self.num_blocks


@dataclass
class PennyConfig:
    """Compiler configuration; see module docstring for the knobs."""

    name: str = "penny"
    placement: str = "bimodal"
    pruning: str = "optimal"
    storage_mode: str = "auto"
    overwrite: str = "auto"
    low_opts: bool = True
    cost_base: int = 64
    cover_base: int = 2
    basic_prune_attempts: int = 64
    basic_prune_seed: int = 12345
    max_rename_rounds: int = 8
    max_replan_rounds: int = 8
    #: model restrict-qualified pointers (True) or faithful PTX aliasing
    #: where distinct pointer params may alias (False, the default)
    param_noalias: bool = False
    #: run the static recovery-metadata verifier (repro.core.verify) on the
    #: compiled kernel and raise on violations; off by default because the
    #: evaluation compiles hundreds of kernels, on in the test suite
    verify: bool = False
    #: run the pre-compile analyzer (repro.lint) on the input kernel and
    #: promote error-severity diagnostics to a typed
    #: :class:`repro.core.errors.LintError` before any pass runs
    lint: bool = False
    #: lint rule ids to disable (applies to ``lint`` above and to every
    #: analyzer run that receives this config)
    lint_disable: tuple = ()
    #: per-rule severity overrides, rule id -> "error"/"warning"/"note"
    lint_severity: Dict[str, str] = field(default_factory=dict)
    #: selective-protection policy (:class:`repro.policy.ProtectionPolicy`
    #: string form): ``full`` | ``address-only`` |
    #: ``top-k-vulnerable[:K]`` | ``detection-only`` | ``none``, plus
    #: optional ``;label=kind`` per-region overrides and ``;no-addr-guard``
    policy: str = "full"

    def __post_init__(self):
        # Normalize the overwrite knob to the typed Scheme enum (accepting
        # historical strings and aliases).  Imported lazily: schemes.py
        # imports PennyConfig from this module at load time.
        from repro.core.schemes import Scheme
        from repro.policy import PolicyError, ProtectionPolicy

        self.overwrite = Scheme.parse(self.overwrite)
        try:
            self.policy = str(ProtectionPolicy.parse(self.policy))
        except PolicyError as exc:
            raise ConfigError(str(exc), pass_name="config") from None

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serializable form: field-declaration key order,
        enums as their string values, tuples as lists.  The inverse of
        :meth:`from_dict` (round-trip preserves equality), and the
        configuration half of the serving layer's cache key."""
        from dataclasses import fields as _fields

        from repro.core.schemes import Scheme

        out: Dict[str, Any] = {}
        for f in _fields(self):
            value = getattr(self, f.name)
            if f.name == "overwrite":
                value = Scheme.parse(value).value
            elif f.name == "policy":
                # callers may assign a raw string after construction;
                # canonicalize so equal policies always serialize equal
                from repro.policy import ProtectionPolicy

                value = str(ProtectionPolicy.parse(value))
            elif f.name == "lint_disable":
                value = [str(v) for v in value]
            elif f.name == "lint_severity":
                value = {k: str(v) for k, v in sorted(value.items())}
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PennyConfig":
        """Rebuild a config from :meth:`to_dict` output.  Unknown keys
        raise :class:`repro.core.errors.ConfigError` — a forward-version
        dict must not silently compile under different knobs."""
        from dataclasses import fields as _fields

        known = {f.name for f in _fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"unknown PennyConfig field(s) {unknown}",
                pass_name="config",
            )
        kwargs = dict(payload)
        if "lint_disable" in kwargs:
            kwargs["lint_disable"] = tuple(kwargs["lint_disable"])
        if "lint_severity" in kwargs:
            kwargs["lint_severity"] = dict(kwargs["lint_severity"])
        return cls(**kwargs)


@dataclass
class CompileResult:
    """Everything produced by one compilation.

    Implements the :class:`repro.obs.Reportable` protocol: ``to_dict``
    is the complete JSONL-sink form, ``summary`` the headline numbers.
    """

    kernel: Kernel
    config: PennyConfig
    launch: LaunchConfig
    plan: CheckpointPlan
    regions: RegionInfo
    recovery: RecoveryTable
    coloring: Optional[ColoringResult]
    codegen: CodegenResult
    stats: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        from repro.core.schemes import Scheme

        return {
            "kind": "compile_result",
            "kernel": self.kernel.name,
            "scheme": self.config.name,
            "placement": self.config.placement,
            "pruning": self.config.pruning,
            "storage_mode": self.config.storage_mode,
            "overwrite": Scheme.parse(self.config.overwrite).value,
            "policy": self.config.policy,
            "launch": {
                "threads_per_block": self.launch.threads_per_block,
                "num_blocks": self.launch.num_blocks,
            },
            "boundaries": sorted(self.regions.boundaries),
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }

    def summary(self) -> Dict[str, Any]:
        keys = (
            "checkpoints_total",
            "checkpoints_committed",
            "checkpoints_pruned",
            "num_boundaries",
            "estimated_cost",
            "registers",
            "overwrite_scheme",
        )
        out: Dict[str, Any] = {"kernel": self.kernel.name,
                               "scheme": self.config.name}
        out.update({k: self.stats[k] for k in keys if k in self.stats})
        return out


#: metadata keys that mark a kernel as already compiled — a textual
#: round-trip would silently drop them (checkpoint stores survive the
#: printer, the recovery machinery does not).
_COMPILED_META_KEYS = (
    "recovery_table",
    "region_boundaries",
    "storage_assignment",
    "protected",
    "protection_policy",
    "protected_registers",
)


def clone_kernel(kernel: Kernel) -> Kernel:
    """Deep-copy a pre-compilation kernel via its textual form.

    Compiled kernels carry recovery metadata that the printer cannot
    represent; cloning one would produce a kernel that *looks* protected
    (checkpoint stores present) but silently recovers nothing.  Detect
    that and raise :class:`repro.core.errors.CloneError` instead.
    """
    return parse_kernel(_pristine_text(kernel))


def _pristine_text(kernel: Kernel) -> str:
    """The text of a pre-compilation kernel, which parses back to an
    equal kernel (:func:`clone_kernel` explains the ``CloneError``)."""
    present = [k for k in _COMPILED_META_KEYS if k in kernel.meta]
    if present:
        raise CloneError(
            f"cannot clone compiled kernel {kernel.name!r} via its textual "
            f"form: metadata {present} would be silently dropped",
            kernel=kernel,
            detail={"meta_keys": present},
        )
    return print_kernel(kernel)


class PennyCompiler:
    """Runs the full §5 pipeline over one kernel.

    ``strict=True`` (the default) preserves the historical contract: any
    pass failure raises a typed :class:`repro.core.errors.CompileError`.
    ``strict=False`` enables the **fallback lattice**: when the configured
    scheme fails, the compiler degrades — renaming non-convergence falls
    back to storage alternation (SA), an SA/coloring/pruning failure falls
    back to eager placement with no pruning, and the terminal rung
    checkpoints everything at region boundaries into global storage.
    Every fallback result must pass :func:`repro.core.verify.verify_compiled`
    before it is returned; the degradation path is recorded in
    ``CompileResult.stats["fallback_path"]``.
    """

    def __init__(
        self,
        config: Optional[PennyConfig] = None,
        budget: Optional[StorageBudget] = None,
        strict: bool = True,
        cache=None,
    ):
        self.config = config or PennyConfig()
        self.budget = budget or StorageBudget()
        self.strict = strict
        #: an explicit :class:`repro.serve.CompileCache`; when ``None``
        #: the context-installed cache (``repro.serve.active_cache``)
        #: applies, so ``with CompileCache(...):`` accelerates existing
        #: callers without threading a parameter through them
        self.cache = cache

    def compile(
        self,
        kernel: Kernel,
        launch: Optional[LaunchConfig] = None,
        copy: bool = True,
    ) -> CompileResult:
        """Compile ``kernel`` under this compiler's configuration.

        With ``copy=True`` the passes run on a private clone and the
        active compile cache applies.  With ``copy=False`` they rewrite
        ``kernel`` in place, the cache is bypassed, and under
        ``overwrite="auto"`` the RR arm is what rewrites it: when SA
        wins, ``result.kernel`` is the SA arm's kernel and ``kernel``
        holds the RR arm's rewrite.  An error from either arm that
        carries no snapshot of its own keeps the text of the input.
        """
        launch = launch or LaunchConfig()
        cache = self.cache
        if cache is None:
            from repro.serve.cache import active_cache

            cache = active_cache()
        # copy=False callers rely on the input kernel being rewritten in
        # place; serving a cached result would skip that side effect.
        if cache is None or not copy:
            return self._compile_uncached(kernel, launch, copy)
        from repro.serve.key import compile_cache_key

        key = compile_cache_key(
            kernel,
            self.config,
            launch=launch,
            budget=self.budget,
            strict=self.strict,
        )
        hit = cache.get(key)
        if hit is not None:
            return hit
        result = self._compile_uncached(kernel, launch, copy)
        cache.put(key, result)
        return result

    def _compile_uncached(
        self,
        kernel: Kernel,
        launch: LaunchConfig,
        copy: bool,
    ) -> CompileResult:
        from repro.core.schemes import Scheme

        with obs.span(
            "compile",
            kernel=kernel.name,
            scheme=self.config.name,
            overwrite=Scheme.parse(self.config.overwrite).value,
            strict=self.strict,
        ):
            try:
                kernel.validate()
            except ValueError as exc:
                raise InvalidKernelError(
                    str(exc), kernel=kernel
                ) from exc
            if copy:
                with obs.span("pass.clone"):
                    kernel = clone_kernel(kernel)

            if self.config.lint:
                self._lint_input(kernel)

            try:
                if self.strict:
                    result = self._dispatch(kernel, launch, self.config)
                else:
                    result = self._compile_with_fallback(kernel, launch)
            except CompileError as exc:
                exc.attach_kernel(kernel)
                raise
            self._count_result(result)
            return result

    def _lint_input(self, kernel: Kernel) -> None:
        """Run the pre-compile analyzer; promote error-severity findings
        to a typed :class:`LintError`.  Degrading cannot fix a broken
        input, so this gate applies in strict and fallback modes alike."""
        from repro.core.errors import LintError
        from repro.lint import lint_kernel

        with obs.span("pass.lint", kernel=kernel.name):
            report = lint_kernel(kernel, config=self.config)
        errors = report.errors
        if errors:
            raise LintError(
                f"{len(errors)} lint error(s): "
                + "; ".join(str(d) for d in errors[:5]),
                diagnostics=errors,
                kernel=kernel,
            )

    @staticmethod
    def _count_result(result: CompileResult) -> None:
        """Publish one compilation's headline counters (no-op unobserved)."""
        if obs.current_tracer() is None:
            return
        obs.inc("compile.kernels")
        obs.inc("compile.regions_cut", len(result.regions.boundaries))
        obs.inc("compile.checkpoints_placed", len(result.plan.checkpoints))
        obs.inc("compile.checkpoints_pruned", len(result.plan.pruned()))
        obs.inc("compile.checkpoints_committed", len(result.plan.committed()))
        obs.inc(
            "compile.adjustment_blocks",
            len(result.codegen.adjustment_labels),
        )
        obs.inc(
            "compile.emitted_checkpoints", result.codegen.emitted_checkpoints
        )
        obs.inc(
            "compile.address_insts", result.codegen.emitted_address_insts
        )
        obs.inc("compile.forced_commits", result.recovery.forced_commits)
        obs.gauge("compile.registers", result.stats.get("registers", 0.0))

    def _dispatch(
        self, kernel: Kernel, launch: LaunchConfig, config: PennyConfig
    ) -> CompileResult:
        from repro.policy import ProtectionPolicy

        policy = ProtectionPolicy.parse(config.policy)
        if policy.unprotected:
            return self._compile_unprotected(kernel, launch, policy)
        if config.overwrite == "auto":
            return self._compile_auto(kernel, launch)
        result, _ = self._compile_one(kernel, launch, config.overwrite)
        return result

    def _compile_unprotected(
        self, kernel: Kernel, launch: LaunchConfig, policy
    ) -> CompileResult:
        """``none`` / ``detection-only`` (with no protecting overrides):
        no regions, no checkpoints, no recovery metadata.  The kernel
        runs bare (the SDC baseline) or with the detection code on every
        register but nothing to recover from (every detection is a
        ``no_runtime`` DUE)."""
        from repro.policy import KIND_NONE

        with obs.span("pass.policy", policy=str(policy)):
            kernel.meta["protection_policy"] = str(policy)
            if policy.kind == KIND_NONE:
                kernel.meta["protected_registers"] = frozenset()
            # detection-only: no "protected_registers" key = all protected

        if self.config.verify:
            from repro.core.verify import check as verify_check

            with obs.span("pass.verify"):
                verify_check(kernel)

        result = CompileResult(
            kernel=kernel,
            config=self.config,
            launch=launch,
            plan=CheckpointPlan(),
            regions=RegionInfo(boundaries=set()),
            recovery=RecoveryTable(),
            coloring=None,
            codegen=CodegenResult(),
            stats={},
        )
        registers = float(count_registers(kernel))
        result.stats.update(
            {
                "overwrite_scheme": "none",
                "estimated_cost": 0.0,
                "checkpoints_total": 0.0,
                "checkpoints_committed": 0.0,
                "checkpoints_pruned": 0.0,
                "hazardous_registers": 0.0,
                "registers": registers,
                "shared_slots": 0.0,
                "global_slots": 0.0,
                "shared_ckpt_bytes": 0.0,
                "emitted_checkpoints": 0.0,
                "address_insts": 0.0,
                "forced_commits": 0.0,
                "num_boundaries": 0.0,
                "protection_policy": str(policy),
                "protected_registers": (
                    0.0 if policy.kind == KIND_NONE else registers
                ),
            }
        )
        return result

    # -- the fallback lattice (strict=False) -----------------------------------

    def fallback_lattice(self):
        """The degradation ladder: ``(rung_name, config)`` pairs, most
        capable first.  ``overwrite="none"`` configurations never gain
        protection by degrading (the rungs keep ``none``)."""
        from repro.core.schemes import Scheme

        cfg = self.config
        sa = Scheme.NONE if cfg.overwrite == Scheme.NONE else Scheme.SA
        rungs = [
            ("as-configured", cfg),
            ("sa", replace(cfg, overwrite=sa)),
            (
                "eager-noprune",
                replace(cfg, overwrite=sa, placement="eager", pruning="none"),
            ),
            (
                "boundary-global",
                replace(
                    cfg,
                    overwrite=sa,
                    placement="eager",
                    pruning="none",
                    storage_mode="global",
                    low_opts=False,
                ),
            ),
        ]
        seen = []
        out = []
        for name, rung_cfg in rungs:
            if rung_cfg in seen:
                continue
            seen.append(rung_cfg)
            out.append((name, rung_cfg))
        return out

    def _compile_with_fallback(
        self, kernel: Kernel, launch: LaunchConfig
    ) -> CompileResult:
        from repro.core.verify import VerificationError, verify_compiled

        lattice = self.fallback_lattice()
        causes = []
        path = []
        for level, (rung_name, rung_cfg) in enumerate(lattice):
            path.append(rung_name)
            candidate = clone_kernel(kernel)
            rung = PennyCompiler(rung_cfg, self.budget, strict=True)
            try:
                with obs.span("fallback.rung", rung=rung_name, level=level):
                    result = rung._dispatch(candidate, launch, rung_cfg)
                    with obs.span("pass.verify", rung=rung_name):
                        problems = verify_compiled(result.kernel)
                    if problems:
                        raise VerificationError(
                            f"{len(problems)} violation(s): "
                            + "; ".join(problems[:5])
                        )
            except (KeyboardInterrupt, SystemExit, MemoryError):
                raise
            except Exception as exc:  # degrade, do not die
                causes.append((rung_name, exc))
                obs.inc("compile.fallback_rung_failures")
                obs.event(
                    "fallback.degrade",
                    rung=rung_name,
                    error=type(exc).__name__,
                )
                continue
            result.stats["fallback_level"] = float(level)
            result.stats["fallback_path"] = "->".join(path)
            result.stats["degraded"] = float(level > 0)
            if level > 0:
                obs.inc("compile.degraded")
            if causes:
                result.stats["fallback_errors"] = "; ".join(
                    f"{name}: {type(e).__name__}" for name, e in causes
                )
            result.stats["verified"] = 1.0
            return result
        raise FallbackExhaustedError(
            "every fallback rung failed: "
            + "; ".join(
                f"{name}: {type(e).__name__}: {e}" for name, e in causes
            ),
            causes,
            kernel=kernel,
        )

    # -- auto selection of the overwrite-prevention scheme (§6.3) ------------

    def _compile_auto(
        self, kernel: Kernel, launch: LaunchConfig
    ) -> CompileResult:
        """Compile the RR arm on ``kernel`` itself, then the SA arm on a
        parse of its text from before, only if renaming changed the
        kernel: with no renamed web both arms run the same passes on
        equal kernels, and ``min`` keeps RR on the tie anyway.  An arm's
        error without a snapshot gets that text, not the rewrite."""
        from repro.core.schemes import Scheme

        pristine = _pristine_text(kernel)
        results = []
        candidate = kernel
        try:
            for scheme in (Scheme.RR, Scheme.SA):
                with obs.span("compile.candidate", overwrite=scheme.value):
                    result, renamed = self._compile_one(
                        candidate, launch, scheme
                    )
                results.append(result)
                if not renamed:
                    break
                candidate = parse_kernel(pristine)
        except CompileError as exc:
            if exc.kernel_ptx is None:
                exc.kernel_ptx = pristine
            raise
        best = min(results, key=lambda r: r.stats["estimated_cost"])
        best.stats["auto_selected"] = best.stats["overwrite_scheme"]
        obs.event(
            "compile.auto_selected",
            overwrite=best.stats["auto_selected"],
            arms=len(results),
        )
        return best

    # -- single-scheme pipeline ------------------------------------------------

    def _compile_one(
        self, kernel: Kernel, launch: LaunchConfig, overwrite: str
    ) -> Tuple[CompileResult, int]:
        """Compile under one overwrite scheme; also returns how many webs
        the renaming loop renamed (kept out of the stats, which the
        compile digests hash)."""
        from repro.core.schemes import Scheme
        from repro.policy import ProtectionPolicy

        policy = ProtectionPolicy.parse(self.config.policy)
        overwrite = Scheme.parse(overwrite)
        with obs.span("pass.regions"):
            cfg = CFG(kernel)
            aa = AliasAnalysis(cfg, param_noalias=self.config.param_noalias)
            regions = form_regions(kernel, aa)

        # Renaming loop: hazards fixed by renaming change live-ins and LUPs,
        # so the plan is rebuilt until renaming converges.
        rename_rounds = renamed_webs = 0
        with obs.span("pass.placement", placement=self.config.placement) as placement_span:
            for _ in range(self.config.max_rename_rounds):
                rename_rounds += 1
                cfg = CFG(kernel)
                rdefs = ReachingDefs(cfg)
                with obs.span("pass.liveins"):
                    liveins = analyze_liveins(
                        kernel, regions, cfg=cfg, rdefs=rdefs
                    )
                if policy.selective:
                    # Recomputed every round: renaming changes names, so
                    # the criticality/vulnerability sets must follow.
                    with obs.span("pass.policy", policy=str(policy)):
                        critical, top = self._policy_selection(cfg)
                        from repro.policy import filter_liveins

                        filter_liveins(liveins, policy, critical, top)
                cost = CostModel.for_cfg(cfg, base=self.config.cost_base)
                with obs.span("pass.plan"):
                    plan = self._make_plan(cfg, liveins, cost)
                instances = materialize_instances(plan, cfg)
                with obs.span("pass.hazards"):
                    hazardous = detect_hazards(cfg, regions, liveins, instances)
                if overwrite != "rr" or not hazardous:
                    break
                with obs.span("pass.renaming"):
                    renamed = apply_renaming(
                        kernel, cfg, regions, liveins, rdefs, instances
                    )
                if renamed == 0:
                    break
                renamed_webs += renamed
            else:
                placement_span.tag(rounds=rename_rounds, converged=False)
                self._raise_renaming(overwrite, kernel, hazardous)
            placement_span.tag(rounds=rename_rounds)
        obs.inc("compile.rename_rounds", rename_rounds)

        result = self._lower(
            kernel, launch, overwrite, cfg, rdefs, regions, liveins,
            cost, plan, instances, hazardous,
        )
        return result, renamed_webs

    def _policy_selection(self, cfg: CFG):
        """The (criticality, top-vulnerable) name sets the configured
        policy needs on ``cfg`` — ``None`` for the ones it does not."""
        from repro.analysis.vuln import (
            address_critical_registers,
            register_vulnerability,
        )
        from repro.policy import ProtectionPolicy

        policy = ProtectionPolicy.parse(self.config.policy)
        critical = top = None
        if policy.needs_criticality:
            critical = address_critical_registers(cfg)
        if policy.needs_vulnerability:
            report = register_vulnerability(
                cfg, loop_base=self.config.cost_base
            )
            top = policy.top_set(report)
        return critical, top

    def _raise_renaming(self, overwrite, kernel, hazardous):
        raise RenamingError(
            "register renaming did not converge within "
            f"{self.config.max_rename_rounds} rounds "
            f"({len(hazardous)} hazardous register(s) remain)",
            scheme=overwrite,
            kernel=kernel,
            detail={
                "rounds": self.config.max_rename_rounds,
                "hazardous": sorted(r.name for r in hazardous),
            },
        )

    def _lower(
        self, kernel, launch, overwrite, cfg, rdefs, regions, liveins,
        cost, plan, instances, hazardous,
    ) -> CompileResult:
        # Storage alternation for whatever hazards remain (all of them in
        # "sa" mode; the renaming-resistant rest in "rr" mode).
        coloring: Optional[ColoringResult] = None
        if overwrite != "none" and hazardous:
            with obs.span("pass.coloring", hazardous=len(hazardous)):
                coloring = color_checkpoints(
                    cfg, regions, liveins, instances, hazardous
                )

        # Pruning.  (The alias analysis used for region formation predates
        # the block splits, so build a fresh one on the current CFG.)
        with obs.span("pass.pddg"):
            aa = AliasAnalysis(
                cfg, rdefs, param_noalias=self.config.param_noalias
            )
            loops = LoopInfo(cfg)
            ctrldep = ControlDependence(cfg)
            validator = PddgValidator(
                cfg, rdefs, plan, instances, aa, loops, ctrldep, coloring
            )
        with obs.span("pass.pruning", mode=self.config.pruning) as pruning:
            prune = self._run_pruning(plan, validator)
            pruning.tag(
                pddg_evaluated=validator.evaluated,
                pddg_memo_hits=validator.memo_hits,
            )
        obs.inc("compile.pddg_evaluated", validator.evaluated)
        obs.inc("compile.pddg_memo_hits", validator.memo_hits)

        # Recovery table (may force-commit unsliceable registers), kept
        # consistent with the snapshot machinery of colored registers:
        # mixed prune states are committed wholesale and fully-slice-
        # restored registers drop their dummies.
        with obs.span("pass.recovery_table"):
            for _ in range(self.config.max_replan_rounds):
                recovery = build_recovery_table(
                    cfg, liveins, plan, validator, prune.slices, coloring
                )
                if coloring is None:
                    break
                forced = self._reconcile_coloring(plan, coloring, recovery)
                if forced == 0:
                    break
            else:
                raise ReconcileError(
                    "pruning/coloring reconciliation diverged within "
                    f"{self.config.max_replan_rounds} rounds",
                    scheme=overwrite,
                    kernel=kernel,
                    detail={"rounds": self.config.max_replan_rounds},
                )

        # Storage assignment over the final committed set.
        with obs.span("pass.storage", mode=self.config.storage_mode):
            budget = replace(
                self.budget,
                threads_per_block=launch.threads_per_block,
                kernel_shared_bytes=sum(
                    4 * d.num_words for d in kernel.shared
                ),
            )
            storage = assign_storage(
                plan,
                cfg,
                cost,
                budget,
                coloring,
                mode=self.config.storage_mode,
                total_threads=launch.total_threads,
            )

        # Code generation.
        with obs.span("pass.codegen", low_opts=self.config.low_opts):
            codegen = generate(
                kernel,
                cfg,
                plan,
                storage,
                coloring,
                low_opts=self.config.low_opts,
            )
            for label, entry in adjustment_recoveries(
                coloring, codegen.adjustment_labels
            ).items():
                recovery.regions[label] = entry
            if codegen.extra_slices:
                for entry in recovery.regions.values():
                    from repro.core.recovery_meta import RestoreAction

                    for reg_name, expr in sorted(
                        codegen.extra_slices.items()
                    ):
                        entry.restores.append(
                            RestoreAction(
                                reg_name=reg_name, dtype="u32",
                                slice_expr=expr,
                            )
                        )

        kernel.meta["recovery_table"] = recovery
        kernel.meta["region_boundaries"] = regions.boundaries
        kernel.meta["protected"] = True

        from repro.policy import ProtectionPolicy

        policy = ProtectionPolicy.parse(self.config.policy)
        if not policy.is_full:
            kernel.meta["protection_policy"] = str(policy)
            protected = self._protected_registers(kernel, policy, recovery)
            if protected is not None:
                kernel.meta["protected_registers"] = protected

        if self.config.verify:
            from repro.core.verify import check as verify_check

            with obs.span("pass.verify"):
                verify_check(kernel)

        result = CompileResult(
            kernel=kernel,
            config=self.config,
            launch=launch,
            plan=plan,
            regions=regions,
            recovery=recovery,
            coloring=coloring,
            codegen=codegen,
            stats={},
        )
        self._fill_stats(result, cost, overwrite, storage, hazardous)
        return result

    def _protected_registers(self, kernel, policy, recovery):
        """The run-time protected set of a selectively compiled kernel.

        Computed on the *final* post-codegen kernel: the criticality and
        vulnerability sets must cover the checkpoint stores and address
        arithmetic the compiler just emitted, so under ``address-only``
        every address-feeding chain in the shipped code is protected by
        construction.  ``None`` = every register (full/detection bases).
        """
        from repro.analysis.vuln import (
            address_critical_registers,
            register_vulnerability,
        )
        from repro.policy import (
            KIND_ADDRESS,
            KIND_TOPK,
            reserved_register_names,
        )

        final_cfg = CFG(kernel)
        critical = top = None
        if policy.kind == KIND_ADDRESS:
            critical = address_critical_registers(final_cfg)
        elif policy.kind == KIND_TOPK:
            report = register_vulnerability(
                final_cfg, loop_base=self.config.cost_base
            )
            top = policy.top_set(report)
        restores = {
            action.reg_name
            for entry in recovery.regions.values()
            for action in entry.restores
        }
        return policy.protected_names(
            critical=critical,
            top=top,
            reserved=reserved_register_names(kernel),
            restores=restores,
        )

    def _reconcile_coloring(
        self, plan: CheckpointPlan, coloring: ColoringResult, recovery
    ) -> int:
        """All-or-nothing pruning for colored registers; drop snapshot
        dummies of registers whose restores are all slice-based."""
        from repro.core.checkpoints import PruneState

        forced = 0
        for reg in sorted(
            coloring.colored_registers, key=lambda r: r.name
        ):
            cps = plan.of_register(reg)
            if not cps:
                continue
            has_slot_restore = any(
                action.reg_name == reg.name and action.is_slot
                for entry in recovery.regions.values()
                for action in entry.restores
            )
            states = {cp.state for cp in cps}
            if not has_slot_restore and states == {PruneState.PRUNED}:
                coloring.drop_register(reg.name)
            elif len(states) > 1 or has_slot_restore and states != {
                PruneState.COMMITTED
            }:
                for cp in cps:
                    if cp.state is not PruneState.COMMITTED:
                        cp.state = PruneState.COMMITTED
                        forced += 1
        if forced:
            plan.stats["pruned"] = len(plan.pruned())
            plan.stats["committed"] = len(plan.committed())
        return forced

    def _make_plan(
        self, cfg: CFG, liveins: LiveinAnalysis, cost: CostModel
    ) -> CheckpointPlan:
        if self.config.placement == "eager":
            return eager_plan(liveins)
        return bimodal_plan(
            cfg, liveins, cost, cover_base=self.config.cover_base
        )

    def _run_pruning(
        self, plan: CheckpointPlan, validator: PddgValidator
    ) -> PruneResult:
        mode = self.config.pruning
        if mode == "none":
            return prune_none(plan)
        if mode == "basic":
            return prune_basic(
                plan,
                validator,
                attempts=self.config.basic_prune_attempts,
                seed=self.config.basic_prune_seed,
            )
        if mode == "optimal":
            return prune_optimal(plan, validator)
        raise ConfigError(
            f"unknown pruning mode {mode!r}", pass_name="pruning"
        )

    def _fill_stats(
        self,
        result: CompileResult,
        cost: CostModel,
        overwrite: str,
        storage,
        hazardous: Set[Reg],
    ) -> None:
        kernel = result.kernel
        cfg = CFG(kernel)
        final_loops = LoopInfo(cfg)  # adjustment blocks may sit in loops
        est = 0
        for blk in cfg.blocks:
            depth_cost = cost.base ** final_loops.depth_of(blk.label)
            for inst in blk.instructions:
                if inst.is_memory_write and _is_checkpoint_store(inst):
                    est += depth_cost
        from repro.core.schemes import Scheme

        result.stats.update(
            {
                "overwrite_scheme": Scheme.parse(overwrite).value,
                "estimated_cost": float(est),
                "checkpoints_total": float(len(result.plan.checkpoints)),
                "checkpoints_committed": float(len(result.plan.committed())),
                "checkpoints_pruned": float(len(result.plan.pruned())),
                "hazardous_registers": float(len(hazardous)),
                "registers": float(count_registers(kernel)),
                "shared_slots": float(storage.shared_slots),
                "global_slots": float(storage.global_slots),
                "shared_ckpt_bytes": float(storage.shared_bytes_per_block),
                "emitted_checkpoints": float(
                    result.codegen.emitted_checkpoints
                ),
                "address_insts": float(result.codegen.emitted_address_insts),
                "forced_commits": float(result.recovery.forced_commits),
                "num_boundaries": float(len(result.regions.boundaries)),
            }
        )
        result.stats["protection_policy"] = self.config.policy
        protected = kernel.meta.get("protected_registers")
        result.stats["protected_registers"] = (
            float(len(protected))
            if protected is not None
            else result.stats["registers"]
        )


def _is_checkpoint_store(inst) -> bool:
    from repro.core.codegen import GLOBAL_CKPT_SYMBOL, SHARED_CKPT_SYMBOL
    from repro.ir.instructions import St
    from repro.ir.types import Reg as _Reg, SymRef

    if not isinstance(inst, St):
        return False
    if isinstance(inst.base, SymRef):
        return inst.base.name in (GLOBAL_CKPT_SYMBOL, SHARED_CKPT_SYMBOL)
    if isinstance(inst.base, _Reg):
        return inst.base.name.startswith(("%ckb_", "%ca"))
    return False
