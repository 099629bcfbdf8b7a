"""The analyzer driver: contexts, rule execution, obs instrumentation.

:class:`LintContext` wraps one kernel with lazily built, cached
analyses (CFG, liveness, reaching defs, the dataflow solvers, control
dependence, alias analysis) so that N rules share one fixed point each.
Rules receive the context and yield diagnostics via :meth:`LintContext.diag`;
the engine stamps each diagnostic with the rule's id and (possibly
config-overridden) severity, so a rule body never hard-codes either.

Entry points:

- :func:`lint_kernel` — run the ``pre`` rules on an input kernel.
- :func:`lint_compiled` — run the ``post`` rules on a compiled kernel
  (its ``meta`` must carry the recovery metadata).
- :func:`lint_source` — parse PTX text and run ``pre`` rules, with
  source lines attached for caret rendering.

Every rule runs under an ``obs`` span (``lint.rule``, tagged with the
rule id) and bumps ``lint.*`` counters, so traces show where analysis
time goes and metrics show what fired.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence

from repro import obs
from repro.analysis.cfg import CFG
from repro.ir.module import Kernel
from repro.lint.diagnostics import Diagnostic, LintReport, Location, Severity
from repro.lint.registry import DEFAULT_REGISTRY, POST, PRE, Rule, RuleRegistry

# Registering the built-in rules is an import side effect of the rule
# modules; pull them in so DEFAULT_REGISTRY is always populated.
from repro.lint import rules_post as _rules_post  # noqa: F401
from repro.lint import rules_pre as _rules_pre  # noqa: F401


class AnalyzerError(RuntimeError):
    """A lint rule itself crashed — an analyzer bug, never a kernel bug.

    Raised with the rule id attached so the fuzz oracle can report the
    offending rule as a finding."""

    def __init__(self, rule_id: str, exc: BaseException):
        super().__init__(f"lint rule {rule_id!r} crashed: {exc!r}")
        self.rule_id = rule_id
        self.cause = exc


class LintContext:
    """Shared, lazily cached analysis state for one kernel."""

    def __init__(
        self,
        kernel: Kernel,
        cfg: Optional[CFG] = None,
        source: Optional[str] = None,
    ):
        self.kernel = kernel
        self.cfg = cfg if cfg is not None else CFG(kernel)
        #: original PTX text, when the kernel came from text (caret rendering)
        self.source = source
        self._cache: Dict[object, object] = {}

    # -- diagnostics ----------------------------------------------------------

    def location(self, label: str, index: int = 0) -> Location:
        loc = None
        try:
            insts = self.cfg.block(label).instructions
            if 0 <= index < len(insts):
                loc = getattr(insts[index], "loc", None)
        except KeyError:
            pass
        return Location(self.kernel.name, label, index, loc)

    def diag(
        self,
        message: str,
        label: str,
        index: int = 0,
        fixit: Optional[str] = None,
    ) -> Diagnostic:
        """Build a diagnostic; the engine fills in rule id and severity."""
        return Diagnostic(
            rule="",
            severity=Severity.NOTE,
            message=message,
            location=self.location(label, index),
            fixit=fixit,
        )

    # -- cached analyses ------------------------------------------------------

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def liveness(self):
        from repro.analysis.liveness import Liveness

        return self._memo("liveness", lambda: Liveness(self.cfg))

    def reaching_defs(self):
        from repro.analysis.reachingdefs import ReachingDefs

        return self._memo("rdefs", lambda: ReachingDefs(self.cfg))

    def control_deps(self):
        from repro.analysis.postdom import ControlDependence

        return self._memo("cdeps", lambda: ControlDependence(self.cfg))

    def alias(self):
        from repro.analysis.alias import AliasAnalysis

        return self._memo("alias", lambda: AliasAnalysis(self.cfg))

    def uninitialized_reads(self):
        from repro.lint.dataflow import uninitialized_reads

        return self._memo(
            "uninit", lambda: uninitialized_reads(self.cfg)
        )

    def thread_taint(self):
        from repro.lint.dataflow import solve_thread_taint

        return self._memo("ttaint", lambda: solve_thread_taint(self.cfg))

    def symbol_taint(self, symbols: Iterable[str]):
        from repro.lint.dataflow import solve_symbol_taint

        key: FrozenSet[str] = frozenset(symbols)
        return self._memo(
            ("staint", key), lambda: solve_symbol_taint(self.cfg, key)
        )

    # -- compiled-kernel metadata ---------------------------------------------

    @property
    def recovery_table(self):
        return self.kernel.meta.get("recovery_table")

    @property
    def boundaries(self) -> FrozenSet[str]:
        return frozenset(self.kernel.meta.get("region_boundaries", ()))

    @property
    def adjustments(self) -> FrozenSet[str]:
        return frozenset(self.kernel.meta.get("adjustment_blocks", ()))

    @property
    def storage(self):
        return self.kernel.meta.get("storage_assignment")

    @property
    def has_recovery_meta(self) -> bool:
        return self.recovery_table is not None and bool(self.boundaries)

    # -- selective-protection policy -------------------------------------------

    @property
    def protection_policy(self):
        """The :class:`repro.policy.ProtectionPolicy` this kernel was
        compiled under, or ``None`` (classic full protection / not
        compiled).  Unparseable metadata reads as ``None``."""
        meta = self.kernel.meta.get("protection_policy")
        if meta is None:
            return None
        from repro.policy import PolicyError, ProtectionPolicy

        try:
            return ProtectionPolicy.parse(meta)
        except PolicyError:
            return None

    @property
    def protected_registers(self):
        """Names carrying a detection code at run time; ``None`` = all."""
        return self.kernel.meta.get("protected_registers")

    def is_protected(self, name: str) -> bool:
        protected = self.protected_registers
        return protected is None or name in protected

    def address_criticality(self) -> FrozenSet[str]:
        """Cached address-criticality set of this kernel."""
        from repro.analysis.vuln import address_critical_registers

        return self._memo(
            "addrcrit", lambda: address_critical_registers(self.cfg)
        )


def run_rules(
    ctx: LintContext, rules: Sequence[Rule]
) -> LintReport:
    """Execute rules against a context; one report, obs-instrumented."""
    report = LintReport()
    for rule in rules:
        with obs.span("lint.rule", rule=rule.id, kernel=ctx.kernel.name):
            try:
                found = list(rule.check(ctx))
            except Exception as exc:  # analyzer bug: escalate, typed
                obs.inc("lint.analyzer_crashes")
                raise AnalyzerError(rule.id, exc) from exc
            for d in found:
                d.rule = rule.id
                d.severity = rule.severity
            report.diagnostics.extend(found)
            report.rules_run.append(rule.id)
            obs.inc("lint.rules_run")
            if found:
                obs.inc(f"lint.findings.{rule.id}", len(found))
    for sev, n in report.counts().items():
        if n:
            obs.inc(f"lint.severity.{sev}", n)
    return report


def _select(config, phase, only, disable, severity, registry):
    disable = tuple(disable or ())
    severity = dict(severity or {})
    if config is not None:
        disable += tuple(getattr(config, "lint_disable", ()) or ())
        for rid, sev in (getattr(config, "lint_severity", None) or {}).items():
            severity.setdefault(rid, sev)
    return registry.select(
        phase=phase, only=only, disable=disable, severity=severity
    )


def lint_kernel(
    kernel: Kernel,
    config=None,
    only: Optional[Sequence[str]] = None,
    disable: Sequence[str] = (),
    severity: Optional[Mapping[str, object]] = None,
    source: Optional[str] = None,
    registry: RuleRegistry = DEFAULT_REGISTRY,
) -> LintReport:
    """Run the pre-compile rules on an input kernel."""
    ctx = LintContext(kernel, source=source)
    rules = _select(config, PRE, only, disable, severity, registry)
    with obs.span("lint.kernel", kernel=kernel.name, phase=PRE):
        return run_rules(ctx, rules)


def lint_compiled(
    kernel: Kernel,
    config=None,
    only: Optional[Sequence[str]] = None,
    disable: Sequence[str] = (),
    severity: Optional[Mapping[str, object]] = None,
    source: Optional[str] = None,
    registry: RuleRegistry = DEFAULT_REGISTRY,
) -> LintReport:
    """Run the post-compile rules on a compiled kernel.

    A kernel without recovery metadata yields the single classic
    "not compiled?" error rather than one confusing finding per rule.
    """
    ctx = LintContext(kernel, source=source)
    rules = _select(config, POST, only, disable, severity, registry)
    with obs.span("lint.kernel", kernel=kernel.name, phase=POST):
        if not ctx.has_recovery_meta:
            policy = ctx.protection_policy
            if policy is not None and policy.unprotected:
                # none/detection-only compiles carry no recovery metadata
                # by design: nothing to check, clean report.
                return LintReport(rules_run=[r.id for r in rules])
            report = LintReport(rules_run=[r.id for r in rules])
            report.diagnostics.append(
                Diagnostic(
                    rule="penny-restore",
                    severity=Severity.ERROR,
                    message=(
                        "kernel carries no recovery metadata "
                        "(not compiled?)"
                    ),
                    location=ctx.location(ctx.cfg.entry, 0),
                )
            )
            obs.inc("lint.severity.error")
            return report
        return run_rules(ctx, rules)


def lint_source(text: str, **kwargs) -> LintReport:
    """Parse PTX text and run the pre rules on every kernel in it."""
    from repro.ir.parser import parse_module

    module = parse_module(text)
    report = LintReport()
    for kernel in module.kernels:
        report.extend(lint_kernel(kernel, source=text, **kwargs))
    return report
