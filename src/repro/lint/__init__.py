"""``repro.lint`` — rule-based static analysis over the Penny IR.

A pluggable analyzer with dataflow analyses (:mod:`repro.lint.dataflow`,
solved by the shared worklist engine :mod:`repro.analysis.dataflow`),
typed diagnostics (:mod:`repro.lint.diagnostics`), a rule registry with
per-rule enable/disable and severity overrides
(:mod:`repro.lint.registry`), and three renderers — annotated text, JSONL via
:class:`repro.obs.MetricsSink`, and SARIF 2.1.0
(:mod:`repro.lint.render`).

Two rule phases:

- **pre** (:mod:`repro.lint.rules_pre`) runs on input PTX before any
  pass: uninitialized reads, unreachable blocks, divergent barriers,
  shared-memory races, anti-dependence previews.
- **post** (:mod:`repro.lint.rules_post`) runs on a compiled kernel:
  the V1–V5 recovery obligations (migrated from ``core/verify``, which
  is now a shim over this package) plus checkpoint-machinery
  cross-checks.

Quickstart::

    from repro import lint

    report = lint.lint_source(open("examples/vecadd.ptx").read())
    for d in report.diagnostics:
        print(d)

Or from the shell::

    penny lint examples/vecadd.ptx --format sarif
"""

from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Location,
    Severity,
)
from repro.lint.engine import (
    AnalyzerError,
    LintContext,
    lint_compiled,
    lint_kernel,
    lint_source,
    run_rules,
)
from repro.lint.registry import (
    DEFAULT_REGISTRY,
    POST,
    PRE,
    Rule,
    RuleRegistry,
    UnknownRuleError,
    rule,
)

__all__ = [
    "AnalyzerError",
    "DEFAULT_REGISTRY",
    "Diagnostic",
    "LintContext",
    "LintReport",
    "Location",
    "POST",
    "PRE",
    "Rule",
    "RuleRegistry",
    "Severity",
    "UnknownRuleError",
    "lint_compiled",
    "lint_kernel",
    "lint_source",
    "rule",
]
