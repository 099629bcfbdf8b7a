"""Typed diagnostics: what every lint rule produces and every renderer eats.

A :class:`Diagnostic` pins a finding to a *logical* location — the
``kernel:block:index`` triple every layer of the system already speaks —
and, when the kernel came from text, a *physical* one (the
:class:`repro.ir.types.SrcLoc` the parser attached to the instruction).
Rules never format messages with ``repr`` of IR objects: the location is
structured, the message is prose, and renderers decide presentation.

:class:`LintReport` aggregates one analyzer run and implements the
:class:`repro.obs.report.Reportable` protocol (``kind: "lint_report"``)
so reports flow through :class:`repro.obs.MetricsSink` unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.ir.types import SrcLoc


class Severity(str, enum.Enum):
    """Diagnostic severity, ordered ``NOTE < WARNING < ERROR``."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    __str__ = str.__str__
    __format__ = str.__format__

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def at_least(self, other: "Severity") -> bool:
        return self.rank >= other.rank

    @classmethod
    def parse(cls, value) -> "Severity":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            known = sorted(s.value for s in cls)
            raise ValueError(
                f"unknown severity {value!r}; known: {known}"
            ) from None


_SEVERITY_RANK = {Severity.NOTE: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points: ``kernel:block:index`` plus the parsed
    source span when one exists.  ``index`` is the instruction index inside
    the block (0 for block-level findings)."""

    kernel: str
    block: str
    index: int = 0
    loc: Optional[SrcLoc] = None

    def __str__(self) -> str:
        return f"{self.kernel}:{self.block}:{self.index}"


@dataclass
class Diagnostic:
    """One typed finding of one rule."""

    rule: str
    severity: Severity
    message: str
    location: Location
    #: optional machine-readable suggestion ("insert bar.sync before ...")
    fixit: Optional[str] = None

    def plain(self) -> str:
        """The ``kernel:block:index: message`` form ``verify_compiled``
        returns (and tests assert on)."""
        return f"{self.location}: {self.message}"

    def __str__(self) -> str:
        return (
            f"{self.location}: {self.severity.value}: "
            f"[{self.rule}] {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "kind": "diagnostic",
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "kernel": self.location.kernel,
            "block": self.location.block,
            "index": self.location.index,
        }
        if self.location.loc is not None:
            d["line"] = self.location.loc.line
            d["col"] = self.location.loc.col
            d["end_col"] = self.location.loc.end_col
        if self.fixit:
            d["fixit"] = self.fixit
        return d

    def summary(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "at": str(self.location),
        }


@dataclass
class LintReport:
    """Aggregated result of one analyzer run over one kernel (or several:
    reports merge with ``extend``)."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: rule ids that actually executed (enabled and applicable)
    rules_run: List[str] = field(default_factory=list)

    def extend(self, other: "LintReport") -> "LintReport":
        self.diagnostics.extend(other.diagnostics)
        for rid in other.rules_run:
            if rid not in self.rules_run:
                self.rules_run.append(rid)
        return self

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    def at_least(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity.at_least(severity)]

    @property
    def worst(self) -> Optional[Severity]:
        worst: Optional[Severity] = None
        for d in self.diagnostics:
            if worst is None or d.severity.rank > worst.rank:
                worst = d.severity
        return worst

    def counts(self) -> Dict[str, int]:
        out = {s.value: 0 for s in Severity}
        for d in self.diagnostics:
            out[d.severity.value] += 1
        return out

    # -- Reportable protocol --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "lint_report",
            "rules_run": list(self.rules_run),
            "counts": self.counts(),
            "diagnostics": [
                {k: v for k, v in d.to_dict().items() if k != "kind"}
                for d in self.diagnostics
            ],
        }

    def summary(self) -> Dict[str, Any]:
        return {
            "diagnostics": len(self.diagnostics),
            "worst": self.worst.value if self.worst else None,
            **{
                f"severity.{k}": v
                for k, v in self.counts().items()
                if v
            },
        }
