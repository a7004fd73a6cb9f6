"""Structured findings produced by the ``repro lint`` rule engine."""

from __future__ import annotations

import enum
from typing import Dict, Optional


class Severity(enum.Enum):
    """How bad a finding is.  ``ERROR`` findings fail the lint run;
    ``WARNING`` findings are reported but do not affect the exit code
    (no current rule emits them at lower than ERROR, but fixture tests
    and future rules need the distinction)."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Finding:
    """One rule violation, anchored to a file and line."""

    __slots__ = ("rule_id", "path", "line", "message", "severity", "suppressed")

    def __init__(
        self,
        rule_id: str,
        path: str,
        line: int,
        message: str,
        severity: Severity = Severity.ERROR,
        suppressed: bool = False,
    ) -> None:
        self.rule_id = rule_id
        self.path = path
        self.line = line
        self.message = message
        self.severity = severity
        #: True when a ``# reprolint: ignore[RULE]`` pragma on the line
        #: waives the finding; suppressed findings are kept (so the SARIF
        #: report can audit waivers) but do not affect the exit code.
        self.suppressed = suppressed

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule_id, self.message)

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Finding):
            return NotImplemented
        return (self.sort_key(), self.severity, self.suppressed) == (
            other.sort_key(), other.severity, other.suppressed
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", suppressed" if self.suppressed else ""
        return (
            f"Finding({self.rule_id}, {self.path}:{self.line}, "
            f"{self.severity.value}{flag}: {self.message!r})"
        )


def active(findings) -> list:
    """The findings that count toward the exit code: unsuppressed errors."""
    return [
        f for f in findings
        if not f.suppressed and f.severity is Severity.ERROR
    ]


def make_finding(
    rule_id: str,
    path: str,
    line: int,
    message: str,
    severity: Severity = Severity.ERROR,
    pragmas: Optional[Dict[int, set]] = None,
) -> Finding:
    """Build a finding, honoring any pragma suppression for its line."""
    suppressed = False
    if pragmas:
        rules = pragmas.get(line)
        if rules is not None and (rule_id in rules or "*" in rules):
            suppressed = True
    return Finding(rule_id, path, line, message, severity, suppressed)
