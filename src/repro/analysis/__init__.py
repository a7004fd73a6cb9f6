"""Repo-specific static analysis (``repro lint``).

The public surface is :func:`run_lint` plus the reporters; everything
else (the rule classes, the AST helpers) is importable for tests and
for adding new rules.
"""

from .findings import Finding, Severity, active
from .linter import (
    LintContext,
    Rule,
    SourceModule,
    default_rules,
    render_sarif_report,
    render_text_report,
    run_lint,
)

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "Severity",
    "SourceModule",
    "active",
    "default_rules",
    "render_sarif_report",
    "render_text_report",
    "run_lint",
]
