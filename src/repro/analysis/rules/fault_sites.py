"""FLT01 — fault-site strings stay registered and exercised.

The crash-safety suite (PR 2) drives deterministic fault injection by
*site name* (``insert:clobs``, ``store_object``, ...).  Site names are
plain strings, so a rename on the write path silently detaches every
test that targeted the old name — the sweep still passes, it just no
longer injects anything.  This rule pins both ends:

* every site literal passed to ``FaultPlan(site=...)``,
  ``run_transaction(...)`` or ``_fault(...)``
  anywhere in ``src/`` must appear in the central registry
  (:mod:`repro.faults.sites`);
* a dynamically built site must go through
  :func:`repro.faults.sites.check_site` (runtime-validated) — a bare
  f-string or variable is a finding;
* every registered *statement* site must appear as a string literal in
  at least one module under ``tests/faults/`` — dead sweep detection.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional, Set

from ..linter import (
    LintContext,
    Rule,
    call_name,
    const_str,
    local_str_values,
)

#: Calls whose first positional argument is a transaction-site label.
_TXN_CALLS = frozenset({"run_transaction"})


class FaultSiteRule(Rule):
    """See module docstring."""

    id = "FLT01"
    title = "fault sites must be registered and test-covered"

    def __init__(
        self,
        statement_sites: Optional[FrozenSet[str]] = None,
        transaction_sites: Optional[FrozenSet[str]] = None,
        registry_path: str = "faults/sites.py",
    ) -> None:
        if statement_sites is None or transaction_sites is None:
            from ...faults import sites as _sites

            statement_sites = _sites.STATEMENT_SITES
            transaction_sites = _sites.TRANSACTION_SITES
        self.statement_sites = statement_sites
        self.transaction_sites = transaction_sites
        self.all_sites = statement_sites | transaction_sites
        self.registry_path = registry_path

    # ------------------------------------------------------------------
    def _site_arg(self, node: ast.Call) -> Optional[ast.AST]:
        """The site expression of a relevant call, or None."""
        name = call_name(node)
        if name == "FaultPlan":
            for kw in node.keywords:
                if kw.arg == "site":
                    return kw.value
            if len(node.args) >= 2:
                return node.args[1]
            return None
        if name in _TXN_CALLS or name == "_fault":
            return node.args[0] if node.args else None
        return None

    def _expected_for(self, node: ast.Call) -> FrozenSet[str]:
        name = call_name(node)
        if name in _TXN_CALLS:
            return self.transaction_sites
        if name == "_fault":
            return self.statement_sites
        return self.all_sites  # FaultPlan targets either kind

    def _check_site_value(
        self,
        ctx: LintContext,
        module,
        call: ast.Call,
        arg: ast.AST,
        scope: Optional[ast.AST],
    ) -> None:
        expected = self._expected_for(call)
        kind = call_name(call)
        literal = const_str(arg)
        if literal is not None:
            if literal not in expected:
                ctx.report(
                    self.id, module, call.lineno,
                    f"site {literal!r} passed to {kind} is not registered in "
                    f"repro.{self.registry_path.replace('/', '.')[:-3]}",
                )
            return
        # check_site(...) wrapping delegates validation to runtime.
        if isinstance(arg, ast.Call) and call_name(arg) == "check_site":
            return
        if isinstance(arg, ast.Name) and scope is not None:
            values = local_str_values(scope, arg.id)
            if values is not None:
                for value in values:
                    if value not in expected:
                        ctx.report(
                            self.id, module, call.lineno,
                            f"site {value!r} (via local {arg.id!r}) passed to "
                            f"{kind} is not registered",
                        )
                return
        ctx.report(
            self.id, module, call.lineno,
            f"dynamic fault site passed to {kind}; use a string literal or "
            "wrap it in repro.faults.sites.check_site()",
        )

    # ------------------------------------------------------------------
    def check(self, ctx: LintContext) -> None:
        for module in ctx.modules:
            if module.tree is None:
                continue
            # Skip the registry itself and the FaultPlan definition —
            # their mentions of site strings are declarations, not uses.
            if module.endswith(self.registry_path, "faults/plan.py"):
                continue
            scopes: list = []

            def visit(node: ast.AST) -> None:
                is_scope = isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                if is_scope:
                    scopes.append(node)
                if isinstance(node, ast.Call):
                    arg = self._site_arg(node)
                    if arg is not None:
                        scope = scopes[-1] if scopes else None
                        self._check_site_value(ctx, module, node, arg, scope)
                for child in ast.iter_child_nodes(node):
                    visit(child)
                if is_scope:
                    scopes.pop()

            visit(module.tree)

        self._check_test_coverage(ctx)

    def _check_test_coverage(self, ctx: LintContext) -> None:
        if not ctx.fault_test_modules:
            return  # no tests/faults tree in view (fixture runs)
        covered: Set[str] = set()
        for module in ctx.fault_test_modules:
            if module.tree is None:
                continue
            for node in ast.walk(module.tree):
                value = const_str(node)
                if value is not None:
                    covered.add(value)
        registry_modules = ctx.modules_matching(self.registry_path)
        anchor = registry_modules[0] if registry_modules else None
        for site in sorted(self.statement_sites - covered):
            ctx.report(
                self.id, anchor, 1,
                f"registered fault site {site!r} is not exercised by any "
                "test under tests/faults/",
            )
