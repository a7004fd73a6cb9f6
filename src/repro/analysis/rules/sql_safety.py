"""SQL01 — SQL construction safety.

No string interpolation into SQL text, anywhere, except identifiers
routed through the single audited
:func:`~repro.identifiers.quote_identifier` helper; literals go
through ``?`` parameters.  The rule scans every way this codebase
builds strings — f-strings, ``%`` formatting, ``str.format``, ``+``
concatenation — and treats a string as SQL when its constant head
starts with an uppercase SQL verb (``SELECT``/``INSERT``/``CREATE``
…).  Matching on the *string*, not just on ``execute()`` arguments,
catches SQL assembled in helpers and stored in locals before it
reaches a cursor.  Constant statements kept in a literal table (the
sqlite backend's ``_INSERT_SQL`` and ``_SEEK_SQL``) need no waiver.

Sanctioned interpolations:

* a direct ``quote_identifier(...)`` call in the hole;
* a plain name whose **every** binding visible at the hole (own scope
  first, then lexically enclosing scopes) is a
  ``quote_identifier(...)`` call — the ``qm = quote_identifier(...)``
  … ``f"INSERT INTO {qm}"`` idiom, including closures over it.
  Function parameters are never sanctioned: the caller's string is
  not visible here, so the callee must re-validate.

The uppercase-verb head keeps fault-site strings like
``f"insert:{table}"`` and log messages out of scope by construction.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional

from ..linter import LintContext, Rule, SourceModule, call_name

__all__ = ["SqlSafetyRule"]

_SQL_HEAD_RE = re.compile(
    r"^\s*(SELECT|INSERT|UPDATE|DELETE|REPLACE|CREATE|DROP|WITH|PRAGMA|"
    r"ATTACH|VACUUM|BEGIN|ALTER)\b"
)

_EXECUTORS = frozenset({"execute", "executemany", "executescript"})


def _is_sql_head(text: Optional[str]) -> bool:
    return text is not None and _SQL_HEAD_RE.match(text) is not None


def _joined_head(node: ast.JoinedStr) -> Optional[str]:
    if node.values and isinstance(node.values[0], ast.Constant) and isinstance(
        node.values[0].value, str
    ):
        return node.values[0].value
    return None


def _is_quote_identifier_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node) == "quote_identifier"


def _is_function(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


class SqlSafetyRule(Rule):
    """See module docstring."""

    id = "SQL01"
    title = "no interpolation into SQL except quote_identifier()"

    # -- sanctioned-name environments -----------------------------------
    def _own_bindings(self, scope: ast.AST) -> Dict[str, bool]:
        """name -> True when every binding of the name directly in
        ``scope`` (nested defs excluded — they are their own scopes) is
        a ``quote_identifier(...)`` call."""
        verdicts: Dict[str, bool] = {}

        def record(name: str, ok: bool) -> None:
            verdicts[name] = verdicts.get(name, True) and ok

        if _is_function(scope):
            args = scope.args
            for arg in list(args.args) + list(args.kwonlyargs) + (
                [args.vararg] if args.vararg else []
            ) + ([args.kwarg] if args.kwarg else []):
                record(arg.arg, False)

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if _is_function(child):
                    record(child.name, False)
                    continue
                if isinstance(child, ast.Assign):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            record(
                                target.id,
                                _is_quote_identifier_call(child.value),
                            )
                        elif isinstance(target, ast.Tuple):
                            value = child.value
                            if isinstance(value, ast.Tuple) and len(
                                value.elts
                            ) == len(target.elts):
                                for t, v in zip(target.elts, value.elts):
                                    if isinstance(t, ast.Name):
                                        record(
                                            t.id,
                                            _is_quote_identifier_call(v),
                                        )
                            else:
                                for t in target.elts:
                                    if isinstance(t, ast.Name):
                                        record(t.id, False)
                elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                    target = child.target
                    if isinstance(target, ast.Name):
                        record(target.id, False)
                elif isinstance(child, (ast.For, ast.comprehension)):
                    target = child.target
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            record(name_node.id, False)
                visit(child)

        visit(scope)
        return verdicts

    def _hole_is_sanctioned(
        self, expr: ast.AST, env: Dict[str, bool]
    ) -> bool:
        if _is_quote_identifier_call(expr):
            return True
        if isinstance(expr, ast.Name):
            return env.get(expr.id, False)
        return False

    # -- expression checks ----------------------------------------------
    @staticmethod
    def _const_head(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr):
            return _joined_head(node)
        return None

    def _flatten_concat(self, node: ast.AST) -> List[ast.AST]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return self._flatten_concat(node.left) + self._flatten_concat(
                node.right
            )
        return [node]

    def _scan_expr(
        self,
        ctx: LintContext,
        module: SourceModule,
        node: ast.AST,
        env: Dict[str, bool],
    ) -> None:
        if isinstance(node, ast.JoinedStr) and _is_sql_head(_joined_head(node)):
            for value in node.values:
                if not isinstance(value, ast.FormattedValue):
                    continue
                if not self._hole_is_sanctioned(value.value, env):
                    ctx.report(
                        self.id, module, node.lineno,
                        "f-string interpolation into SQL: route identifiers "
                        "through quote_identifier() and bind values with "
                        "? parameters",
                    )
                    break
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if _is_sql_head(self._const_head(node.left)):
                ctx.report(
                    self.id, module, node.lineno,
                    "%-formatting into SQL: route identifiers through "
                    "quote_identifier() and bind values with ? parameters",
                )
        elif isinstance(node, ast.Call) and call_name(node) == "format":
            func = node.func
            if isinstance(func, ast.Attribute) and _is_sql_head(
                self._const_head(func.value)
            ):
                holes = list(node.args) + [kw.value for kw in node.keywords]
                if not all(
                    self._hole_is_sanctioned(hole, env) for hole in holes
                ):
                    ctx.report(
                        self.id, module, node.lineno,
                        ".format() interpolation into SQL: route "
                        "identifiers through quote_identifier() and bind "
                        "values with ? parameters",
                    )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            operands = self._flatten_concat(node)
            if operands and _is_sql_head(self._const_head(operands[0])):
                for operand in operands[1:]:
                    if self._const_head(operand) is not None:
                        continue
                    if not self._hole_is_sanctioned(operand, env):
                        ctx.report(
                            self.id, module, node.lineno,
                            "string concatenation into SQL: route "
                            "identifiers through quote_identifier() and "
                            "bind values with ? parameters",
                        )
                        break
        elif isinstance(node, ast.Call) and call_name(node) in _EXECUTORS:
            if node.args:
                arg = node.args[0]
                if isinstance(arg, ast.JoinedStr) and _joined_head(arg) is None:
                    ctx.report(
                        self.id, module, node.lineno,
                        "SQL passed to execute() starts with a dynamic "
                        "fragment — statements must open with a literal "
                        "verb so they can be audited",
                    )

    # -- scope recursion -------------------------------------------------
    def _handle_scope(
        self,
        ctx: LintContext,
        module: SourceModule,
        scope: ast.AST,
        parent_env: Dict[str, bool],
    ) -> None:
        env = dict(parent_env)
        env.update(self._own_bindings(scope))
        children: List[ast.AST] = []

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if _is_function(child):
                    children.append(child)
                    continue
                self._scan_expr(ctx, module, child, env)
                visit(child)

        visit(scope)
        for child in children:
            self._handle_scope(ctx, module, child, env)

    def check(self, ctx: LintContext) -> None:
        for module in ctx.modules:
            if module.tree is None or not ctx.in_scope(module):
                continue
            self._handle_scope(ctx, module, module.tree, {})
