"""RES01 — resource lifecycle: acquisitions are released on every path.

A pooled connection checked out and dropped on an exception path is
the template.  The rule tracks calls that mint
an owned resource (a sqlite connection, a pool checkout, a file
handle) and requires each acquisition to be *discharged* in its
function by one of the ownership idioms the codebase actually uses:

* the call is a ``with`` context expression (release is structural);
* the result is **returned** — ownership transfers to the caller
  (``yield`` is deliberately NOT a transfer: a generator context
  manager still owns the resource and must pair it with
  ``try/finally``, which is exactly the bug class this rule exists
  to catch);
* the result is stored on ``self`` or passed into another call —
  ownership transfers to the object/callee (``self._file = ...``,
  ``_TrackedConnection(sqlite3.connect(...))``);
* a ``finally`` block in the same function calls a matching releaser
  on the bound name (``finally: self._release(conn)``).

An acquisition whose result is discarded outright, or bound to a local
that none of the idioms cover, is a finding.  Analysis is per-function
and syntactic — no path-sensitivity — which is exactly why it is fast
and why its verdicts are easy to audit.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Set, Tuple

from ..linter import LintContext, Rule, SourceModule, call_name
from ..program import FunctionInfo

__all__ = ["ResourceLifecycleRule"]

#: acquirer call name -> names that release what it returned.
_ACQUIRERS: Dict[str, FrozenSet[str]] = {
    "connect": frozenset({"close"}),
    "_connect": frozenset({"close", "_release"}),
    "_acquire": frozenset({"_release", "release", "close"}),
    "open": frozenset({"close"}),
}


def _names_in(node: ast.AST) -> Set[str]:
    return {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name)
    }


class ResourceLifecycleRule(Rule):
    """See module docstring."""

    id = "RES01"
    title = "acquired resources must be released on every path"

    def _with_context_calls(self, fn: FunctionInfo) -> Set[ast.AST]:
        """Call nodes used directly as ``with`` context expressions."""
        out: Set[ast.AST] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        out.add(item.context_expr)
        return out

    def _finally_released_names(self, fn: FunctionInfo) -> Set[str]:
        """Locals a ``finally`` block releases: the var appears as a
        releaser's receiver (``conn.close()``) or argument
        (``self._release(conn)``)."""
        released: Set[str] = set()
        all_releasers: FrozenSet[str] = frozenset().union(*_ACQUIRERS.values())
        for node in ast.walk(fn.node):
            if not isinstance(node, (ast.Try,)):
                continue
            for stmt in node.finalbody:
                for call in ast.walk(stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    if call_name(call) not in all_releasers:
                        continue
                    func = call.func
                    if isinstance(func, ast.Attribute) and isinstance(
                        func.value, ast.Name
                    ):
                        released.add(func.value.id)
                    for arg in call.args:
                        if isinstance(arg, ast.Name):
                            released.add(arg.id)
        return released

    def _returned_names(self, fn: FunctionInfo) -> Set[str]:
        out: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                out |= _names_in(node.value)
        return out

    def _escaping_names(self, fn: FunctionInfo) -> Set[str]:
        """Locals whose value escapes the function's ownership: stored
        on ``self``/a container, or passed to another call."""
        out: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        out |= _names_in(node.value)
            elif isinstance(node, ast.Call):
                releasers: FrozenSet[str] = frozenset().union(
                    *_ACQUIRERS.values()
                )
                if call_name(node) in releasers:
                    continue  # releasing is not an ownership escape
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        out.add(arg.id)
        return out

    def _check_function(
        self, ctx: LintContext, module: SourceModule, fn: FunctionInfo
    ) -> None:
        with_calls = self._with_context_calls(fn)
        released = self._finally_released_names(fn)
        returned = self._returned_names(fn)
        escaped = self._escaping_names(fn)

        # Statement-level classification of each acquirer call.  Nested
        # defs are separate FunctionInfos with their own pass — walking
        # into them here would double-report their acquisitions.
        nested = {
            node for node in ast.walk(fn.node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not fn.node
        }
        own_nodes: List[ast.AST] = []
        stack: List[ast.AST] = [fn.node]
        while stack:
            current = stack.pop()
            for child in ast.iter_child_nodes(current):
                if child in nested:
                    continue
                own_nodes.append(child)
                stack.append(child)

        handled: Set[ast.AST] = set(with_calls)
        findings: List[Tuple[ast.Call, str]] = []
        for node in own_nodes:
            if isinstance(node, ast.Return) and isinstance(
                node.value, ast.Call
            ):
                handled.add(node.value)  # direct transfer to caller
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                acquirer = call_name(node.value)
                if acquirer not in _ACQUIRERS:
                    continue
                handled.add(node.value)
                target = node.targets[0]
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue  # stored on self/container: escapes
                if not isinstance(target, ast.Name):
                    continue  # tuple unpack: out of syntactic reach
                var = target.id
                if var in returned or var in escaped or var in released:
                    continue
                findings.append((
                    node.value,
                    f"{acquirer}() result bound to '{var}' is never "
                    f"released: no return, no self-attribute, and no "
                    f"finally block calling "
                    f"{'/'.join(sorted(_ACQUIRERS[acquirer]))} on it",
                ))
            elif isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ):
                acquirer = call_name(node.value)
                if acquirer in _ACQUIRERS and node.value not in with_calls:
                    handled.add(node.value)
                    findings.append((
                        node.value,
                        f"{acquirer}() result is discarded — the acquired "
                        f"resource can never be released",
                    ))
        for call, message in findings:
            ctx.report(self.id, module, call.lineno, message)

    def check(self, ctx: LintContext) -> None:
        program = ctx.program
        for fn in program.functions.values():
            module = fn.module.source
            if module.tree is None:
                continue
            # Fast pre-filter on the memoized call list: most functions
            # acquire nothing, so skip the classification walks outright.
            if not any(
                call_name(call) in _ACQUIRERS
                for call in program.iter_calls(fn)
            ):
                continue
            self._check_function(ctx, module, fn)
