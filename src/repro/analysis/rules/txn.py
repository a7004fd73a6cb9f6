"""TXN01 — every catalog-table mutation runs inside a transaction.

PR 2 made crash safety depend on one convention: a write statement
(a row ``extend``/``insert``/``delete_rowids`` on the memory engine, an
``INSERT``/``UPDATE``/``DELETE`` statement on sqlite) may only execute
from code reachable via ``run_transaction``, because that is where the
BEGIN IMMEDIATE/undo-journal bracketing, rollback, and retry live.  A
mutation on any other path silently bypasses the whole protocol — it
would still pass the functional tests, and only a crash would reveal
it.  This rule makes the convention lexical:

* a mutation is **safe** when it sits inside a nested function or
  lambda passed to ``run_transaction`` in the same method, or inside
  a method that is *only ever called* from such contexts (computed as
  a greatest fixpoint over the class's internal call graph);
* anything else is a finding.

The call graph of a class includes the methods it **inherits**: the
write algorithms live once on ``HybridStore`` and reach each backend's
row primitives (``self._insert_rows(...)``) by virtual dispatch, so a
primitive is transaction-only exactly when every call site in the
backend *and* in the inherited shells is — and a backend method that
calls a primitive directly, outside ``run_transaction``, is a finding.

The read path writes nothing: a query is keyed ``SELECT`` reads, so
no waiver is needed.  A deliberate exception would carry a
``# reprolint: ignore[TXN01]`` pragma — the waiver visible in the
report rather than baked into the rule.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..facts import greatest_fixpoint
from ..linter import (
    LintContext,
    Rule,
    SourceModule,
    call_name,
    enclosing_functions,
    local_str_values,
    str_prefix,
)

#: Memory-engine table mutators (``Table.extend`` is matched by its
#: ``.table(...)`` receiver in ``_is_mutation``).
_ENGINE_MUTATORS = frozenset({"insert", "delete_rowids"})

#: SQL verbs that mutate rows (DDL and SELECT are not crash points).
_SQL_MUTATION_VERBS = frozenset({"INSERT", "UPDATE", "DELETE", "REPLACE"})

#: sqlite execution entry points carrying SQL text as their first arg.
_SQL_EXECUTORS = frozenset({"execute", "executemany", "executescript"})


def _sql_verb(sql: str) -> Optional[str]:
    tokens = sql.split(None, 1)
    return tokens[0].upper() if tokens else None


class TxnSafetyRule(Rule):
    """See module docstring."""

    id = "TXN01"
    title = "catalog mutations must run inside run_transaction"

    def __init__(
        self,
        targets: Tuple[str, ...] = ("core/storage.py", "backends/sqlite.py"),
    ) -> None:
        self.targets = targets

    # -- mutation detection --------------------------------------------
    def _module_constants(self, tree: ast.Module) -> Dict[str, List[str]]:
        """Module-level ``NAME = "literal"`` bindings (the DDL script
        constant on the sqlite backend) and ``NAME = {key: "literal",
        ...}`` statement tables (every value a ``NAME[key]`` can be)."""
        out: Dict[str, List[str]] = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(node.value, ast.Dict):
                    values = [str_prefix(v) for v in node.value.values]
                else:
                    values = [str_prefix(node.value)]
                if values and None not in values:
                    out[target.id] = values
        return out

    def _sql_texts(
        self,
        arg: ast.AST,
        scope: Optional[ast.AST],
        module_consts: Dict[str, List[str]],
    ) -> Optional[List[str]]:
        """Candidate SQL texts for an executor's first argument; ``None``
        when the argument cannot be resolved statically."""
        prefix = str_prefix(arg)
        if prefix is not None:
            return [prefix]
        if isinstance(arg, ast.Subscript):
            arg = arg.value  # NAME[key]: any statement of the table
        if isinstance(arg, ast.Name):
            if arg.id in module_consts:
                return module_consts[arg.id]
            if scope is not None:
                return local_str_values(scope, arg.id)
        return None

    def _is_mutation(
        self,
        node: ast.Call,
        scope: Optional[ast.AST],
        module_consts: Dict[str, List[str]],
    ) -> bool:
        name = call_name(node)
        if name in _ENGINE_MUTATORS:
            return True
        if name == "extend" and isinstance(node.func, ast.Attribute):
            # ``list.extend`` shares the name: only ``<db>.table(...).extend(rows)``.
            receiver = node.func.value
            return isinstance(receiver, ast.Call) and call_name(receiver) == "table"
        if name in _SQL_EXECUTORS and node.args:
            texts = self._sql_texts(node.args[0], scope, module_consts)
            if texts is None:
                return False  # opaque SQL: out of static reach
            return any(_sql_verb(text) in _SQL_MUTATION_VERBS for text in texts)
        return False

    # -- safety analysis ------------------------------------------------
    def _safe_scopes_for_method(self, method: ast.AST) -> Set[ast.AST]:
        """Function-like nodes inside ``method`` whose bodies run under a
        transaction: nested defs / lambdas passed to ``run_transaction``."""
        safe: Set[ast.AST] = set()
        nested_defs: Dict[str, ast.AST] = {
            node.name: node
            for node in ast.walk(method)
            if isinstance(node, ast.FunctionDef) and node is not method
        }
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) != "run_transaction" or len(node.args) < 2:
                continue
            fn = node.args[1]
            if isinstance(fn, ast.Lambda):
                safe.add(fn)
            elif isinstance(fn, ast.Name) and fn.id in nested_defs:
                safe.add(nested_defs[fn.id])
        return safe

    def _check_class(
        self, ctx: LintContext, module: SourceModule, cls: ast.ClassDef,
        module_consts: Dict[str, List[str]],
    ) -> None:
        own: Dict[str, ast.FunctionDef] = {
            node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)
        }
        # Own methods plus the inherited ones they do not override: a
        # base-class shell calling ``self._primitive()`` is a call site
        # of this class's primitive.
        methods = dict(own)
        program = ctx.program
        for info in program.classes.get(cls.name, ()):
            if info.node is cls:
                for base in program.bases_of(info):
                    for name, fn in base.methods.items():
                        methods.setdefault(name, fn.node)
        chains = {m: enclosing_functions(m) for m in methods.values()}
        safe_scopes: Dict[str, Set[ast.AST]] = {
            name: self._safe_scopes_for_method(m) for name, m in methods.items()
        }

        def context_is_safe(
            method_name: str, node: ast.AST, txn_only: Set[str]
        ) -> bool:
            method = methods[method_name]
            chain = chains[method][node]
            if any(scope in safe_scopes[method_name] for scope in chain):
                return True
            # The body of a transaction-only helper is safe throughout
            # (but not its own nested defs that escape — none do here).
            return method_name in txn_only

        # Internal call sites per method name: (caller, node).
        call_sites: Dict[str, List[Tuple[str, ast.Call]]] = {}
        for caller, method in methods.items():
            for node in ast.walk(method):
                if isinstance(node, ast.Call):
                    callee = call_name(node)
                    if callee in methods and callee != caller:
                        call_sites.setdefault(callee, []).append((caller, node))

        # Greatest fixpoint (shared solver, see analysis/facts.py):
        # start from every internally-called method, drop any with a
        # call site outside a safe context.
        txn_only: Set[str] = greatest_fixpoint(
            {name for name in call_sites if name != "run_transaction"},
            lambda name, others: all(
                context_is_safe(caller, node, others)
                for caller, node in call_sites[name]
            ),
        )

        for method_name, method in own.items():
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                if not self._is_mutation(node, method, module_consts):
                    continue
                if context_is_safe(method_name, node, txn_only):
                    continue
                ctx.report(
                    self.id, module, node.lineno,
                    f"{cls.name}.{method_name} mutates catalog state outside "
                    f"a transaction ({call_name(node)}); route it through "
                    "run_transaction",
                )

    def check(self, ctx: LintContext) -> None:
        for module in ctx.modules_matching(*self.targets):
            if module.tree is None:
                continue
            module_consts = self._module_constants(module.tree)
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    self._check_class(ctx, module, node, module_consts)
                elif isinstance(node, ast.FunctionDef):
                    # Module-level functions have no transaction context.
                    for call in ast.walk(node):
                        if isinstance(call, ast.Call) and self._is_mutation(
                            call, node, module_consts
                        ):
                            ctx.report(
                                self.id, module, call.lineno,
                                f"module-level function {node.name} mutates "
                                "catalog state outside any transaction",
                            )
