"""GRD01 — guarded-field lockset analysis (RacerD-style heuristic).

A field is *guarded* when the class itself treats it as lock-protected:
it is a shared mutable container created in ``__init__`` (dict, list,
set, ``itertools.count`` …) and at least one of its **mutations** runs
under an exclusive lock.  Once a field is guarded, every other mutation
must hold an exclusive lock too — lexically, or by running in a helper
method that is only ever called from locked contexts (a greatest
fixpoint over the class's internal call graph, the same solver TXN01
uses for transaction-only helpers).

Two deliberate exclusions keep the signal clean:

* ``__init__`` mutations are exempt — the object is not shared yet;
* unlocked **reads** are exempt: CPython's GIL makes single dict/list
  reads atomic, and the repo's read paths lean on that (e.g. the
  catalog reads its object-name map without the write lock — a reader
  racing one ingest sees the map with or without the new name, both
  valid).  What must never race is two read-modify-write
  mutations, and that is exactly what this rule pins.

Read-side RWLock acquisitions do **not** guard a mutation — two
readers hold them concurrently.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from ..callgraph import CallGraph
from ..facts import greatest_fixpoint
from ..linter import LintContext, Rule, call_name
from ..program import ClassInfo, FunctionInfo
from .lock_discipline import shared_callgraph

__all__ = ["GuardedFieldRule"]

#: Constructor calls whose results are shared mutable containers.
_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
    "deque", "count",
})

#: Method calls that mutate their receiver container.
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "update", "pop", "popleft", "popitem",
    "clear", "remove", "discard", "extend", "insert", "setdefault",
})


def _self_attr(node: ast.AST) -> str:
    """``"attr"`` when ``node`` is ``self.attr`` / ``cls.attr``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    ):
        return node.attr
    return ""


def _tracked_attrs(init: FunctionInfo) -> Set[str]:
    """Mutable-container attributes assigned in ``__init__``."""
    attrs: Set[str] = set()
    for node in ast.walk(init.node):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                    ast.ListComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call) and call_name(value) in _MUTABLE_CTORS
        )
        if not mutable:
            continue
        for target in targets:
            attr = _self_attr(target)
            if attr:
                attrs.add(attr)
    return attrs


def _mutations(fn: FunctionInfo, attrs: Set[str]) -> List[Tuple[str, ast.AST]]:
    """``(attr, node)`` for every mutation of a tracked attribute
    inside ``fn`` (excluding nested defs — separate FunctionInfos)."""
    out: List[Tuple[str, ast.AST]] = []
    nested = {
        node for node in ast.walk(fn.node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node is not fn.node
    }

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if child in nested:
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = (
                    child.targets if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        attr = _self_attr(target.value)
                        if attr in attrs:
                            out.append((attr, child))
            elif isinstance(child, ast.Delete):
                for target in child.targets:
                    if isinstance(target, ast.Subscript):
                        attr = _self_attr(target.value)
                        if attr in attrs:
                            out.append((attr, child))
            elif isinstance(child, ast.Call):
                name = call_name(child)
                if name in _MUTATOR_METHODS and isinstance(
                    child.func, ast.Attribute
                ):
                    attr = _self_attr(child.func.value)
                    if attr in attrs:
                        out.append((attr, child))
                elif (
                    name == "next"
                    and child.args
                    and _self_attr(child.args[0]) in attrs
                ):
                    # next(self._object_ids) advances the shared counter.
                    out.append((_self_attr(child.args[0]), child))
            visit(child)

    visit(fn.node)
    return out


class GuardedFieldRule(Rule):
    """See module docstring."""

    id = "GRD01"
    title = "guarded fields must be mutated under their lock"

    def _locked_nodes(
        self, graph: CallGraph, fn: FunctionInfo
    ) -> Tuple[Set[ast.AST], Set[str]]:
        """Nodes of ``fn`` under an exclusive acquisition, and the
        tokens of those acquisitions."""
        members: Set[ast.AST] = set()
        tokens: Set[str] = set()
        for acq in graph.acquisitions(fn):
            if not acq.write:
                continue
            tokens.add(acq.token)
            for stmt in acq.body:
                members.add(stmt)
                members.update(ast.walk(stmt))
        return members, tokens

    def _check_class(
        self, ctx: LintContext, graph: CallGraph, cls: ClassInfo
    ) -> None:
        init = cls.methods.get("__init__")
        if init is None:
            return
        attrs = _tracked_attrs(init)
        if not attrs:
            return
        methods = {
            name: fn for name, fn in cls.methods.items() if name != "__init__"
        }
        locked: Dict[str, Tuple[Set[ast.AST], Set[str]]] = {
            name: self._locked_nodes(graph, fn)
            for name, fn in methods.items()
        }

        # Greatest fixpoint: a method is locked-context when every
        # internal call site of it sits under an exclusive lock or in
        # another locked-context method.
        call_sites: Dict[str, List[Tuple[str, ast.Call]]] = {}
        for caller, fn in methods.items():
            for call in graph.program.iter_calls(fn):
                callee = call_name(call)
                if (
                    callee in methods
                    and callee != caller
                    and isinstance(call.func, ast.Attribute)
                    and _self_attr(call.func) == callee
                ):
                    call_sites.setdefault(callee, []).append((caller, call))

        def holds(name: str, others: Set[str]) -> bool:
            sites = call_sites.get(name)
            if not sites:
                return False
            return all(
                node in locked[caller][0] or caller in others
                for caller, node in sites
            )

        locked_methods = greatest_fixpoint(call_sites, holds)

        # Pass 1: which attrs have at least one locked mutation (that is
        # what makes them *guarded*), and under which tokens.
        guard_tokens: Dict[str, Set[str]] = {}
        all_mutations: List[Tuple[str, str, FunctionInfo, ast.AST, bool]] = []
        for name, fn in methods.items():
            members, tokens = locked[name]
            for attr, node in _mutations(fn, attrs):
                is_locked = node in members or name in locked_methods
                if is_locked and tokens:
                    guard_tokens.setdefault(attr, set()).update(tokens)
                elif is_locked and name in locked_methods:
                    guard_tokens.setdefault(attr, set())
                all_mutations.append((attr, name, fn, node, is_locked))

        # Pass 2: flag unlocked mutations of guarded attrs.
        for attr, name, fn, node, is_locked in all_mutations:
            if is_locked or attr not in guard_tokens:
                continue
            tokens = sorted(guard_tokens[attr]) or ["its lock"]
            ctx.report(
                self.id, fn.module.source, node.lineno,
                f"{cls.name}.{attr} is guarded by {', '.join(tokens)} "
                f"elsewhere but {name}() mutates it without holding an "
                f"exclusive lock",
            )

    def check(self, ctx: LintContext) -> None:
        graph = shared_callgraph(ctx)
        seen: Set[int] = set()
        for candidates in ctx.program.classes.values():
            for cls in candidates:
                if id(cls) in seen:
                    continue
                seen.add(id(cls))
                self._check_class(ctx, graph, cls)
