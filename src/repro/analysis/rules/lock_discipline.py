"""LCK01/LCK02 — interprocedural lock discipline.

Since PR 5 the catalog's consistency under threads rests on a
hand-maintained protocol: every store write runs under the write side
of the store's RWLock (via ``run_transaction``/``transaction``), every
read surface under the read side (``read_locked`` / the pooled
``_reader``).  Nothing enforced that
protocol — deleting one ``with self.read_locked():`` would pass every
functional test and fail only probabilistically under the concurrency
suites.  These two rules make it machine-checked:

* **LCK01** — every configured public read/write entry point on the
  storage backends must *reach* the correct lock
  acquisition through the optimistic whole-program call
  graph.  Over-approximate resolution is the right polarity here: a
  call edge we cannot rule out may be the one that takes the lock, so
  LCK01 only fires when **no** path can possibly acquire it.
* **LCK02** — two lock-safety checks built on the *precise* call
  graph (under-approximate: every reported chain is real):

  - read→write **upgrades**: a write-side acquisition of the same lock
    reachable from inside a read-side block (the RWLock raises at
    runtime by design; the linter moves that to lint time);
  - the global **lock-order graph** (edges from lexically nested
    ``with`` acquisitions plus precise interprocedural edges) must be
    acyclic — a static deadlock detector.

Context expressions of a ``with`` item evaluate *before* the lock is
taken, so ``with self._rwlock().write_locked():`` contributes no edge
from the RWLock to the init lock ``_rwlock`` takes internally.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Set, Tuple

from ..callgraph import CallGraph, LockAcquisition
from ..facts import find_cycle
from ..linter import LintContext, Rule, call_name
from ..program import FunctionInfo

__all__ = ["LockReachabilityRule", "LockOrderRule", "EntryPointSpec"]


def shared_callgraph(ctx: LintContext) -> CallGraph:
    """One CallGraph per lint run, shared by every rule that wants it."""
    graph = getattr(ctx, "_callgraph", None)
    if graph is None or graph.program is not ctx.program:
        graph = CallGraph(ctx.program)
        ctx._callgraph = graph
    return graph


class EntryPointSpec:
    """Lock obligations for one class family: which public methods are
    read/write entry points and which acquisition names discharge
    each obligation."""

    __slots__ = ("root", "read_entries", "write_entries",
                 "read_protections", "write_protections")

    def __init__(
        self,
        root: str,
        read_entries: FrozenSet[str],
        write_entries: FrozenSet[str],
        read_protections: FrozenSet[str],
        write_protections: FrozenSet[str],
    ) -> None:
        self.root = root
        self.read_entries = read_entries
        self.write_entries = write_entries
        self.read_protections = read_protections
        self.write_protections = write_protections


#: Write entries hold the RWLock write side via the transaction
#: protocol: they are ``HybridStore``'s own concrete shells, checked on
#: the root itself.
#: ``install_schema`` is deliberately absent: it runs on the
#: construction path before the store is shared, by contract.
_STORE_SPEC = EntryPointSpec(
    root="HybridStore",
    read_entries=frozenset({
        "is_initialized", "attach_schema", "load_definition_rows",
        "load_objects", "has_object", "object_count", "max_clob_seq",
        "instance_counts", "match_objects", "_execute_plan",
        "_read_section", "_clob_rows", "storage_report",
    }),
    write_entries=frozenset({
        "sync_definitions", "store_object", "append_rows",
        "delete_object", "remove_attribute_instance",
    }),
    # A write-side acquisition also excludes writers, so it satisfies a
    # read obligation (the :memory: fast path reads on the writer
    # connection inside an open transaction).
    read_protections=frozenset({
        "read_locked", "_reader", "write_locked", "run_transaction",
    }),
    write_protections=frozenset({
        "run_transaction", "write_locked",
    }),
)

#: The service facade's bookkeeping (users, experiments, ownership,
#: the published set, provenance links) is guarded by its own RWLock;
#: mutators hold the write side, multi-step reads the read side.  The
#: catalog delegations inside these entries take the store's lock on
#: their own — the spec pins the *service* lock reachability.
_SERVICE_SPEC = EntryPointSpec(
    root="MyLeadService",
    read_entries=frozenset({
        "users", "has_user", "experiment", "experiments_of",
        "is_visible", "query", "fetch", "search", "search_slice",
        "experiment_contents", "sources_of", "derived_products",
        "provenance_closure", "query_derived_from_matching",
    }),
    write_entries=frozenset({
        "create_user", "create_experiment", "add_file",
        "publish", "unpublish", "record_derivation",
    }),
    read_protections=frozenset({
        "read_locked", "_reader", "write_locked", "run_transaction",
    }),
    write_protections=frozenset({
        "run_transaction", "write_locked",
    }),
)

DEFAULT_SPECS: Tuple[EntryPointSpec, ...] = (_STORE_SPEC, _SERVICE_SPEC)


class LockReachabilityRule(Rule):
    """LCK01 — see module docstring."""

    id = "LCK01"
    title = "public entry points must reach their lock acquisitions"

    def __init__(self, specs: Tuple[EntryPointSpec, ...] = DEFAULT_SPECS) -> None:
        self.specs = specs

    def check(self, ctx: LintContext) -> None:
        graph = shared_callgraph(ctx)
        program = ctx.program
        for spec in self.specs:
            for cls in program.subclasses_of(spec.root):
                for mode, entries, protections in (
                    ("read", spec.read_entries, spec.read_protections),
                    ("write", spec.write_entries, spec.write_protections),
                ):
                    for name in sorted(entries):
                        fn = cls.methods.get(name)
                        if fn is None or fn.is_abstract():
                            continue
                        reached = graph.reachable_call_names(fn)
                        if reached & protections:
                            continue
                        want = "/".join(sorted(protections))
                        ctx.report(
                            self.id, fn.module.source, fn.node.lineno,
                            f"{cls.name}.{name} is a {mode} entry point but "
                            f"no call path from it reaches a lock "
                            f"acquisition ({want})",
                        )


class LockOrderRule(Rule):
    """LCK02 — see module docstring."""

    id = "LCK02"
    title = "no lock upgrades or lock-order cycles"

    def _body_members(
        self, graph: CallGraph, acq: LockAcquisition
    ) -> Set[ast.AST]:
        """Nodes executed while ``acq`` is held: the with-body subtree,
        minus nested function definitions (they run in their own
        frame, possibly on another thread)."""
        members: Set[ast.AST] = set()
        program = graph.program

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if (
                    isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and program.by_node.get(child) is not None
                ):
                    continue
                members.add(child)
                visit(child)

        for stmt in acq.body:
            members.add(stmt)
            visit(stmt)
        return members

    def _calls_in(self, graph: CallGraph, fn: FunctionInfo,
                  members: Set[ast.AST]) -> List[ast.Call]:
        return [
            call for call in graph.program.iter_calls(fn) if call in members
        ]

    # -- (a) read→write upgrades ---------------------------------------
    def _check_upgrades(self, ctx: LintContext, graph: CallGraph,
                        fn: FunctionInfo) -> None:
        acquisitions = graph.acquisitions(fn)
        for acq in acquisitions:
            if acq.write:
                continue
            members = self._body_members(graph, acq)
            for other in acquisitions:
                if other.write and other.token == acq.token and (
                    other.node in members
                ):
                    ctx.report(
                        self.id, fn.module.source, other.node.lineno,
                        f"read→write upgrade on {acq.token}: write-side "
                        f"acquisition inside a read-locked block "
                        f"(deadlocks a write-preferring RWLock)",
                    )
            for call in self._calls_in(graph, fn, members):
                for target in graph.program.resolve_call(fn, call):
                    if (acq.token, True) in graph.may_acquire(target):
                        ctx.report(
                            self.id, fn.module.source, call.lineno,
                            f"read→write upgrade on {acq.token}: "
                            f"{call_name(call)}() acquires the write side "
                            f"while the read side is held here",
                        )

    # -- (b) lock-order graph ------------------------------------------
    def _collect_edges(
        self, ctx: LintContext, graph: CallGraph
    ) -> Tuple[Dict[str, Set[str]], Dict[Tuple[str, str], Tuple]]:
        edges: Dict[str, Set[str]] = {}
        sites: Dict[Tuple[str, str], Tuple] = {}

        def add_edge(a: str, b: str, module, line: int, why: str) -> None:
            if a == b:
                return
            edges.setdefault(a, set()).add(b)
            sites.setdefault((a, b), (module, line, why))

        for fn in graph.program.functions.values():
            acquisitions = graph.acquisitions(fn)
            if not acquisitions:
                continue
            for acq in acquisitions:
                members = self._body_members(graph, acq)
                for other in acquisitions:
                    if other is acq:
                        continue
                    if other.node in members:
                        add_edge(
                            acq.token, other.token,
                            fn.module.source, other.node.lineno,
                            f"nested with in {fn.name}",
                        )
                    elif other.node is acq.node:
                        # `with a, b:` acquires left-to-right.
                        if acquisitions.index(acq) < acquisitions.index(other):
                            add_edge(
                                acq.token, other.token,
                                fn.module.source, other.node.lineno,
                                f"multi-item with in {fn.name}",
                            )
                for call in self._calls_in(graph, fn, members):
                    for target in graph.program.resolve_call(fn, call):
                        for token, _w in graph.may_acquire(target):
                            add_edge(
                                acq.token, token,
                                fn.module.source, call.lineno,
                                f"{fn.name} calls {call_name(call)}",
                            )
        return edges, sites

    def check(self, ctx: LintContext) -> None:
        graph = shared_callgraph(ctx)
        for fn in graph.program.functions.values():
            self._check_upgrades(ctx, graph, fn)
        edges, sites = self._collect_edges(ctx, graph)
        cycle = find_cycle(edges)
        if cycle:
            first = sites.get((cycle[0], cycle[1]))
            module, line = (first[0], first[1]) if first else (None, 1)
            order = " -> ".join(cycle)
            ctx.report(
                self.id, module, line,
                f"lock-order cycle {order}: these locks are acquired in "
                f"both nesting orders, which can deadlock; pick one global "
                f"order",
            )
