"""Project-wide call graph over the :class:`~repro.analysis.program.Program`.

Two derived relations feed the interprocedural rules:

* :func:`reachable_call_names` — the **optimistic** transitive closure
  of call-target names from a starting function.  Used by LCK01's
  "does this entry point reach a lock acquire" existence check, where
  an unresolvable edge must not hide a genuine acquisition.
* :func:`may_acquire` / :func:`acquisition_sites` — the **precise**
  closure of lock tokens a function may take, used by LCK02's
  upgrade/ordering checks, where a guessed edge would fabricate a
  deadlock report.

Lock *tokens* name a lock per defining class: ``HybridCatalog._write_lock``
for a ``with self._write_lock:`` acquisition, ``HybridStore.rwlock``
for the RWLock behind ``read_locked``/``write_locked``/
``transaction``/``run_transaction``.  Tokens are what the lock-order
graph is built over, so two methods of the same class taking the same
attribute collapse to one node.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .linter import call_name
from .program import FunctionInfo, Program

__all__ = [
    "CallGraph",
    "LockAcquisition",
    "acquisition_token",
    "lexical_acquisitions",
]

#: Context-manager method names that acquire the class's RWLock.
RWLOCK_METHODS = frozenset({"read_locked", "write_locked", "run_transaction"})
#: Of those, the ones that take (or may take) the write side.
RWLOCK_WRITE_METHODS = frozenset({"write_locked", "run_transaction"})


class LockAcquisition:
    """One lexical lock acquisition: a ``with``-item whose context
    expression names a lock, plus the statements it covers."""

    __slots__ = ("token", "write", "node", "body", "fn")

    def __init__(
        self,
        token: str,
        write: bool,
        node: ast.stmt,
        body: Sequence[ast.stmt],
        fn: FunctionInfo,
    ) -> None:
        self.token = token
        self.write = write
        self.node = node
        self.body = list(body)
        self.fn = fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "w" if self.write else "r"
        return f"LockAcquisition({self.token}/{mode}@{self.node.lineno})"


def _owner_name(program: Program, fn: FunctionInfo) -> str:
    cls = program.enclosing_class(fn)
    return cls.name if cls is not None else fn.module.display


def _attr_owner(program: Program, fn: FunctionInfo, attr: str) -> str:
    """The class that *defines* ``self.<attr>`` (first of the class and
    its bases whose ``__init__`` assigns it), so a base-class lock used
    from two subclasses is one token, not three."""
    cls = program.enclosing_class(fn)
    if cls is None:
        return fn.module.display
    for candidate in [cls] + program.bases_of(cls):
        init = candidate.methods.get("__init__")
        if init is None:
            continue
        for node in ast.walk(init.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == attr
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return candidate.name
    return cls.name


def _method_owner(program: Program, fn: FunctionInfo, method: str) -> str:
    """The class *defining* ``self.<method>()`` — same collapsing as
    :func:`_attr_owner`, for the RWLock context-manager methods."""
    cls = program.enclosing_class(fn)
    if cls is None:
        return fn.module.display
    defined = program.resolve_method(cls, method)
    if defined is not None and defined.cls is not None:
        return defined.cls.name
    return cls.name


def acquisition_token(
    program: Program, fn: FunctionInfo, expr: ast.AST
) -> Optional[Tuple[str, bool]]:
    """``(token, is_write)`` when ``expr`` (a with-item context
    expression) acquires a lock; ``None`` otherwise.

    Recognized shapes, all scoped to the defining class so unrelated
    classes' ``_lock`` attributes stay distinct tokens:

    * ``self._lock`` / ``self._cond`` — a plain mutex attribute
      (always exclusive).
    * ``self.read_locked()`` / ``self.write_locked()`` /
      ``self.run_transaction(...)`` — the class RWLock, read or write side.
    * ``<anything>.read_locked()`` etc. on a non-self receiver — the
      RWLock of whichever class defines the method when the receiver
      is a known attribute; otherwise a receiver-less generic token.
    * ``lock`` / ``LOCK_NAME`` bare names bound at module level —
      module-scoped token.
    """
    owner = _owner_name(program, fn)
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        attr_lower = expr.attr.lower()
        looks_like_lock = any(
            word in attr_lower for word in ("lock", "cond", "mutex")
        )
        if not looks_like_lock:
            # ``with self.connection:`` and friends are context
            # managers, not provable lock acquisitions.
            return None
        if expr.value.id in ("self", "cls"):
            return f"{_attr_owner(program, fn, expr.attr)}.{expr.attr}", True
        if expr.value.id == expr.value.id.upper():
            return f"{fn.module.display}.{expr.attr}", True
        return None
    if isinstance(expr, ast.Name):
        name = expr.id
        if name == name.upper() and ("LOCK" in name or "MUTEX" in name):
            return f"{fn.module.display}.{name}", True
        return None
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in RWLOCK_METHODS:
            write = name in RWLOCK_WRITE_METHODS
            receiver = expr.func
            if isinstance(receiver, ast.Attribute):
                value = receiver.value
                if isinstance(value, ast.Name) and value.id in ("self", "cls"):
                    return f"{_method_owner(program, fn, name)}.rwlock", write
                # store.read_locked(), self._store.run_transaction(): token per
                # the class that defines the method, if unambiguous.
                defs = {
                    f.cls.name for f in program.by_name.get(name, [])
                    if f.cls is not None
                }
                if len(defs) == 1:
                    return f"{next(iter(defs))}.rwlock", write
                return "<extern>.rwlock", write
            return "<extern>.rwlock", write
        # with self._lock.read() / .write() style wrappers.
        if name in ("read", "write") and isinstance(expr.func, ast.Attribute):
            inner = expr.func.value
            if (
                isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id in ("self", "cls")
            ):
                return f"{owner}.{inner.attr}", name == "write"
        # acquire-style helper: with locked(self._x): not used here.
        return None
    return None


def lexical_acquisitions(
    program: Program, fn: FunctionInfo
) -> List[LockAcquisition]:
    """Every lock-acquiring ``with`` item lexically inside ``fn``
    (excluding nested defs — they acquire in their own frame).

    The covered statements are the ``with`` body only: context
    expressions of sibling with-items evaluate *before* the acquisition
    completes, so ``with self._rwlock().read_locked():`` does not put
    the ``_rwlock()`` call under the lock."""
    out: List[LockAcquisition] = []
    nested = {
        node
        for node in ast.walk(fn.node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node is not fn.node
    }

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if child in nested:
                continue
            if isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    tok = acquisition_token(program, fn, item.context_expr)
                    if tok is not None:
                        out.append(
                            LockAcquisition(tok[0], tok[1], child, child.body, fn)
                        )
            visit(child)

    visit(fn.node)
    return out


class CallGraph:
    """Cached resolution + closures over a built Program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._reachable: Dict[FunctionInfo, Set[str]] = {}
        self._may_acquire: Dict[FunctionInfo, Set[Tuple[str, bool]]] = {}
        self._acq_cache: Dict[FunctionInfo, List[LockAcquisition]] = {}
        self._opt_edges: Dict[
            FunctionInfo, Tuple[Set[str], List[FunctionInfo]]
        ] = {}
        self._precise_edges: Dict[
            FunctionInfo, Tuple[Set[Tuple[str, bool]], List[FunctionInfo]]
        ] = {}

    # -- lexical --------------------------------------------------------
    def acquisitions(self, fn: FunctionInfo) -> List[LockAcquisition]:
        if fn not in self._acq_cache:
            self._acq_cache[fn] = lexical_acquisitions(self.program, fn)
        return self._acq_cache[fn]

    # -- per-function edges (memoized: every closure that visits a
    # function reuses one resolution pass) -------------------------------
    def _optimistic_edges(
        self, fn: FunctionInfo
    ) -> Tuple[Set[str], List[FunctionInfo]]:
        cached = self._opt_edges.get(fn)
        if cached is None:
            names: Set[str] = set()
            targets: List[FunctionInfo] = []
            for call in self.program.iter_calls(fn):
                name = call_name(call)
                if name is not None:
                    names.add(name)
                targets.extend(
                    self.program.resolve_call(fn, call, optimistic=True)
                )
            # Nested defs run in service of the enclosing function.
            targets.extend(self.program.children.get(fn, ()))
            cached = (names, targets)
            self._opt_edges[fn] = cached
        return cached

    def _precise_edges_of(
        self, fn: FunctionInfo
    ) -> Tuple[Set[Tuple[str, bool]], List[FunctionInfo]]:
        cached = self._precise_edges.get(fn)
        if cached is None:
            tokens: Set[Tuple[str, bool]] = {
                (acq.token, acq.write) for acq in self.acquisitions(fn)
            }
            targets: List[FunctionInfo] = []
            # RWLock methods ARE acquisitions when called (not as a
            # with-context — that case is a lexical acquisition already).
            for call in self.program.iter_calls(fn):
                if call_name(call) == "run_transaction":
                    tok = acquisition_token(self.program, fn, call)
                    if tok is not None:
                        tokens.add(tok)
                targets.extend(self.program.resolve_call(fn, call))
            cached = (tokens, targets)
            self._precise_edges[fn] = cached
        return cached

    # -- optimistic closure ---------------------------------------------
    def reachable_call_names(self, fn: FunctionInfo) -> Set[str]:
        """Every call-target *name* reachable from ``fn`` through the
        optimistic call graph (attribute calls fan out to all same-named
        functions).  Nested defs of ``fn`` count as reachable — they run
        (or are scheduled) from the enclosing body."""
        cached = self._reachable.get(fn)
        if cached is not None:
            return cached
        names: Set[str] = set()
        seen: Set[FunctionInfo] = set()
        stack: List[FunctionInfo] = [fn]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            edge_names, targets = self._optimistic_edges(current)
            names |= edge_names
            for target in targets:
                if target not in seen:
                    stack.append(target)
        self._reachable[fn] = names
        return names

    # -- precise closure ------------------------------------------------
    def may_acquire(self, fn: FunctionInfo) -> Set[Tuple[str, bool]]:
        """Lock tokens ``fn`` may take — its own lexical acquisitions
        plus those of precisely-resolved callees, transitively.  Under-
        approximate by construction: an unresolved call contributes
        nothing, so every token in the result is justified by a chain
        of real definitions."""
        cached = self._may_acquire.get(fn)
        if cached is not None:
            return cached
        tokens: Set[Tuple[str, bool]] = set()
        seen: Set[FunctionInfo] = set()
        stack: List[FunctionInfo] = [fn]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            edge_tokens, targets = self._precise_edges_of(current)
            tokens |= edge_tokens
            for target in targets:
                if target not in seen:
                    stack.append(target)
        self._may_acquire[fn] = tokens
        return tokens
