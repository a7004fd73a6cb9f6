"""The whole-program model behind the interprocedural lint rules.

PR 4's rules were strictly per-file: each rule re-walked its own
module's AST and could not see that a helper called three frames deep
touches shared state without a lock.  This module parses the whole
tree **once** into a :class:`Program` — a module index, a class table
with base resolution, and a function table keyed by qualified name —
which :mod:`repro.analysis.callgraph` turns into a project-wide call
graph and :mod:`repro.analysis.facts` runs fixpoint solvers over.

Resolution is name-based and deliberately two-speed:

* ``self.m()`` / ``cls.m()`` resolve **precisely** through the class
  table (own methods first, then bases by simple name, transitively);
  bare ``f()`` resolves to same-module functions and then to imported
  names.  Precise resolution never guesses, so facts derived from it
  (may-acquire sets, lock-order edges) carry no cross-class noise.
* ``obj.m()`` on an arbitrary expression resolves **optimistically**
  to every program function named ``m`` — a sound over-approximation
  for reachability questions ("does this entry point reach a lock
  acquire on *some* path"), where missing an edge would fabricate a
  finding.

Both resolutions are computed once per build and cached on the
:class:`Program`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set

from .linter import SourceModule, call_name

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "Program",
]


class FunctionInfo:
    """One function-like scope: a method, a module-level function, or
    a nested function (lambdas are anonymous and not indexed)."""

    __slots__ = ("qualname", "name", "node", "module", "cls", "parent")

    def __init__(
        self,
        qualname: str,
        node: ast.AST,
        module: "ModuleInfo",
        cls: Optional["ClassInfo"],
        parent: Optional["FunctionInfo"],
    ) -> None:
        self.qualname = qualname
        self.name = getattr(node, "name", "<lambda>")
        self.node = node
        self.module = module
        self.cls = cls
        self.parent = parent

    def is_abstract(self) -> bool:
        """True for stub bodies: a lone docstring, ``...``, ``pass``,
        or a single unconditional ``raise``."""
        body = list(self.node.body)
        if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant
        ):
            body = body[1:]
        if not body:
            return True
        if len(body) == 1:
            stmt = body[0]
            if isinstance(stmt, ast.Pass) or isinstance(stmt, ast.Raise):
                return True
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                return True
            if isinstance(stmt, ast.Return) and (
                stmt.value is None or isinstance(stmt.value, ast.Constant)
            ):
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname})"


class ClassInfo:
    """One class definition with its direct methods and base names."""

    __slots__ = ("name", "node", "module", "methods", "base_names")

    def __init__(self, name: str, node: ast.ClassDef, module: "ModuleInfo") -> None:
        self.name = name
        self.node = node
        self.module = module
        self.methods: Dict[str, FunctionInfo] = {}
        self.base_names: List[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                self.base_names.append(base.id)
            elif isinstance(base, ast.Attribute):
                self.base_names.append(base.attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.name})"


class ModuleInfo:
    """One parsed module: its classes, functions, and imported names."""

    __slots__ = ("source", "classes", "functions", "imports")

    def __init__(self, source: SourceModule) -> None:
        self.source = source
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: local alias -> imported simple name (``from x import f as g``
        #: maps ``g`` to ``f``; ``import x.y`` maps ``x`` to ``x``).
        self.imports: Dict[str, str] = {}

    @property
    def display(self) -> str:
        return self.source.display


class Program:
    """The whole tree, parsed once and indexed for interprocedural
    rules.  Built by :func:`build_program`; one instance is shared by
    every rule in a lint run through ``LintContext.program``."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules: List[ModuleInfo] = []
        #: qualified name ("module.py::Class.method") -> FunctionInfo
        self.functions: Dict[str, FunctionInfo] = {}
        #: simple function/method name -> every FunctionInfo bearing it
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: simple class name -> every ClassInfo bearing it
        self.classes: Dict[str, List[ClassInfo]] = {}
        #: FunctionInfo for an AST node (defs only, not lambdas)
        self.by_node: Dict[ast.AST, FunctionInfo] = {}
        #: directly nested defs per function (parent backlink inverted)
        self.children: Dict[FunctionInfo, List[FunctionInfo]] = {}
        #: memoized per-function call lists (closures revisit functions
        #: once per entry point; the AST walk must not repeat)
        self._call_lists: Dict[FunctionInfo, List[ast.Call]] = {}
        for source in modules:
            if source.tree is None:
                continue
            self.modules.append(self._index_module(source))
        for info in self.functions.values():
            if info.parent is not None:
                self.children.setdefault(info.parent, []).append(info)

    # -- construction ---------------------------------------------------
    def _index_module(self, source: SourceModule) -> ModuleInfo:
        module = ModuleInfo(source)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    module.imports[local] = alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    local = alias.asname or alias.name
                    module.imports[local] = alias.name

        def add_function(
            node: ast.AST,
            cls: Optional[ClassInfo],
            parent: Optional[FunctionInfo],
        ) -> FunctionInfo:
            scope = f"{cls.name}." if cls is not None else ""
            prefix = f"{parent.qualname}::" if parent is not None else (
                f"{module.display}::"
            )
            qualname = (
                f"{prefix}{scope}{node.name}"
                if parent is None
                else f"{prefix}{node.name}"
            )
            info = FunctionInfo(qualname, node, module, cls, parent)
            self.functions[qualname] = info
            self.by_name.setdefault(info.name, []).append(info)
            self.by_node[node] = info
            if cls is not None and parent is None:
                cls.methods[info.name] = info
            elif cls is None and parent is None:
                module.functions[info.name] = info
            return info

        def visit(
            node: ast.AST,
            cls: Optional[ClassInfo],
            parent: Optional[FunctionInfo],
        ) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    info = ClassInfo(child.name, child, module)
                    module.classes[child.name] = info
                    self.classes.setdefault(child.name, []).append(info)
                    visit(child, info, None)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = add_function(child, cls if parent is None else None, parent)
                    visit(child, cls, fn)
                else:
                    visit(child, cls, parent)

        visit(source.tree, None, None)
        return module

    # -- resolution -----------------------------------------------------
    def bases_of(self, cls: ClassInfo) -> List[ClassInfo]:
        """Transitive base classes resolved by simple name (first
        definition wins; cycles are cut)."""
        out: List[ClassInfo] = []
        seen = {cls.name}
        stack = list(cls.base_names)
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            candidates = self.classes.get(name)
            if not candidates:
                continue
            base = candidates[0]
            out.append(base)
            stack.extend(base.base_names)
        return out

    def base_name_closure(self, cls: ClassInfo) -> Set[str]:
        """Every base *name* in the transitive chain, including names
        that never resolve to a definition in the program (fixture
        trees subclass ``HybridStore`` without shipping it)."""
        names: Set[str] = set()
        stack = list(cls.base_names)
        while stack:
            name = stack.pop()
            if name in names:
                continue
            names.add(name)
            for base in self.classes.get(name, ()):
                stack.extend(base.base_names)
        return names

    def subclasses_of(self, name: str) -> List[ClassInfo]:
        """Every class whose (transitive) base-name chain includes
        ``name`` — how rules find both backends from ``HybridStore``."""
        out = []
        for candidates in self.classes.values():
            for cls in candidates:
                if cls.name == name or name in self.base_name_closure(cls):
                    out.append(cls)
        return out

    def resolve_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """``self.<name>`` resolution: the class's own method, else the
        first base (by MRO-ish order) defining it."""
        if name in cls.methods:
            return cls.methods[name]
        for base in self.bases_of(cls):
            if name in base.methods:
                return base.methods[name]
        return None

    def overrides_of(self, cls: ClassInfo, name: str) -> List[FunctionInfo]:
        """Virtual dispatch: the method plus every subclass override
        (a ``self._txn_begin()`` in the base reaches both backends)."""
        out: List[FunctionInfo] = []
        own = self.resolve_method(cls, name)
        if own is not None:
            out.append(own)
        for sub in self.subclasses_of(cls.name):
            if sub is not cls and name in sub.methods:
                out.append(sub.methods[name])
        return out

    def enclosing_class(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        node: Optional[FunctionInfo] = fn
        while node is not None:
            if node.cls is not None:
                return node.cls
            node = node.parent
        return None

    def resolve_call(
        self, fn: FunctionInfo, node: ast.Call, optimistic: bool = False
    ) -> List[FunctionInfo]:
        """Targets of one call site from inside ``fn``.

        Precise mode resolves ``self.m()`` (own class + bases +
        subclass overrides), bare names (nested siblings, same-module
        functions, imported names), and nothing else.  Optimistic mode
        adds every program function matching an attribute call's
        trailing name."""
        func = node.func
        name = call_name(node)
        if name is None:
            return []
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id in ("self", "cls"):
                cls = self.enclosing_class(fn)
                if cls is not None:
                    targets = self.overrides_of(cls, name)
                    if targets:
                        return targets
                return self.by_name.get(name, []) if optimistic else []
            if optimistic:
                return self.by_name.get(name, [])
            return []
        if isinstance(func, ast.Name):
            # Nested sibling / own module / imported function.
            scope = fn.parent
            while scope is not None:
                for child in ast.walk(scope.node):
                    info = self.by_node.get(child)
                    if info is not None and info.name == name and info.parent is scope:
                        return [info]
                scope = scope.parent
            module = fn.module
            if name in module.functions:
                return [module.functions[name]]
            imported = module.imports.get(name)
            if imported is not None:
                candidates = [
                    f for f in self.by_name.get(imported, [])
                    if f.cls is None and f.parent is None
                ]
                if candidates:
                    return candidates
            if optimistic:
                return [
                    f for f in self.by_name.get(name, [])
                    if f.parent is None
                ]
            return []
        return []

    def iter_calls(self, fn: FunctionInfo) -> Iterator[ast.Call]:
        """Call nodes belonging to ``fn`` itself (not to nested defs —
        those are separate FunctionInfos with their own call sites;
        lambdas stay with their enclosing function).  Memoized: the
        walk runs once per function per Program."""
        cached = self._call_lists.get(fn)
        if cached is None:
            cached = []
            stack: List[ast.AST] = [fn.node]
            while stack:
                node = stack.pop()
                for child in ast.iter_child_nodes(node):
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    if isinstance(child, ast.Call):
                        cached.append(child)
                    stack.append(child)
            self._call_lists[fn] = cached
        return iter(cached)


def build_program(modules: Sequence[SourceModule]) -> Program:
    return Program(modules)
