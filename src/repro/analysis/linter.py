"""``repro lint`` — the project-specific static-analysis engine.

The catalog's correctness rests on a handful of conventions that no
general-purpose tool knows about: every write flows through
``run_transaction``, fault-site names stay registered and exercised,
metric names stay declared and unique, locks cover the store's rows and
are taken in one order, and acquired resources are released.  This
module turns those conventions into
machine-checked invariants: it parses ``src/`` (and, for fault-site
coverage, ``tests/faults/``) into ASTs once per run, hands the parsed
modules to each registered :class:`Rule`, and collects structured
:class:`~repro.analysis.findings.Finding` records.  There is no
findings cache: a cold run of the whole tree fits the 1 s budget.

A finding can be waived with an inline pragma on the offending line::

    store._fault(site)  # reprolint: ignore[FLT01] read verbs never fire

Waivers stay visible: suppressed findings are kept in the report (as
SARIF suppressions in ``--sarif`` output) so they can be audited; they
simply do not affect the exit code.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .findings import Finding, Severity, active, make_finding

__all__ = [
    "LintContext",
    "Rule",
    "SourceModule",
    "active",
    "default_rules",
    "render_sarif_report",
    "render_text_report",
    "run_lint",
]

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*ignore(?:\[([A-Za-z0-9_*,\s]+)\])?"
)


def parse_pragmas(text: str) -> Dict[int, Set[str]]:
    """``line -> {rule ids}`` for every ``# reprolint: ignore[...]``
    pragma; a bare ``ignore`` (no bracket) waives every rule (``*``)."""
    pragmas: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = match.group(1)
        if rules is None:
            pragmas[lineno] = {"*"}
        else:
            pragmas[lineno] = {r.strip() for r in rules.split(",") if r.strip()}
    return pragmas


def expand_pragmas(
    tree: ast.Module, pragmas: Dict[int, Set[str]]
) -> Dict[int, Set[str]]:
    """Widen the raw line→rules pragma map to cover whole statements.

    Rules report on a statement's *first* line, but a pragma naturally
    lives where the reader put it — on the closing line of a wrapped
    call, or on a decorator above a ``def``.  Two widenings keep the
    intended behavior:

    * a pragma on **any** physical line of a simple (body-less)
      statement applies to the statement's entire ``lineno..end_lineno``
      range;
    * a pragma on a decorator line of a function/class definition
      applies to the ``def``/``class`` line itself (where LCK01's
      entry-point findings anchor).

    Compound statements (``if``/``with``/``for`` …) deliberately do not
    spread a body pragma across the whole block — a waiver inside a
    ``with`` must not silence an unrelated finding three lines up."""
    if not pragmas:
        return pragmas
    expanded: Dict[int, Set[str]] = {k: set(v) for k, v in pragmas.items()}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                for line in range(
                    decorator.lineno, (decorator.end_lineno or decorator.lineno) + 1
                ):
                    rules = pragmas.get(line)
                    if rules:
                        expanded.setdefault(node.lineno, set()).update(rules)
            continue
        if not isinstance(node, ast.stmt) or hasattr(node, "body"):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        if end == node.lineno:
            continue
        span = range(node.lineno, end + 1)
        hits: Set[str] = set()
        for line in span:
            hits.update(pragmas.get(line, ()))
        if hits:
            for line in span:
                expanded.setdefault(line, set()).update(hits)
    return expanded


class SourceModule:
    """One parsed source file: AST, raw text, and pragma map."""

    __slots__ = ("path", "display", "text", "tree", "pragmas", "error")

    def __init__(self, path: Path, display: str) -> None:
        self.path = path
        self.display = display
        self.text = path.read_text()
        self.pragmas = parse_pragmas(self.text)
        self.error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(
                self.text, filename=str(path)
            )
        except SyntaxError as exc:
            self.tree = None
            self.error = exc
        if self.tree is not None:
            self.pragmas = expand_pragmas(self.tree, self.pragmas)

    def endswith(self, *suffixes: str) -> bool:
        """Match by path suffix so rules target the same files in the
        real tree and in fixture trees."""
        posix = self.path.as_posix()
        return any(posix.endswith(suffix) for suffix in suffixes)


class LintContext:
    """Everything a rule sees: parsed ``src`` modules plus the
    ``tests/faults`` modules (for FLT01 coverage), the shared
    whole-program model, and a findings sink."""

    def __init__(
        self,
        modules: Sequence[SourceModule],
        fault_test_modules: Sequence[SourceModule] = (),
    ) -> None:
        self.modules = list(modules)
        self.fault_test_modules = list(fault_test_modules)
        self.findings: List[Finding] = []
        self._program = None

    @property
    def program(self):
        """The shared whole-program model, built on first use."""
        if self._program is None:
            from .program import build_program

            self._program = build_program(self.modules)
        return self._program

    def modules_matching(self, *suffixes: str) -> List[SourceModule]:
        return [m for m in self.modules if m.endswith(*suffixes)]

    def report(
        self,
        rule_id: str,
        module: Optional[SourceModule],
        line: int,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> None:
        display = module.display if module is not None else "<project>"
        pragmas = module.pragmas if module is not None else None
        self.findings.append(
            make_finding(rule_id, display, line, message, severity, pragmas)
        )


class Rule:
    """A named invariant checked over the parsed tree."""

    id: str = "RULE"
    title: str = ""

    def check(self, ctx: LintContext) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Shared AST helpers used by the concrete rules
# ---------------------------------------------------------------------------

def call_name(node: ast.Call) -> Optional[str]:
    """The trailing name of a call target: ``foo(...)`` and
    ``self.foo(...)`` both yield ``"foo"``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def const_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def str_prefix(node: Optional[ast.AST]) -> Optional[str]:
    """The leading literal text of a string expression: a plain
    constant, or the constant head of an f-string (enough to read a
    SQL verb or a site prefix off a partially dynamic string)."""
    literal = const_str(node)
    if literal is not None:
        return literal
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value
    return None


def local_str_values(scope: ast.AST, name: str) -> Optional[List[str]]:
    """Every string a local ``name`` can hold inside ``scope``, when
    all of its bindings are resolvable literals (assignments or
    for-loops over literal tuples); ``None`` when any binding is
    opaque."""
    values: List[str] = []
    resolvable = True
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    prefix = str_prefix(node.value)
                    if prefix is None:
                        resolvable = False
                    else:
                        values.append(prefix)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            if isinstance(target, ast.Name) and target.id == name:
                iter_node = node.iter
                if isinstance(iter_node, (ast.Tuple, ast.List)):
                    for element in iter_node.elts:
                        prefix = str_prefix(element)
                        if prefix is None:
                            resolvable = False
                        else:
                            values.append(prefix)
                else:
                    resolvable = False
    if not resolvable or not values:
        return None
    return values


def enclosing_functions(
    tree: ast.AST,
) -> Dict[ast.AST, List[ast.AST]]:
    """Map every AST node to its chain of enclosing function-like
    scopes (outermost first)."""
    chains: Dict[ast.AST, List[ast.AST]] = {}

    def visit(node: ast.AST, chain: List[ast.AST]) -> None:
        chains[node] = chain
        is_scope = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        child_chain = chain + [node] if is_scope else chain
        for child in ast.iter_child_nodes(node):
            visit(child, child_chain)

    visit(tree, [])
    return chains


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def default_rules() -> List[Rule]:
    """The repo rules, bound to the live registries."""
    from .rules import build_default_rules

    return build_default_rules()


def _iter_py_files(root: Path) -> Iterable[Path]:
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path


def _display_for(path: Path, base: Optional[Path]) -> str:
    if base is not None:
        try:
            return path.relative_to(base).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def load_modules(root: Path, display_base: Optional[Path] = None) -> List[SourceModule]:
    base = display_base if display_base is not None else root.parent
    return [SourceModule(path, _display_for(path, base)) for path in _iter_py_files(root)]


def run_lint(
    src_root: Path,
    fault_tests_root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    display_base: Optional[Path] = None,
) -> List[Finding]:
    """Lint the tree rooted at ``src_root``; returns all findings
    (including suppressed ones), sorted by location."""
    modules = load_modules(src_root, display_base)
    fault_tests: List[SourceModule] = []
    if fault_tests_root is not None and fault_tests_root.is_dir():
        fault_tests = load_modules(fault_tests_root, display_base)
    ctx = LintContext(modules, fault_tests)
    for module in ctx.modules + ctx.fault_test_modules:
        if module.error is not None:
            ctx.report(
                "PARSE", module, module.error.lineno or 1,
                f"file does not parse: {module.error.msg}",
            )
    for rule in (rules if rules is not None else default_rules()):
        rule.check(ctx)
    ctx.findings.sort(key=Finding.sort_key)
    return ctx.findings


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------

def render_text_report(findings: Sequence[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines: List[str] = []
    for f in findings:
        tag = " (suppressed)" if f.suppressed else ""
        lines.append(
            f"{f.location()}: {f.rule_id} {f.severity.value}{tag}: {f.message}"
        )
    live = active(findings)
    suppressed = sum(1 for f in findings if f.suppressed)
    summary = f"{len(live)} finding(s)"
    if suppressed:
        summary += f", {suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)


def render_sarif_report(
    findings: Sequence[Finding],
    rules: Optional[Sequence[Rule]] = None,
) -> str:
    """SARIF 2.1.0 report (``repro lint --sarif``) so CI can annotate
    pull requests with findings in place.  Suppressed findings are
    carried as SARIF suppressions rather than dropped, so every waiver
    stays auditable."""
    rule_meta = {}
    for rule in rules or default_rules():
        rule_meta[rule.id] = {
            "id": rule.id,
            "shortDescription": {"text": rule.title or rule.id},
        }
    rule_meta.setdefault(
        "PARSE",
        {"id": "PARSE", "shortDescription": {"text": "file does not parse"}},
    )
    results = []
    for f in findings:
        rule_meta.setdefault(
            f.rule_id,
            {"id": f.rule_id, "shortDescription": {"text": f.rule_id}},
        )
        entry = {
            "ruleId": f.rule_id,
            "level": "error" if f.severity is Severity.ERROR else "warning",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {"startLine": max(f.line, 1)},
                    }
                }
            ],
        }
        if f.suppressed:
            entry["suppressions"] = [
                {"kind": "inSource", "justification": "reprolint: ignore pragma"}
            ]
        results.append(entry)
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": "https://example.invalid/repro",
                        "version": "1.0.0",
                        "rules": [
                            rule_meta[key] for key in sorted(rule_meta)
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
