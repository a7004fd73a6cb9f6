"""OBS01 — metric names are declared once and created once.

The observability layer (PR 1) identifies metrics by name across
process boundaries (the ``<db>.metrics.json`` sidecar, Prometheus
exposition, the bench sidecars), so names are API.  Two failure modes
crept in as the codebase grew: the same metric created at several call
sites with duplicated help strings (which can drift apart), and names
that break the ``*_total`` / ``*_seconds`` convention the exporters and
dashboards assume.  This rule checks, over all of ``src/`` outside the
:mod:`repro.obs` infrastructure:

* every literal metric name created via ``.counter()`` / ``.gauge()`` /
  ``.histogram()`` (or passed to the ``_txn_counter`` cache helper) is
  declared in :mod:`repro.obs.names`, with the matching kind;
* counters end in ``_total``; histograms in ``_seconds`` or ``_rows``;
  gauges in neither;
* literal ``labels=(...)`` tuples match the declaration;
* each name has exactly one creation call site — shared metrics go
  through one helper, not copy-pasted registrations;
* a dynamic (non-literal) name is only allowed in a function that
  resolves its declaration via :func:`repro.obs.names.spec`.

PR 6 extends the same discipline to the other two name-keyed
observability surfaces:

* every literal event name passed to an ``.emit(...)`` attribute call
  is declared in :data:`repro.obs.names.EVENTS`, and every literal
  keyword on the call is one of that event's declared fields (events
  may be emitted from many sites — unlike metrics there is no
  single-site requirement, since emission is not registration);
* a dynamic event name is only allowed in a function that resolves the
  declaration via :func:`repro.obs.names.event_spec`;
* every literal series name passed to ``series_spec(...)`` is declared
  in :data:`repro.obs.names.SERIES`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from ..linter import LintContext, Rule, SourceModule, call_name, const_str

_CREATORS = {"counter": "counter", "gauge": "gauge", "histogram": "histogram"}

#: Required / forbidden suffixes per kind.
_COUNTER_SUFFIX = "_total"
_HISTOGRAM_SUFFIXES = ("_seconds", "_rows")


def _suffix_problem(name: str, kind: str) -> Optional[str]:
    if kind == "counter" and not name.endswith(_COUNTER_SUFFIX):
        return f"counter {name!r} must end in {_COUNTER_SUFFIX!r}"
    if kind == "histogram" and not name.endswith(_HISTOGRAM_SUFFIXES):
        return (
            f"histogram {name!r} must end in one of {_HISTOGRAM_SUFFIXES!r}"
        )
    if kind == "gauge" and name.endswith((_COUNTER_SUFFIX, *_HISTOGRAM_SUFFIXES)):
        return f"gauge {name!r} must not use a counter/histogram suffix"
    return None


class MetricNameRule(Rule):
    """See module docstring."""

    id = "OBS01"
    title = "metric, event, and series names are declared centrally"

    def __init__(
        self,
        registry: Optional[Dict[str, object]] = None,
        exempt_dirs: Tuple[str, ...] = ("obs/",),
        events_registry: Optional[Dict[str, object]] = None,
        series_registry: Optional[Dict[str, object]] = None,
    ) -> None:
        if registry is None:
            from ...obs.names import METRICS

            registry = dict(METRICS)
        if events_registry is None:
            from ...obs.names import EVENTS

            events_registry = dict(EVENTS)
        if series_registry is None:
            from ...obs.names import SERIES

            series_registry = dict(SERIES)
        self.registry = registry
        self.events_registry = events_registry
        self.series_registry = series_registry
        self.exempt_dirs = exempt_dirs

    def _exempt(self, module: SourceModule) -> bool:
        posix = module.path.as_posix()
        return any(f"/{d}" in posix or posix.startswith(d) for d in self.exempt_dirs)

    # ------------------------------------------------------------------
    def _literal_labels(self, node: ast.Call) -> Optional[Tuple[str, ...]]:
        for kw in node.keywords:
            if kw.arg != "labels":
                continue
            if isinstance(kw.value, (ast.Tuple, ast.List)):
                labels: List[str] = []
                for element in kw.value.elts:
                    value = const_str(element)
                    if value is None:
                        return None
                    labels.append(value)
                return tuple(labels)
            return None
        return ()

    def _uses_helper(self, scope: Optional[ast.AST], helper: str) -> bool:
        if scope is None:
            return False
        return any(
            isinstance(node, ast.Call) and call_name(node) == helper
            for node in ast.walk(scope)
        )

    def check(self, ctx: LintContext) -> None:
        creations: Dict[str, List[Tuple[SourceModule, int]]] = {}
        for module in ctx.modules:
            if module.tree is None or self._exempt(module):
                continue
            self._scan_module(ctx, module, creations)
        for name, sites in sorted(creations.items()):
            if len(sites) <= 1:
                continue
            first = sites[0]
            for module, line in sites[1:]:
                ctx.report(
                    self.id, module, line,
                    f"metric {name!r} is created at {len(sites)} call sites "
                    f"(first at {first[0].display}:{first[1]}); share one "
                    "creation helper",
                )

    def _scan_module(
        self,
        ctx: LintContext,
        module: SourceModule,
        creations: Dict[str, List[Tuple[SourceModule, int]]],
    ) -> None:
        assert module.tree is not None
        scopes: List[ast.AST] = []

        def visit(node: ast.AST) -> None:
            is_scope = isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            if is_scope:
                scopes.append(node)
            if isinstance(node, ast.Call):
                self._check_call(
                    ctx, module, node, scopes[-1] if scopes else None, creations
                )
            for child in ast.iter_child_nodes(node):
                visit(child)
            if is_scope:
                scopes.pop()

        visit(module.tree)

    def _check_call(
        self,
        ctx: LintContext,
        module: SourceModule,
        node: ast.Call,
        scope: Optional[ast.AST],
        creations: Dict[str, List[Tuple[SourceModule, int]]],
    ) -> None:
        name_of_call = call_name(node)
        if isinstance(node.func, ast.Attribute) and name_of_call == "emit":
            self._check_emit(ctx, module, node, scope)
            return
        if name_of_call == "series_spec":
            self._check_series_ref(ctx, module, node)
            return
        kind: Optional[str] = None
        if isinstance(node.func, ast.Attribute) and name_of_call in _CREATORS:
            kind = _CREATORS[name_of_call]
        elif name_of_call == "_txn_counter":
            kind = "counter"
        if kind is None or not node.args:
            return
        metric_name = const_str(node.args[0])
        if metric_name is None:
            # time.perf_counter() and friends take no string argument and
            # never reach here; a genuinely dynamic name must resolve its
            # declaration through repro.obs.names.spec in the same scope.
            if isinstance(node.args[0], ast.Constant):
                return  # non-string constant: not a metric creation
            if not self._uses_helper(scope, "spec"):
                ctx.report(
                    self.id, module, node.lineno,
                    f"dynamic metric name passed to {name_of_call}(); resolve "
                    "the declaration via repro.obs.names.spec() or use a "
                    "literal",
                )
            return
        creations.setdefault(metric_name, []).append((module, node.lineno))
        declared = self.registry.get(metric_name)
        if declared is None:
            ctx.report(
                self.id, module, node.lineno,
                f"metric {metric_name!r} is not declared in repro.obs.names",
            )
        else:
            declared_kind = getattr(declared, "kind", None)
            if declared_kind is not None and declared_kind != kind:
                ctx.report(
                    self.id, module, node.lineno,
                    f"metric {metric_name!r} is declared as a "
                    f"{declared_kind}, created as a {kind}",
                )
            declared_labels = getattr(declared, "labels", None)
            actual_labels = self._literal_labels(node)
            if (
                declared_labels is not None
                and actual_labels is not None
                and name_of_call != "_txn_counter"
                and tuple(actual_labels) != tuple(declared_labels)
            ):
                ctx.report(
                    self.id, module, node.lineno,
                    f"metric {metric_name!r} created with labels "
                    f"{tuple(actual_labels)!r} but declared with "
                    f"{tuple(declared_labels)!r}",
                )
        problem = _suffix_problem(metric_name, kind)
        if problem is not None:
            ctx.report(self.id, module, node.lineno, problem)

    # ------------------------------------------------------------------
    # Events and series (the PR 6 extension)
    # ------------------------------------------------------------------
    def _check_emit(
        self,
        ctx: LintContext,
        module: SourceModule,
        node: ast.Call,
        scope: Optional[ast.AST],
    ) -> None:
        """An ``<obj>.emit("event", field=...)`` call: the event name
        must be declared (or resolved via ``event_spec`` when dynamic)
        and every literal keyword must be a declared field."""
        if not node.args:
            return
        event_name = const_str(node.args[0])
        if event_name is None:
            if isinstance(node.args[0], ast.Constant):
                return  # non-string constant: not an event emission
            if not self._uses_helper(scope, "event_spec"):
                ctx.report(
                    self.id, module, node.lineno,
                    "dynamic event name passed to emit(); resolve the "
                    "declaration via repro.obs.names.event_spec() or use "
                    "a literal",
                )
            return
        declared = self.events_registry.get(event_name)
        if declared is None:
            ctx.report(
                self.id, module, node.lineno,
                f"event {event_name!r} is not declared in repro.obs.names",
            )
            return
        declared_fields = set(getattr(declared, "fields", ()) or ())
        for kw in node.keywords:
            if kw.arg is None:  # **fields: checked at runtime by EventLog
                continue
            if kw.arg not in declared_fields:
                ctx.report(
                    self.id, module, node.lineno,
                    f"event {event_name!r} emitted with undeclared field "
                    f"{kw.arg!r}; declared: {sorted(declared_fields)}",
                )

    def _check_series_ref(
        self,
        ctx: LintContext,
        module: SourceModule,
        node: ast.Call,
    ) -> None:
        """A literal name passed to ``series_spec(...)`` must be
        declared; dynamic names are the resolver's own job."""
        if not node.args:
            return
        series_name = const_str(node.args[0])
        if series_name is None:
            return
        if series_name not in self.series_registry:
            ctx.report(
                self.id, module, node.lineno,
                f"series {series_name!r} is not declared in repro.obs.names",
            )
