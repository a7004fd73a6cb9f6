"""Per-stage query execution profiles (the catalog's ``EXPLAIN ANALYZE``).

A :class:`QueryProfile` rides one plan execution: the backend times
each IR stage as it runs, and when the plan finishes
:meth:`QueryProfile.record_plan` (called by the shared
``HybridStore.match_objects``) derives the per-stage row flow —
rows-in and rows-out — from the plan's ``actuals`` map.  Because every store runs the one plan
interpreter that fills ``actuals``, the row columns of a profile are computed
by one shared function here rather than once per backend, so profile
parity is structural: only the timings are backend-specific.

Profiles travel on a context variable, so no ``match_objects``
signature changes and the deep contention hooks — RWLock waits,
reader-pool queue waits — can attribute their blocked time to
whichever query is running::

    profile = QueryProfile()
    with collecting(profile):
        catalog.query(query, trace=PlanTrace())
    print(profile.describe())

The disabled cost is one ``ContextVar.get`` per instrumentation point:
every hook checks ``current_profile() is None`` before touching a
clock (measured by bench E13 — the ≤1 % budget of the acceptance
criteria).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, List, Optional, Tuple

__all__ = [
    "StageProfile",
    "QueryProfile",
    "activate",
    "collecting",
    "current_profile",
    "deactivate",
]

_current: ContextVar[Optional["QueryProfile"]] = ContextVar(
    "repro_obs_profile", default=None
)

#: The wait-breakdown buckets a profile tracks.
WAIT_KINDS = ("lock", "pool")
_NO_WAITS = dict.fromkeys(WAIT_KINDS, 0.0)


class StageProfile:
    """One executed IR stage: row flow plus wall time."""

    __slots__ = ("kind", "key", "detail", "rows_in", "rows_out", "seconds")

    def __init__(
        self,
        kind: str,
        key: Tuple,
        detail: str,
        rows_in: int,
        rows_out: int,
        seconds: float,
    ) -> None:
        self.kind = kind
        self.key = key
        self.detail = detail
        self.rows_in = rows_in
        self.rows_out = rows_out
        self.seconds = seconds

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "key": list(self.key),
            "detail": self.detail,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "seconds": self.seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StageProfile({self.kind}, {self.key}, "
            f"rows={self.rows_in}->{self.rows_out})"
        )


class QueryProfile:
    """Everything one plan run did: per-stage rows and timings, the
    cache/lock/pool wait breakdown, and total wall time.

    The interpreter sets ``marks`` to one clock reading at the start of
    the run and appends one as each stage ends, in execution order;
    ``HybridStore.match_objects`` calls :meth:`record_plan` once at the
    end; the contention hooks call :meth:`add_wait` from wherever the
    query blocked.  A result-cache hit leaves the stage list empty with
    ``result_cache_hit`` set — no plan ran.
    """

    __slots__ = ("backend", "marks", "waits", "total_seconds",
                 "result_cache_hit", "_t0", "_plan", "_actuals", "_stages")

    def __init__(self) -> None:
        self.backend: Optional[str] = None
        self.marks: List[float] = []
        self.waits: Dict[str, float] = _NO_WAITS.copy()
        self.total_seconds: Optional[float] = None
        self.result_cache_hit = False
        self._t0 = time.perf_counter()
        # Everything else is derived on first read from the snapshot
        # ``record_plan`` takes: the query hot path pays for the clock
        # readings and a few assignments only (bench E13's budget).
        self._plan = None
        self._actuals: Dict[Tuple, int] = {}
        self._stages: Optional[List[StageProfile]] = None

    # ------------------------------------------------------------------
    # Collection API (called by the backends and contention hooks)
    # ------------------------------------------------------------------
    def add_wait(self, kind: str, seconds: float) -> None:
        """Attribute blocked time to this query (``lock`` or ``pool``)."""
        self.waits[kind] = self.waits.get(kind, 0.0) + seconds

    def finish(self) -> None:
        """Stamp the total wall time (idempotent — keeps the first)."""
        if self.total_seconds is None:
            self.total_seconds = time.perf_counter() - self._t0

    def record_plan(self, plan, backend: Optional[str]) -> None:
        """Snapshot an executed plan so the stage rows can be derived.

        The row flow is a pure function of the plan, so both backends
        produce identical stage names, order, and row counts by
        construction; the stage timings are the only backend-specific
        column.  ``plan.actuals`` is copied because a re-executed plan
        overwrites it.
        """
        self.backend = backend
        self._plan = plan
        self._actuals = dict(plan.actuals)
        self._stages = None

    @property
    def simple(self) -> Optional[bool]:
        """Whether the run was the §4 simplified plan (``None`` before
        a plan is recorded)."""
        return self._plan.simple if self._plan is not None else None

    @property
    def stage_seconds(self) -> Dict[Tuple, float]:
        """Stage key → wall time, for each stage that ran: the gaps
        between consecutive ``marks``."""
        if self._plan is None:
            return {}
        marks = self.marks
        return {
            stage.key(): end - start
            for stage, start, end in zip(self._plan.stages(), marks, marks[1:])
        }

    @property
    def stages(self) -> List[StageProfile]:
        """The derived per-stage rows (built lazily from the snapshot)."""
        if self._stages is None:
            self._stages = (
                self._build_stages() if self._plan is not None else []
            )
        return self._stages

    @property
    def short_circuited(self) -> bool:
        """A seek matched nothing, so the remaining stages ran over
        empty inputs (their rows stay 0)."""
        return self._plan is not None and any(
            self._actuals.get(seek.key(), 0) == 0 for seek in self._plan.seeks
        )

    def _build_stages(self) -> List[StageProfile]:
        plan = self._plan
        actuals = self._actuals
        seconds = self.stage_seconds
        stages: List[StageProfile] = []

        for seek in plan.seeks:
            key = seek.key()
            stages.append(StageProfile(
                seek.kind, key,
                f"qelem {seek.qelem_id} (elem_def {seek.elem_def_id} "
                f"{seek.op.value})",
                0, actuals.get(key, 0), seconds.get(key, 0.0),
            ))

        # Rows flowing into each count stage: that criterion's seek
        # outputs.  ``current`` then tracks each criterion's surviving
        # instance count as containment edges whittle it down.
        seek_rows_by_qattr: Dict[int, int] = {}
        for seek in plan.seeks:
            seek_rows_by_qattr[seek.qattr_id] = (
                seek_rows_by_qattr.get(seek.qattr_id, 0)
                + actuals.get(seek.key(), 0)
            )
        current: Dict[int, int] = {}
        for count in plan.counts:
            key = count.key()
            rows_out = actuals.get(key, 0)
            current[count.qattr_id] = rows_out
            need = ("exists" if count.required == 0
                    else f"need {count.required} distinct")
            stages.append(StageProfile(
                count.kind, key,
                f"qattr {count.qattr_id} (def {count.attr_def_id}, {need})",
                seek_rows_by_qattr.get(count.qattr_id, 0), rows_out,
                seconds.get(key, 0.0),
            ))

        for edge in plan.containments:
            key = edge.key()
            rows_in = (current.get(edge.parent_qattr_id, 0)
                       + current.get(edge.child_qattr_id, 0))
            rows_out = actuals.get(key, 0)
            current[edge.parent_qattr_id] = rows_out
            stages.append(StageProfile(
                edge.kind, key,
                f"qattr {edge.parent_qattr_id} contains "
                f"qattr {edge.child_qattr_id}",
                rows_in, rows_out, seconds.get(key, 0.0),
            ))

        key = plan.intersect.key()
        tops = plan.intersect.top_qattr_ids
        stages.append(StageProfile(
            plan.intersect.kind, key,
            f"tops {list(tops)}",
            sum(current.get(t, 0) for t in tops),
            actuals.get(key, 0), seconds.get(key, 0.0),
        ))
        return stages

    # ------------------------------------------------------------------
    # Export / rendering
    # ------------------------------------------------------------------
    def stage_names(self) -> List[str]:
        """``kind`` per stage, execution order (the parity property)."""
        return [stage.kind for stage in self.stages]

    def rows_out(self) -> List[int]:
        return [stage.rows_out for stage in self.stages]

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "total_seconds": self.total_seconds,
            "waits": dict(self.waits),
            "result_cache_hit": self.result_cache_hit,
            "short_circuited": self.short_circuited,
            "simple": self.simple,
            "stages": [stage.as_dict() for stage in self.stages],
        }

    def describe(self) -> str:
        """The ``EXPLAIN ANALYZE`` table: one row per executed stage
        with its rows in and out and its wall time."""
        header = f"profile ({self.backend or 'unbound'}"
        if self.total_seconds is not None:
            header += f", total {self.total_seconds * 1e3:.3f} ms"
        header += ")"
        if self.result_cache_hit:
            return header + "\n  served from the result cache (no plan run)"
        lines = [header]
        width = max((len(s.kind) for s in self.stages), default=0)
        for stage in self.stages:
            lines.append(
                f"  {stage.kind:<{width}}  "
                f"in={stage.rows_in:>6}  out={stage.rows_out:>6}  "
                f"{stage.seconds * 1e3:8.3f} ms  {stage.detail}"
            )
        waits = "  ".join(
            f"{kind}={self.waits.get(kind, 0.0) * 1e3:.3f} ms"
            for kind in WAIT_KINDS
        )
        lines.append(f"  waits: {waits}")
        if self.short_circuited:
            lines.append("  short-circuited: a criterion matched nothing")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryProfile(backend={self.backend!r}, "
            f"stages={len(self.stages)})"
        )


def current_profile() -> Optional[QueryProfile]:
    """The profile collecting on this thread/context, if any — the one
    ``ContextVar.get`` that is the whole disabled-path cost."""
    return _current.get()


@contextmanager
def collecting(profile: QueryProfile):
    """Make ``profile`` the active collector for the block; stamps the
    total wall time on exit."""
    token = activate(profile)
    try:
        yield profile
    finally:
        deactivate(profile, token)


def activate(profile: QueryProfile):
    """Install ``profile`` as the active collector; returns the reset
    token.  The raw set/reset pair that :func:`collecting` wraps — the
    catalog's per-query hot path uses it directly to skip the
    generator-contextmanager overhead (bench E13's enabled budget)."""
    return _current.set(profile)


def deactivate(profile: QueryProfile, token) -> None:
    """Undo :func:`activate` and stamp the profile's total wall time."""
    _current.reset(token)
    profile.finish()
