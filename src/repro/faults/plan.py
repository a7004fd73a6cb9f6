"""Deterministic fault injection for the catalog write paths.

Crash safety is only believable when it is *tested*, and testing it
needs a way to fail any individual write deterministically.  A
:class:`FaultPlan` is armed on a store
(:meth:`repro.core.storage.HybridStore.install_faults`) and consulted
before every statement a write transaction issues — an ``executemany``
on the sqlite backend, a row insert or a per-table ``delete_rowids``
on the in-memory store.  The plan can

* fail the Nth statement of the plan's lifetime (``fail_at=N``,
  1-based) — sweeping N over a workload exercises every intermediate
  crash point;
* fail at a named site (``site="insert:clobs"``), from the Kth
  occurrence of that site onward (``site_occurrence=K``) — a site plan
  keeps failing until cleared or healed, which retry-exhaustion tests
  need;
* raise an arbitrary exception (``exc=...``, an instance or a zero-arg
  factory); the default is :class:`FaultError`, and
  :class:`TransientFault` models sqlite's ``database is locked``;
* disarm itself after the first trigger (``heal=True``), so a retried
  operation succeeds — the one-shot failure retry tests need.

Statement *sites* are ``verb:table`` strings (``insert:objects``,
``delete:attr_ancestors``) and are identical across backends so one
plan drives both.  A plan with no trigger condition is a pure counter:
run a workload once against it and read :attr:`statements_seen` to
learn how many injection points the workload has.

Every trigger increments ``fault_injected_total{site=}`` in the store's
metrics registry.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, List, Optional, Tuple, Union

from ..errors import ReproError
from ..obs.metrics import MetricsRegistry

__all__ = ["FaultError", "TransientFault", "FaultPlan"]


class FaultError(ReproError):
    """The default injected failure (a hard, non-transient fault)."""


class TransientFault(sqlite3.OperationalError):
    """An injected transient failure, indistinguishable from sqlite's
    ``database is locked`` so it exercises the real retry path."""

    def __init__(self, message: str = "database is locked (injected)") -> None:
        super().__init__(message)


class FaultPlan:
    """A deterministic schedule of injected write failures."""

    def __init__(
        self,
        fail_at: Optional[int] = None,
        site: Optional[str] = None,
        site_occurrence: int = 1,
        exc: Union[None, BaseException, Callable[[], BaseException]] = None,
        heal: bool = False,
    ) -> None:
        if fail_at is not None and fail_at < 1:
            raise ValueError("fail_at is 1-based")
        if site_occurrence < 1:
            raise ValueError("site_occurrence is 1-based")
        self.fail_at = fail_at
        self.site = site
        self.site_occurrence = site_occurrence
        self.exc = exc
        self.heal = heal
        self.armed = fail_at is not None or site is not None
        #: Statements observed over the plan's lifetime (counting
        #: continues after the plan disarms, so a healed retry's
        #: statements are still visible to assertions).
        self.statements_seen = 0
        self._site_seen = 0
        #: ``(statement_index, site)`` for every injected failure.
        self.triggered: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    def _matches(self, site: str) -> bool:
        if self.site is not None:
            if site != self.site:
                return False
            if self._site_seen < self.site_occurrence:
                return False
            # With both a site and fail_at, fail_at is the Nth global
            # statement *and* the site must match.
            if self.fail_at is not None and self.statements_seen != self.fail_at:
                return False
            return True
        return self.fail_at is not None and self.statements_seen == self.fail_at

    def _raise(self, site: str) -> BaseException:
        exc = self.exc
        if callable(exc):
            exc = exc()
        if exc is None:
            exc = FaultError(
                f"injected fault at statement {self.statements_seen} ({site})"
            )
        return exc

    def before(self, site: str, registry: Optional[MetricsRegistry] = None) -> None:
        """Called by the store before each write statement; raises when
        the plan says this statement fails."""
        self.statements_seen += 1
        if site == self.site:
            self._site_seen += 1
        if not self.armed or not self._matches(site):
            return
        self.triggered.append((self.statements_seen, site))
        if self.heal:
            self.armed = False
        if registry is not None:
            registry.counter(
                "fault_injected_total", "write faults injected by a FaultPlan",
                labels=("site",),
            ).labels(site=site).inc()
        raise self._raise(site)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = (
            f"site={self.site!r}#{self.site_occurrence}"
            if self.site is not None
            else f"fail_at={self.fail_at}"
        )
        return (
            f"FaultPlan({target}, heal={self.heal}, armed={self.armed}, "
            f"seen={self.statements_seen})"
        )
