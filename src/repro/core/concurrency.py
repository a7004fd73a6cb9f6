"""Reader-writer locking for the concurrent read path.

The paper's catalog is a *service*: myLEAD answers attribute queries
for many users behind a grid service, so the stores must stay correct
when reader threads interleave with a writer.  Both backends share one
concurrency contract, built on :class:`RWLock`:

* **writes** (every ``run_transaction`` / ``transaction`` body, begin
  through commit) hold the write lock — transactions stay strictly
  serialized, preserving the S32 single-writer atomicity protocol;
* **reads** hold the read lock — any number of readers run in
  parallel, and never observe a half-applied mutation.

The sqlite backend only routes reads through the lock when they share
the writer's connection (``:memory:`` catalogs); on-disk WAL catalogs
give each reading thread its own pooled connection and rely on WAL
snapshot isolation instead, so reads proceed *during* a write
transaction (see :mod:`repro.backends.pool`).

The lock is write-preferring (a waiting writer blocks new readers, so
a steady read load cannot starve ingest), and a writer's release admits
the readers queued at that moment before the next writer (so a looping
writer cannot starve reads either).  It is reentrant for both modes:
a thread inside its own write transaction may take either lock again
without deadlocking, which is what lets a transaction body call the
store's read surface (``has_object`` inside ``delete_object``).
Lock *upgrading* (read → write) is not supported and deadlocks by
design — acquire the write lock first when a mutation may follow.

An optional ``observer`` callable receives ``(mode, seconds)`` —
``mode`` is ``"read"`` or ``"write"`` — for every acquisition that
actually blocked.  Uncontended acquisitions never touch a clock, so
instrumentation is free on the fast path; the store wires the observer
into the ``rwlock_{reader,writer}_wait_seconds`` histograms and the
active query profile.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = ["RWLock"]


class RWLock:
    """A write-preferring, reentrant reader-writer lock."""

    def __init__(
        self,
        observer: Optional[Callable[[str, float], None]] = None,
    ) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: Optional[int] = None  # owning thread id
        self._writer_depth = 0
        self._waiting_writers = 0
        # Readers queue; each write release bumps ``_releases`` and
        # admits the ``_admitted`` readers queued at that moment, which
        # enter before any writer does.
        self._waiting_readers = 0
        self._releases = 0
        self._admitted = 0
        self._local = threading.local()  # per-thread read depth
        self.observer = observer

    # ------------------------------------------------------------------
    def _read_depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def write_held_by_me(self) -> bool:
        """True when the calling thread holds the write lock."""
        return self._writer == threading.get_ident()

    # ------------------------------------------------------------------
    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Shared acquisition; reentrant, and a no-op inside the
        calling thread's own write section."""
        if self.write_held_by_me():
            yield
            return
        if self._read_depth() > 0:
            # Nested read on the same thread: already counted.  Do not
            # touch the condition — a writer queued in between would
            # deadlock a fresh acquisition against our own outer read.
            self._local.depth += 1
            try:
                yield
            finally:
                self._local.depth -= 1
            return
        waited: Optional[float] = None
        with self._cond:
            if self._writer is not None or self._waiting_writers > 0:
                # Contended: time the wait (the clock is only touched
                # on this slow path).
                t0 = time.perf_counter()
                queued_at = self._releases
                self._waiting_readers += 1
                try:
                    while self._writer is not None or (
                        self._waiting_writers > 0 and queued_at == self._releases
                    ):
                        self._cond.wait()
                finally:
                    self._waiting_readers -= 1
                    if queued_at != self._releases:
                        self._admitted -= 1
                waited = time.perf_counter() - t0
            self._readers += 1
        if waited is not None and self.observer is not None:
            # Outside the condition lock: the observer may take other
            # locks (histogram, profile) and must not extend ours.
            self.observer("read", waited)
        self._local.depth = 1
        try:
            yield
        finally:
            self._local.depth = 0
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Exclusive acquisition; reentrant on the owning thread."""
        me = threading.get_ident()
        if self._writer == me:
            self._writer_depth += 1
            try:
                yield
            finally:
                self._writer_depth -= 1
            return
        if self._read_depth() > 0:
            raise RuntimeError(
                "read->write lock upgrade would deadlock; acquire the "
                "write lock before reading"
            )
        waited: Optional[float] = None
        with self._cond:
            self._waiting_writers += 1
            try:
                if self._writer is not None or self._readers or self._admitted:
                    t0 = time.perf_counter()
                    while self._writer is not None or self._readers or self._admitted:
                        self._cond.wait()
                    waited = time.perf_counter() - t0
            finally:
                self._waiting_writers -= 1
            self._writer = me
            self._writer_depth = 1
        if waited is not None and self.observer is not None:
            self.observer("write", waited)
        try:
            yield
        finally:
            with self._cond:
                self._writer = None
                self._writer_depth = 0
                if self._waiting_readers:
                    self._releases += 1
                    self._admitted = self._waiting_readers
                self._cond.notify_all()
