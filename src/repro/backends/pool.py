"""Reader connection pool for on-disk sqlite catalogs.

One :class:`~repro.backends.sqlite.SqliteHybridStore` owns exactly one
*writer* connection — the S32 single-writer protocol serializes every
transaction behind the store's write lock.  Reads, however, do not need
that connection: a WAL database gives each additional connection a
consistent snapshot that is never blocked by (and never blocks) the
writer.  :class:`ReaderConnectionPool` hands reader threads their own
connections on checkout, so queries and fetches keep answering while a
writer holds the write lock instead of queueing behind its transaction
— E12's readers beside a churning writer: 1 → 4 reader threads go
~820 → ~1,100 QPS at a ~0.6–0.7 ms p50.

Sizing: connections are created on demand up to ``capacity`` (default
:data:`DEFAULT_CAPACITY`) and kept idle for reuse — a reader beyond the
cap waits for a checkout to return rather than opening an unbounded
number of file handles.  Waiting readers are served in arrival order:
a returned connection is handed straight to the oldest waiter and goes
back to the idle list only when nobody waits, so a thread that releases
and re-acquires in a loop cannot overtake one that is already queued.
The pool gauge ``sqlite_pool_connections`` tracks how many pooled
connections exist.

Fault injection: ``pool:acquire`` is a registered fault site, but the
pool consults the store's armed :class:`~repro.faults.FaultPlan` only
when the plan *targets that site* — a plain ``fail_at=N`` statement
sweep must see exactly the write statements it saw before pooling
existed, or the deterministic crash-point sweeps would drift under
concurrent readers.

``:memory:`` catalogs have no pool: sqlite in-memory databases are
per-connection, so readers share the writer connection under the
store's read lock instead (see ``SqliteHybridStore._reader``).
"""

from __future__ import annotations

import sqlite3
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Iterator, List, Optional

from ..errors import CatalogClosedError

__all__ = ["ReaderConnectionPool", "DEFAULT_CAPACITY"]

#: Default pool cap.  Reads are CPU-bound inside sqlite's C code (which
#: releases the GIL), so a small multiple of typical core counts covers
#: the useful parallelism without hoarding file handles.
DEFAULT_CAPACITY = 8


class _Waiter:
    """One queued checkout: its own wake-up and what it was handed — a
    connection, or ``None`` for a reserved slot to connect in."""

    __slots__ = ("cond", "served", "conn")

    def __init__(self, lock) -> None:
        self.cond = threading.Condition(lock)
        self.served = False
        self.conn: object = None


class ReaderConnectionPool:
    """A bounded checkout pool of read-only-by-convention connections
    to one WAL database file.

    ``connect`` is the zero-arg factory producing a new connection
    (the store passes one that applies its tracking wrapper and
    pragmas); ``on_acquire`` is called at every checkout *before* a
    connection is handed out — the store uses it for the
    ``pool:acquire`` fault hook and the pool gauge; ``on_wait``
    receives the queued seconds for every checkout that actually
    blocked at capacity (at-capacity checkouts only, so the hot path
    never touches a clock) — the store feeds it into the
    ``pool_acquire_wait_seconds`` histogram and the active query
    profile.
    """

    def __init__(
        self,
        connect: Callable[[], object],
        capacity: int = DEFAULT_CAPACITY,
        on_acquire: Optional[Callable[[], None]] = None,
        on_wait: Optional[Callable[[float], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("pool capacity must be >= 1")
        self.capacity = capacity
        self._connect = connect
        self._on_acquire = on_acquire
        self._on_wait = on_wait
        self._lock = threading.Lock()
        self._idle: List[object] = []
        self._open = 0  # connections in existence (idle + checked out)
        #: Threads queued at capacity, oldest first.
        self._waiting: Deque[_Waiter] = deque()
        self._closed = False
        #: Lifetime checkout count (observable in tests/benchmarks).
        self.acquires = 0

    # ------------------------------------------------------------------
    def open_connections(self) -> int:
        with self._lock:
            return self._open

    def queue_depth(self) -> int:
        """Reader threads currently queued waiting for a connection."""
        with self._lock:
            return len(self._waiting)

    def _acquire(self):
        if self._on_acquire is not None:
            # Outside the pool lock: an injected fault must not leave
            # the pool lock held, and the hook may touch the metrics
            # registry (its own locks).
            self._on_acquire()
        waited: Optional[float] = None
        with self._lock:
            if self._closed:
                raise CatalogClosedError("reader pool is closed")
            if self._idle:
                self.acquires += 1
                return self._idle.pop()
            if self._open < self.capacity:
                self._open += 1
                conn = None
            else:
                conn, waited = self._wait_turn()
        if waited is not None and self._on_wait is not None:
            # Outside the pool lock, same reasoning as on_acquire.
            self._on_wait(waited)
        if conn is not None:
            return conn
        # Connect outside the lock (file open + pragmas are not free);
        # pass the reservation on if the factory fails.
        try:
            conn = self._connect()
        except BaseException:
            with self._lock:
                self._give(None)
            raise
        with self._lock:
            self.acquires += 1
        return conn

    def _wait_turn(self):
        """Queue behind every earlier waiter until a releasing thread
        hands this one a connection (or a reservation); returns it with
        the seconds waited.  Called with the pool lock held."""
        waiter = _Waiter(self._lock)
        self._waiting.append(waiter)
        t0 = time.perf_counter()
        try:
            while not waiter.served:
                if self._closed:
                    raise CatalogClosedError("reader pool is closed")
                waiter.cond.wait()
        except BaseException:
            if waiter.served:
                self._give(waiter.conn)
            else:
                self._waiting.remove(waiter)
            raise
        if waiter.conn is not None:
            self.acquires += 1
        return waiter.conn, time.perf_counter() - t0

    def _give(self, conn) -> None:
        """Hand ``conn`` (``None``: a reservation to connect in) to the
        oldest waiter, else return it to the pool.  Pool lock held."""
        if self._waiting:
            waiter = self._waiting.popleft()
            waiter.served = True
            waiter.conn = conn
            waiter.cond.notify()
        elif conn is None:
            self._open -= 1
        else:
            self._idle.append(conn)

    def _release(self, conn) -> None:
        with self._lock:
            if not self._closed:
                self._give(conn)
                return
            self._open -= 1
        # Pool closed while this connection was checked out: it is the
        # straggler's job to close it.
        conn.close()

    @contextmanager
    def connection(self) -> Iterator[object]:
        """Check a connection out for the duration of the block."""
        conn = self._acquire()
        try:
            yield conn
        except BaseException:
            # A failed read may leave cursor state behind; rolling back
            # is harmless on a clean connection and restores a dirty one.
            try:
                conn.rollback()
            except sqlite3.Error:  # pragma: no cover - defensive
                pass
            raise
        finally:
            self._release(conn)

    def close(self) -> None:
        """Close every idle connection and refuse new checkouts;
        idempotent.  Checked-out connections are closed as their
        readers return them."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._open -= len(idle)
            for waiter in self._waiting:
                waiter.cond.notify()
        for conn in idle:
            conn.close()
