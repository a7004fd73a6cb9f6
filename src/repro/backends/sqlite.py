"""Hybrid store on stdlib :mod:`sqlite3` (system S3).

The identical table layout as :class:`MemoryHybridStore`, on disk in
format v1 (``PRAGMA user_version = 1``).  ``attributes``, ``elements``
and ``attr_ancestors`` are ``WITHOUT ROWID`` tables clustered by a
primary key that leads with ``object_id`` — paper §5 keys every CLOB
and row by object — so every write-path read and every ``DELETE`` of
one object is a primary-key search over that object's rows alone.
Opening an unstamped v0 file (rowid tables, plus the unread
``node_ancestors``) migrates it in one transaction; a newer format is
refused.

Queries read through the same three keyed primitives the memory store
gives the one plan interpreter (:mod:`repro.core.planner`):

* ``_seek_instances`` — one statement per ElementSeek (per value for
  an IN_SET), a search of the ``elements_by_def (elem_id, value_num,
  value_text)`` index, which carries the primary key and so answers
  the seek without touching the table.  A numeric seek searches
  ``value_num``.  A text seek reads by value: EQ and the ranges search
  ``(elem_id, NULL, value_text)`` — the ``value_num IS NULL`` segment
  that holds every row of a text-typed definition — plus the
  ``value_num`` range holding typed values, empty for a text-typed
  definition (``_SEEK_SQL``); NE reads the NULL segment.  CONTAINS
  tests each distinct value once through a loose index scan;
* ``_instance_rows`` — an existence-only criterion's instances, by
  ``attributes_by_def``;
* ``_ancestor_rows`` — one criteria edge's inverted-list rows, by
  ``anc_by_pair``.

Every statement is constant text with ``?`` parameters, and a query
runs them all in one read transaction on one reader connection
(``_read_section``), so its stages read one snapshot.  The set logic —
counting, containment, intersection — is the interpreter's, so both
stores produce the same stage actuals by construction; the paper's
plan needs no recursive SQL over object data (the one recursive CTE,
in CONTAINS, walks a definition's distinct values) and no scratch
tables.

A plan reads no statistics: each seek statement runs once, when the
plan runs, so opening a catalog reads none either.

Responses take one parameterised read per requested object — its CLOB
rows, found by two primary-key seeks (``_CLOB_ROWS_SQL``) — and the
§5 tagging shared by every store
(:func:`~repro.core.response.tag_responses`), so a fetch reads only
the objects it returns.

Equivalence with the memory store is property-tested
(``tests/integration/test_backend_equivalence.py``) and measured in
bench E9.

Crash safety (S32): the connection runs in autocommit
(``isolation_level=None``) and every logical mutation is wrapped in an
explicit ``BEGIN IMMEDIATE`` … ``COMMIT`` — one commit per operation,
``ROLLBACK`` on any exception — via the shared
:class:`~repro.core.storage.HybridStore` transaction protocol.  The
tracked-connection proxy consults the store's installed
:class:`~repro.faults.FaultPlan` before each data statement issued
inside a transaction (site = ``verb:table``), which is how the fault
suite fails any individual write deterministically.  On-disk catalogs
get ``journal_mode=WAL`` + ``synchronous=NORMAL`` so a killed process
cannot corrupt the file; ``:memory:`` catalogs keep the fast pragmas.

Concurrency: transactions serialize behind the store's write lock (one
writer, ever — S32), while reads on on-disk catalogs check out
per-thread connections from a
:class:`~repro.backends.pool.ReaderConnectionPool` and run on WAL
snapshots in parallel with each other *and* with the writer.
``:memory:`` catalogs have no pool (an in-memory sqlite database is
private to its connection); their reads share the writer connection
under the store's read lock.  A pooled checkout — a query's read
section, a plan's row counts, a fetch — is one ``BEGIN`` … ``ROLLBACK``
read transaction: sqlite pins its snapshot at the first read, and a
commit after that does not move it.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.query import Op
from ..core.schema import AnnotatedSchema
from ..core.storage import HybridStore, schema_order_rows
from ..errors import CatalogError
from ..identifiers import quote_identifier
from ..obs import names as metric_names
from ..obs.metrics import MetricsRegistry
from ..obs.profile import current_profile
from .pool import ReaderConnectionPool

#: The on-disk format this module writes (``PRAGMA user_version``).
#: v0, unstamped, kept ``attributes``, ``elements`` and
#: ``attr_ancestors`` in rowid order and a ``node_ancestors`` table;
#: v1 clusters each object's rows under its primary key.
FORMAT_VERSION = 1
_STAMP_SQL = "PRAGMA user_version = 1"

#: The three object-row tables v1 clusters: each is its primary key
#: (``WITHOUT ROWID``), which leads with ``object_id``.
_CLUSTERED_DDL = (
    """CREATE TABLE attributes (
    object_id INTEGER NOT NULL,
    attr_id INTEGER NOT NULL,
    seq_id INTEGER NOT NULL,
    clob_order INTEGER NOT NULL,
    clob_seq INTEGER NOT NULL,
    PRIMARY KEY (object_id, attr_id, seq_id)
) WITHOUT ROWID""",
    """CREATE TABLE elements (
    object_id INTEGER NOT NULL,
    attr_id INTEGER NOT NULL,
    seq_id INTEGER NOT NULL,
    elem_id INTEGER NOT NULL,
    elem_seq INTEGER NOT NULL,
    value_text TEXT,
    value_num REAL,
    PRIMARY KEY (object_id, attr_id, seq_id, elem_id, elem_seq)
) WITHOUT ROWID""",
    """CREATE TABLE attr_ancestors (
    object_id INTEGER NOT NULL,
    desc_attr_id INTEGER NOT NULL,
    desc_seq INTEGER NOT NULL,
    anc_attr_id INTEGER NOT NULL,
    anc_seq INTEGER NOT NULL,
    distance INTEGER NOT NULL,
    PRIMARY KEY (object_id, desc_attr_id, desc_seq, anc_attr_id, anc_seq)
) WITHOUT ROWID""",
)

#: Their secondary indexes, the keyed reads of a query.  A secondary
#: index of a ``WITHOUT ROWID`` table carries the primary key, so
#: ``elements_by_def`` covers every ElementSeek.
_INDEX_DDL = (
    "CREATE INDEX attributes_by_def ON attributes (attr_id)",
    "CREATE INDEX elements_by_def ON elements (elem_id, value_num, value_text)",
    "CREATE INDEX anc_by_pair ON attr_ancestors (desc_attr_id, anc_attr_id)",
)

#: The v0 -> v1 migration, one transaction: move each clustered
#: table's rows into its v1 form, then drop ``node_ancestors``.
_MIGRATE_V0_SQL = (
    "ALTER TABLE attributes RENAME TO v0_attributes",
    _CLUSTERED_DDL[0],
    "INSERT INTO attributes SELECT * FROM v0_attributes",
    "DROP TABLE v0_attributes",
    _INDEX_DDL[0],
    "ALTER TABLE elements RENAME TO v0_elements",
    _CLUSTERED_DDL[1],
    "INSERT INTO elements SELECT * FROM v0_elements",
    "DROP TABLE v0_elements",
    _INDEX_DDL[1],
    "ALTER TABLE attr_ancestors RENAME TO v0_attr_ancestors",
    _CLUSTERED_DDL[2],
    "INSERT INTO attr_ancestors SELECT * FROM v0_attr_ancestors",
    "DROP TABLE v0_attr_ancestors",
    _INDEX_DDL[2],
    "DROP TABLE IF EXISTS node_ancestors",
    _STAMP_SQL,
)

_DDL = """
CREATE TABLE objects (
    object_id INTEGER PRIMARY KEY,
    name TEXT,
    owner TEXT
);
CREATE TABLE clobs (
    object_id INTEGER NOT NULL,
    schema_order INTEGER NOT NULL,
    clob_seq INTEGER NOT NULL,
    content TEXT NOT NULL,
    PRIMARY KEY (object_id, schema_order, clob_seq)
);
CREATE TABLE schema_order (
    node_order INTEGER PRIMARY KEY,
    tag TEXT NOT NULL,
    last_child_order INTEGER NOT NULL
);
CREATE TABLE attr_defs (
    attr_id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    source TEXT NOT NULL,
    parent_id INTEGER,
    schema_order INTEGER NOT NULL,
    scope TEXT NOT NULL,
    queryable INTEGER NOT NULL,
    structural INTEGER NOT NULL
);
CREATE TABLE elem_defs (
    elem_id INTEGER PRIMARY KEY,
    attr_id INTEGER NOT NULL,
    name TEXT NOT NULL,
    source TEXT NOT NULL,
    value_type TEXT NOT NULL,
    scope TEXT NOT NULL
)"""

#: The write statements, one literal each: nothing is interpolated,
#: and the leading verb names the fault site (:func:`_statement_site`).
#: Definition rows are additive, hence ``OR IGNORE``.
_INSERT_SQL = {
    "objects": "INSERT INTO objects VALUES (?, ?, ?)",
    "clobs": "INSERT INTO clobs VALUES (?, ?, ?, ?)",
    "attributes": "INSERT INTO attributes VALUES (?, ?, ?, ?, ?)",
    "elements": "INSERT INTO elements VALUES (?, ?, ?, ?, ?, ?, ?)",
    "attr_ancestors": "INSERT INTO attr_ancestors VALUES (?, ?, ?, ?, ?, ?)",
    "schema_order": "INSERT INTO schema_order VALUES (?, ?, ?)",
    "attr_defs": "INSERT OR IGNORE INTO attr_defs VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
    "elem_defs": "INSERT OR IGNORE INTO elem_defs VALUES (?, ?, ?, ?, ?, ?)",
}

#: ``(table, *equality columns)`` -> the DELETE over one object's rows.
#: Each searches the table's primary key by object.
_DELETE_SQL = {
    ("objects",): "DELETE FROM objects WHERE object_id = ?",
    ("clobs",): "DELETE FROM clobs WHERE object_id = ?",
    ("attributes",): "DELETE FROM attributes WHERE object_id = ?",
    ("elements",): "DELETE FROM elements WHERE object_id = ?",
    ("attr_ancestors",): "DELETE FROM attr_ancestors WHERE object_id = ?",
    ("clobs", "schema_order", "clob_seq"):
        "DELETE FROM clobs WHERE object_id = ? AND schema_order = ? AND clob_seq = ?",
    ("attributes", "attr_id", "seq_id"):
        "DELETE FROM attributes WHERE object_id = ? AND attr_id = ? AND seq_id = ?",
    ("elements", "attr_id", "seq_id"):
        "DELETE FROM elements WHERE object_id = ? AND attr_id = ? AND seq_id = ?",
    ("attr_ancestors", "desc_attr_id", "desc_seq"):
        "DELETE FROM attr_ancestors WHERE object_id = ? AND desc_attr_id = ? "
        "AND desc_seq = ?",
    ("attr_ancestors", "anc_attr_id", "anc_seq"):
        "DELETE FROM attr_ancestors WHERE object_id = ? AND anc_attr_id = ? "
        "AND anc_seq = ?",
}

#: The one read a response needs: an object's CLOB rows.
_CLOB_ROWS_SQL = (
    "SELECT c.schema_order, c.clob_seq, c.content FROM objects o "
    "LEFT JOIN clobs c ON c.object_id = o.object_id WHERE o.object_id = ?"
)

#: The ElementSeek reads, one statement per ``(operator, text column?)``:
#: parameters ``(elem_id, attr_id or NULL, literal)``, rows
#: ``(object_id, seq_id)``, each a search of ``elements_by_def
#: (elem_id, value_num, value_text)``.  A numeric seek searches
#: ``(elem_id=? AND value_num…)``.  A text seek is two branches under
#: ``UNION ALL``, split on ``value_num``: the rows where it is NULL —
#: every row of a text-typed definition, and a NaN reading — are
#: searched by value, ``(elem_id=? AND value_num=? AND value_text…)``
#: (NE reads the segment, no range fits ``<>``); the rows where it is
#: set are searched as ``(elem_id=? AND value_num>?)``, a range that is
#: empty for a text-typed definition.  The two return exactly the rows
#: of ``elem_id = ? AND value_text <op> ?`` whatever the definition's
#: type, so the store never looks a type up.  An IN_SET runs the EQ
#: statement once per value, each one a probe.
#:
#: CONTAINS tests each distinct value once: the recursive CTE ``v``
#: walks the definition's distinct ``value_text`` in its ``value_num IS
#: NULL`` segment, each step one ``min(value_text) … > previous`` search
#: of ``elements_by_def`` (a loose index scan), and the values holding
#: the needle are probed with ``value_text IN (…)``; the ``UNION ALL``
#: branch tests each row of the ``value_num IS NOT NULL`` segment.  The
#: recursion enumerates values only, never object data: the Fig-4 plan
#: itself still needs no recursive SQL.  A loose-scan step costs about
#: as much as reading 16–24 rows, so on a definition whose values are
#: nearly all distinct (a title, an id) this reads slower than testing
#: every row would.
#:
#: The comparison statements are concatenations of the literal
#: fragments below, so each is still constant text.
_SEEK_FROM = (
    "SELECT object_id, seq_id FROM elements WHERE elem_id = ?1 "
    "AND (?2 IS NULL OR attr_id = ?2) AND "
)
_TEXT_NULL = _SEEK_FROM + "value_num IS NULL AND value_text "
_TEXT_TYPED = " UNION ALL " + _SEEK_FROM + "value_num IS NOT NULL AND value_text "
_SEEK_SQL = {
    (Op.EQ, False): _SEEK_FROM + "value_num = ?3",
    (Op.NE, False): _SEEK_FROM + "value_num <> ?3",
    (Op.LT, False): _SEEK_FROM + "value_num < ?3",
    (Op.LE, False): _SEEK_FROM + "value_num <= ?3",
    (Op.GT, False): _SEEK_FROM + "value_num > ?3",
    (Op.GE, False): _SEEK_FROM + "value_num >= ?3",
    (Op.EQ, True): _TEXT_NULL + "= ?3" + _TEXT_TYPED + "= ?3",
    (Op.NE, True): _TEXT_NULL + "<> ?3" + _TEXT_TYPED + "<> ?3",
    (Op.LT, True): _TEXT_NULL + "< ?3" + _TEXT_TYPED + "< ?3",
    (Op.LE, True): _TEXT_NULL + "<= ?3" + _TEXT_TYPED + "<= ?3",
    (Op.GT, True): _TEXT_NULL + "> ?3" + _TEXT_TYPED + "> ?3",
    (Op.GE, True): _TEXT_NULL + ">= ?3" + _TEXT_TYPED + ">= ?3",
    (Op.CONTAINS, True): (
        "WITH RECURSIVE v(t) AS ("
        "SELECT min(value_text) FROM elements WHERE elem_id = ?1 AND value_num IS NULL "
        "UNION ALL SELECT (SELECT min(value_text) FROM elements WHERE elem_id = ?1 "
        "AND value_num IS NULL AND value_text > v.t) FROM v WHERE v.t IS NOT NULL) "
        "SELECT object_id, seq_id FROM elements WHERE elem_id = ?1 "
        "AND (?2 IS NULL OR attr_id = ?2) AND value_num IS NULL "
        "AND value_text IN (SELECT t FROM v WHERE instr(t, ?3) > 0) "
        "UNION ALL SELECT object_id, seq_id FROM elements WHERE elem_id = ?1 "
        "AND (?2 IS NULL OR attr_id = ?2) AND value_num IS NOT NULL "
        "AND instr(value_text, ?3) > 0"
    ),
}

#: Every instance of one attribute definition (``attributes_by_def``).
_INSTANCE_ROWS_SQL = "SELECT object_id, seq_id FROM attributes WHERE attr_id = ?"

#: One definition pair's inverted-list rows below the self row
#: (``anc_by_pair``).
_ANCESTOR_ROWS_SQL = (
    "SELECT object_id, desc_seq, anc_seq FROM attr_ancestors "
    "WHERE desc_attr_id = ? AND anc_attr_id = ? AND distance >= 1"
)

#: Transaction-control verbs that bypass fault injection (they *are*
#: the crash-safety machinery, not a crash point).
_CONTROL_VERBS = frozenset(("BEGIN", "COMMIT", "ROLLBACK", "END"))


def _statement_site(sql: str) -> str:
    """``verb:table`` site name for a data statement, matching the
    memory store's naming so one FaultPlan drives both backends."""
    tokens = sql.split(None, 5)
    if not tokens:
        return "empty"
    verb = tokens[0].upper()
    try:
        if verb == "INSERT":
            # INSERT INTO t ... / INSERT OR IGNORE INTO t ...
            table = tokens[2] if tokens[1].upper() == "INTO" else tokens[4]
            return f"insert:{table}"
        if verb == "DELETE":
            return f"delete:{tokens[2]}"
        if verb == "UPDATE":
            return f"update:{tokens[1]}"
    except IndexError:  # pragma: no cover - malformed SQL
        pass
    return verb.lower()


class _StatementCounters:
    """Pre-resolved metric handles for one registry (resolving a metric
    by name on every statement would double the wrapper's cost)."""

    __slots__ = ("registry", "execute", "executemany", "script",
                 "rows", "txn_seconds")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        statements = registry.counter(
            "sqlite_statements_total",
            "SQL statements issued against the sqlite backend",
            labels=("kind",),
        )
        self.execute = statements.labels(kind="execute")
        self.executemany = statements.labels(kind="executemany")
        self.script = statements.labels(kind="script")
        self.rows = registry.counter(
            "sqlite_rows_fetched_total", "rows fetched from sqlite cursors"
        )
        self.txn_seconds = registry.histogram(
            "sqlite_txn_seconds", "sqlite transaction commit wall time"
        )


class _TrackedCursor:
    """Counts rows as they are fetched; otherwise a transparent proxy."""

    __slots__ = ("_cursor", "_counters")

    def __init__(self, cursor, counters: _StatementCounters) -> None:
        self._cursor = cursor
        self._counters = counters

    def fetchone(self):
        row = self._cursor.fetchone()
        if row is not None:
            self._counters.rows.inc()
        return row

    def fetchall(self):
        rows = self._cursor.fetchall()
        self._counters.rows.inc(len(rows))
        return rows

    def __iter__(self):
        for row in self._cursor:
            self._counters.rows.inc()
            yield row

    def __getattr__(self, name):
        return getattr(self._cursor, name)


class _TrackedConnection:
    """Counts statements and times commits; the metric handles follow
    the owning store's bound registry (the catalog may re-bind after
    the connection is created)."""

    __slots__ = ("_connection", "_store", "_counters")

    def __init__(self, connection: sqlite3.Connection, store: "SqliteHybridStore") -> None:
        self._connection = connection
        self._store = store
        self._counters: Optional[_StatementCounters] = None

    def _c(self) -> _StatementCounters:
        registry = self._store.metrics_registry()
        counters = self._counters
        if counters is None or counters.registry is not registry:
            counters = _StatementCounters(registry)
            self._counters = counters
        return counters

    def _maybe_fault(self, sql: str) -> None:
        store = self._store
        if store._fault_armed():
            site = _statement_site(sql)
            if site.split(":", 1)[0].upper() not in _CONTROL_VERBS:
                # Site names derived from executed SQL include read
                # verbs that are deliberately unregistered (a FaultPlan
                # targeting them simply never fires).
                store._fault(site)  # reprolint: ignore[FLT01]

    def execute(self, sql, params=()):
        counters = self._c()
        counters.execute.inc()
        self._maybe_fault(sql)
        return _TrackedCursor(self._connection.execute(sql, params), counters)

    def executemany(self, sql, rows):
        counters = self._c()
        counters.executemany.inc()
        self._maybe_fault(sql)
        return _TrackedCursor(self._connection.executemany(sql, rows), counters)

    def executescript(self, script):
        counters = self._c()
        counters.script.inc()
        return _TrackedCursor(self._connection.executescript(script), counters)

    def execute_control(self, sql) -> None:
        """Transaction-control statements: uncounted, never faulted."""
        self._connection.execute(sql)

    def commit(self) -> None:
        counters = self._c()
        start = time.perf_counter()
        self._connection.commit()
        counters.txn_seconds.observe(time.perf_counter() - start)

    def close(self) -> None:
        self._connection.close()

    def __getattr__(self, name):
        return getattr(self._connection, name)


class SqliteHybridStore(HybridStore):
    """The hybrid layout and plans on a real RDBMS (sqlite)."""

    backend = "sqlite"

    def __init__(
        self,
        path: str = ":memory:",
        durable: Optional[bool] = None,
    ) -> None:
        self._path = path
        # Autocommit: transactions are explicit (BEGIN IMMEDIATE issued
        # by the HybridStore transaction protocol), never implicit.
        # check_same_thread=False: the concurrency contract serializes
        # all writer-connection use behind the store's locks, and
        # close() may legitimately run on a different thread.
        self.connection = _TrackedConnection(
            sqlite3.connect(path, isolation_level=None, check_same_thread=False),
            self,
        )
        if durable is None:
            durable = path != ":memory:" and not path.startswith("file::memory:")
        self.durable = durable
        if durable:
            # On-disk catalogs: WAL survives a killed process and keeps
            # readers unblocked during a write transaction.
            self.connection.execute("PRAGMA journal_mode = WAL")
            self.connection.execute("PRAGMA synchronous = NORMAL")
        else:
            self.connection.execute("PRAGMA journal_mode = MEMORY")
            self.connection.execute("PRAGMA synchronous = OFF")
        # The reader of the query running on each thread (_read_section).
        self._section = threading.local()
        # Reader pool: only on-disk WAL catalogs — an in-memory sqlite
        # database is private to its connection, so ``:memory:`` readers
        # share the writer connection under the read lock instead.
        self._pool: Optional[ReaderConnectionPool] = (
            ReaderConnectionPool(
                self._reader_connect,
                on_acquire=self._pool_acquire_hook,
                on_wait=self._observe_pool_wait,
            )
            if durable
            else None
        )

    # ------------------------------------------------------------------
    # Reader pool (WAL snapshot reads in parallel with the writer)
    # ------------------------------------------------------------------
    def _reader_connect(self) -> "_TrackedConnection":
        conn = _TrackedConnection(
            sqlite3.connect(
                self._path, isolation_level=None, check_same_thread=False
            ),
            self,
        )
        # A WAL reader can still hit SQLITE_BUSY around checkpoint
        # restarts; a short busy wait beats surfacing it to callers.
        conn.execute_control("PRAGMA busy_timeout = 5000")
        return conn

    def _pool_acquire_hook(self) -> None:
        """Fault hook at reader-connection checkout.  Consulted only
        when the armed plan targets ``pool:acquire``: a plain
        ``fail_at=N`` write-statement sweep must count exactly the
        statements it counted before pooling existed."""
        plan = self.fault_plan
        if plan is not None and plan.site == "pool:acquire":
            plan.before("pool:acquire", self.metrics_registry())

    def _observe_pool_wait(self, seconds: float) -> None:
        """Pool contention observer: checkouts that queued at capacity
        land in the acquire-wait histogram and on the active query
        profile (never called on the idle-connection fast path)."""
        registry = self.metrics_registry()
        registry.histogram(
            "pool_acquire_wait_seconds",
            metric_names.spec("pool_acquire_wait_seconds").help,
        ).observe(seconds)
        prof = current_profile()
        if prof is not None:
            prof.add_wait("pool", seconds)

    def _set_pool_gauge(self) -> None:
        if self._pool is not None:
            registry = self.metrics_registry()
            registry.gauge(
                "sqlite_pool_connections",
                "reader connections currently open in the pool",
            ).set(self._pool.open_connections())
            registry.gauge(
                "pool_queue_depth",
                metric_names.spec("pool_queue_depth").help,
            ).set(self._pool.queue_depth())

    @contextmanager
    def _reader(self) -> Iterator["_TrackedConnection"]:
        """The connection a read runs on.  Inside the calling thread's
        own transaction: the writer connection (the read must see the
        transaction's uncommitted writes).  On-disk catalogs: a pooled
        connection — WAL snapshot isolation, parallel with the writer —
        checked out as one read transaction, so every read of the block
        sees the snapshot its first read opened, whatever commits
        meanwhile.  ``:memory:`` catalogs: the single shared connection
        under the read lock."""
        if self.in_transaction():
            yield self.connection
            return
        if self._pool is None:
            with self.read_locked():
                yield self.connection
            return
        self._check_open()
        with self._pool.connection() as conn:
            self._set_pool_gauge()
            conn.execute_control("BEGIN")
            try:
                yield conn
            finally:
                if conn.in_transaction:
                    # A read transaction: ROLLBACK only releases it.
                    conn.execute_control("ROLLBACK")

    # ------------------------------------------------------------------
    # Transactions (explicit BEGIN IMMEDIATE / COMMIT / ROLLBACK)
    # ------------------------------------------------------------------
    def _txn_begin(self, site: str) -> None:
        self.connection.execute_control("BEGIN IMMEDIATE")

    def _txn_commit(self, site: str) -> None:
        self.connection.commit()

    def _txn_rollback(self, site: str) -> None:
        # BEGIN itself may have failed (lock contention); only roll back
        # a transaction that actually started.
        if self.connection.in_transaction:
            self.connection.rollback()

    # ------------------------------------------------------------------
    # DDL / definitions
    # ------------------------------------------------------------------
    def is_initialized(self) -> bool:
        with self._reader() as cur:
            row = cur.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'objects'"
            ).fetchone()
        return row is not None

    def attach_schema(self, schema: AnnotatedSchema) -> None:
        """Bind ``schema`` to a reopened catalog file, verifying the
        stored global ordering matches it exactly.  A v0 file migrates
        to the current format first; a newer one is refused."""
        if self.schema is not None:
            raise CatalogError("schema already installed")
        with self._reader() as cur:
            version = cur.execute("PRAGMA user_version").fetchone()[0]
        if version > FORMAT_VERSION:
            raise CatalogError(
                f"the catalog file has format v{version}; this version reads "
                f"up to v{FORMAT_VERSION}"
            )
        if version < FORMAT_VERSION:
            self.run_transaction("migrate_format", self._migrate_v0)
        with self._reader() as cur:
            stored = cur.execute(
                "SELECT node_order, tag, last_child_order FROM schema_order "
                "ORDER BY node_order"
            ).fetchall()
        expected = schema_order_rows(schema)
        if stored != expected:
            raise CatalogError(
                "the catalog file was created with a different schema "
                f"({len(stored)} stored ordered nodes vs {len(expected)})"
            )
        self._bind_schema(schema)

    def load_definition_rows(self):
        with self._reader() as cur:
            attr_rows = cur.execute(
                "SELECT attr_id, name, source, parent_id, schema_order, scope, "
                "queryable, structural FROM attr_defs"
            ).fetchall()
            elem_rows = cur.execute(
                "SELECT elem_id, attr_id, name, source, value_type, scope FROM elem_defs"
            ).fetchall()
        return attr_rows, elem_rows

    def load_objects(self):
        with self._reader() as cur:
            return cur.execute(
                "SELECT object_id, name, owner FROM objects ORDER BY object_id"
            ).fetchall()

    def _create_tables(self) -> None:
        # DDL runs in autocommit (sqlite's executescript commits any
        # pending transaction anyway).
        self.connection.executescript(
            ";\n".join((_DDL, *_CLUSTERED_DDL, *_INDEX_DDL, _STAMP_SQL))
        )

    def _migrate_v0(self) -> None:
        """Rewrite a v0 file in the v1 layout (inside a transaction)."""
        try:
            for sql in _MIGRATE_V0_SQL:
                self.connection.execute(sql)
        except sqlite3.IntegrityError as exc:
            raise CatalogError(f"cannot migrate a v0 catalog file: {exc}") from exc

    # ------------------------------------------------------------------
    # Row primitives (the write path itself is HybridStore's)
    # ------------------------------------------------------------------
    def _insert_rows(self, table: str, rows: Sequence[tuple]) -> None:
        self.connection.executemany(_INSERT_SQL[table], rows)

    def _insert_new_definitions(self, table: str, rows: Sequence[tuple]) -> None:
        # INSERT OR IGNORE: the primary key skips the ids already held.
        self._insert_rows(table, rows)

    def _delete_rows(self, table: str, object_id: int, **equals: int) -> int:
        return self.connection.execute(
            _DELETE_SQL[(table, *equals)], (object_id, *equals.values())
        ).rowcount

    def _clob_key_of(
        self, object_id: int, attr_id: int, seq_id: int
    ) -> Optional[Tuple[int, int]]:
        return self.connection.execute(
            "SELECT clob_order, clob_seq FROM attributes "
            "WHERE object_id = ? AND attr_id = ? AND seq_id = ?",
            (object_id, attr_id, seq_id),
        ).fetchone()

    def _descendant_instances(
        self, object_id: int, attr_id: int, seq_id: int
    ) -> List[Tuple[int, int]]:
        return self.connection.execute(
            "SELECT desc_attr_id, desc_seq FROM attr_ancestors "
            "WHERE object_id = ? AND anc_attr_id = ? AND anc_seq = ? "
            "AND distance >= 1",
            (object_id, attr_id, seq_id),
        ).fetchall()

    def has_object(self, object_id: int) -> bool:
        with self._reader() as cur:
            row = cur.execute(
                "SELECT 1 FROM objects WHERE object_id = ?", (object_id,)
            ).fetchone()
        return row is not None

    def object_count(self) -> int:
        with self._reader() as cur:
            return cur.execute("SELECT COUNT(*) FROM objects").fetchone()[0]

    def max_clob_seq(self, object_id: int, schema_order: int) -> int:
        with self._reader() as cur:
            row = cur.execute(
                "SELECT MAX(clob_seq) FROM clobs WHERE object_id = ? AND schema_order = ?",
                (object_id, schema_order),
            ).fetchone()
        return row[0] or 0

    def instance_counts(self, object_id: int) -> Dict[int, int]:
        with self._reader() as cur:
            rows = cur.execute(
                "SELECT attr_id, MAX(seq_id) FROM attributes WHERE object_id = ? "
                "GROUP BY attr_id",
                (object_id,),
            ).fetchall()
        return {attr_id: seq for attr_id, seq in rows}

    # ------------------------------------------------------------------
    # Query reads (the interpreter is repro.core.planner's)
    # ------------------------------------------------------------------
    @contextmanager
    def _read_section(self) -> Iterator[None]:
        """One reader connection for the whole plan, so every primitive
        of the query reads one snapshot: a pooled reader's read
        transaction (:meth:`_reader`), the caller's own transaction, or
        a ``:memory:`` catalog's connection under the read lock."""
        with self._reader() as cur:
            self._section.cursor = cur
            try:
                yield
            finally:
                self._section.cursor = None

    def _seek_instances(
        self, elem_id: int, attr_id: Optional[int], op: Op, expected
    ) -> List[Tuple[int, int]]:
        cur = self._section.cursor
        if op is Op.IN_SET:
            sql = _SEEK_SQL[Op.EQ, isinstance(next(iter(expected)), str)]
            return [
                row
                for value in expected
                for row in cur.execute(sql, (elem_id, attr_id, value)).fetchall()
            ]
        sql = _SEEK_SQL[op, isinstance(expected, str)]
        return cur.execute(sql, (elem_id, attr_id, expected)).fetchall()

    def _instance_rows(self, attr_def_id: int) -> List[Tuple[int, int]]:
        return self._section.cursor.execute(
            _INSTANCE_ROWS_SQL, (attr_def_id,)
        ).fetchall()

    def _ancestor_rows(
        self, desc_def_id: int, anc_def_id: int
    ) -> List[Tuple[int, int, int]]:
        return self._section.cursor.execute(
            _ANCESTOR_ROWS_SQL, (desc_def_id, anc_def_id)
        ).fetchall()

    # ------------------------------------------------------------------
    # Response rows (the §5 tagging itself is HybridStore's)
    # ------------------------------------------------------------------
    def _clob_rows(self, object_ids: Iterable[int]) -> Dict[int, List[Tuple[int, int, str]]]:
        # One statement per id, with constant text: two primary-key
        # seeks, prepared once per connection by sqlite3's statement
        # cache.  The LEFT JOIN tells a stored object without CLOBs
        # (one all-NULL row) from an unknown one (no row).
        found: Dict[int, List[Tuple[int, int, str]]] = {}
        with self._reader() as cur:
            for object_id in object_ids:
                rows = cur.execute(_CLOB_ROWS_SQL, (object_id,)).fetchall()
                if rows:
                    found[object_id] = [] if rows[0][0] is None else rows
        return found

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def storage_report(self) -> List[Tuple[str, int, int]]:
        report: List[Tuple[str, int, int]] = []
        with self._reader() as cur:
            tables = [
                row[0]
                for row in cur.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            ]
            for table in tables:
                count = cur.execute(
                    f"SELECT COUNT(*) FROM {quote_identifier(table)}"
                ).fetchone()[0]
                # Approximate byte accounting comparable to the memory store.
                size = 0
                for row in cur.execute(f"SELECT * FROM {quote_identifier(table)}"):
                    for value in row:
                        if value is None:
                            size += 1
                        elif isinstance(value, str):
                            size += len(value)
                        else:
                            size += 8
                report.append((table, count, size))
        report.sort(key=lambda item: item[2], reverse=True)
        return report

    def close(self) -> None:
        """Close the writer connection and the reader pool.  Idempotent;
        every subsequent operation raises
        :class:`~repro.errors.CatalogClosedError` instead of sqlite's
        raw ``ProgrammingError``."""
        if self._closed:
            return
        # Wait out an in-flight transaction, then fence new operations.
        with self._rwlock().write_locked():
            if self._closed:
                return
            self._closed = True
            if self._pool is not None:
                self._pool.close()
            self.connection.close()
