"""Hybrid store on stdlib :mod:`sqlite3` (system S3).

The identical table layout as :class:`MemoryHybridStore`, with the
Fig-4 count-matching plan expressed as actual SQL:

* the backend-neutral :class:`~repro.core.logical.LogicalPlan` is
  compiled stage by stage: each ``ElementSeek`` becomes one
  ``INSERT ... SELECT`` with a concrete operator predicate (so sqlite
  drives the ``elements_by_def`` index per criterion, in the
  optimizer's most-selective-first order, short-circuiting when a seek
  matches nothing);
* ``DirectCountMatch`` is ``GROUP BY ... HAVING COUNT(DISTINCT ...)``;
* ``AncestorCountMatch`` is one set-based ``DELETE ... WHERE NOT
  EXISTS`` per criteria edge, joining the sub-attribute inverted list —
  no recursive SQL.

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
under the store's read lock.
"""

from __future__ import annotations

import itertools
import sqlite3
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.logical import LogicalPlan
from ..core.query import Op
from ..core.schema import AnnotatedSchema
from ..core.stats import StatsSnapshot
from ..core.storage import HybridStore, schema_order_rows
from ..errors import CatalogError
from ..identifiers import quote_identifier
from ..obs import names as metric_names
from ..obs.metrics import MetricsRegistry
from ..obs.profile import QueryProfile, current_profile
from .pool import DEFAULT_CAPACITY, ReaderConnectionPool

#: Stage kinds this compiler executes.  PLN02 (reprolint) asserts this
#: declaration stays mirrored with the memory interpreter and with the
#: ``kind`` markers on the stage classes in :mod:`repro.core.logical`.
HANDLED_STAGE_KINDS = (
    "ElementSeek",
    "DirectCountMatch",
    "AncestorCountMatch",
    "ObjectIntersect",
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
CREATE TABLE attributes (
    object_id INTEGER NOT NULL,
    attr_id INTEGER NOT NULL,
    seq_id INTEGER NOT NULL,
    clob_order INTEGER NOT NULL,
    clob_seq INTEGER NOT NULL,
    PRIMARY KEY (object_id, attr_id, seq_id)
);
CREATE INDEX attributes_by_def ON attributes (attr_id);
CREATE TABLE elements (
    object_id INTEGER NOT NULL,
    attr_id INTEGER NOT NULL,
    seq_id INTEGER NOT NULL,
    elem_id INTEGER NOT NULL,
    elem_seq INTEGER NOT NULL,
    value_text TEXT,
    value_num REAL
);
CREATE INDEX elements_by_def ON elements (elem_id, value_num, value_text);
CREATE TABLE attr_ancestors (
    object_id INTEGER NOT NULL,
    desc_attr_id INTEGER NOT NULL,
    desc_seq INTEGER NOT NULL,
    anc_attr_id INTEGER NOT NULL,
    anc_seq INTEGER NOT NULL,
    distance INTEGER NOT NULL
);
CREATE INDEX anc_by_pair ON attr_ancestors (desc_attr_id, anc_attr_id);
CREATE TABLE schema_order (
    node_order INTEGER PRIMARY KEY,
    tag TEXT NOT NULL,
    last_child_order INTEGER NOT NULL
);
CREATE TABLE node_ancestors (
    node_order INTEGER NOT NULL,
    ancestor_order INTEGER NOT NULL
);
CREATE INDEX node_anc_by_node ON node_ancestors (node_order);
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
);
"""

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
    "node_ancestors": "INSERT INTO node_ancestors VALUES (?, ?)",
    "attr_defs": "INSERT OR IGNORE INTO attr_defs VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
    "elem_defs": "INSERT OR IGNORE INTO elem_defs VALUES (?, ?, ?, ?, ?, ?)",
}

#: ``(table, *equality columns)`` -> the DELETE over one object's rows.
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
        pool_capacity: int = DEFAULT_CAPACITY,
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
        self._temp_ids = itertools.count(1)
        # Reader pool: only on-disk WAL catalogs — an in-memory sqlite
        # database is private to its connection, so ``:memory:`` readers
        # share the writer connection under the read lock instead.
        self._pool: Optional[ReaderConnectionPool] = (
            ReaderConnectionPool(
                self._reader_connect,
                capacity=pool_capacity,
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
        connection — WAL snapshot isolation, parallel with the writer.
        ``:memory:`` catalogs: the single shared connection under the
        read lock."""
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
            yield conn

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
        stored global ordering matches it exactly."""
        if self.schema is not None:
            raise CatalogError("schema already installed")
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
        self.connection.executescript(_DDL)

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
    # Query: compile the logical plan IR to SQL (Fig 4)
    # ------------------------------------------------------------------
    _SQL_OPS = {
        Op.EQ: "=", Op.NE: "<>", Op.LT: "<", Op.LE: "<=",
        Op.GT: ">", Op.GE: ">=",
    }

    def _compile_seek(self, plan: LogicalPlan, seek, qm: str):
        """One ``INSERT ... SELECT`` per ElementSeek: a concrete
        predicate over the criterion's literal, so sqlite seeks the
        ``elements_by_def (elem_id, value_num, value_text)`` index per
        criterion instead of filtering a disjunction over all ops."""
        qelem = plan.query.qelems[seek.qelem_id - 1]
        params: list = [seek.qattr_id, seek.qelem_id, qelem.elem_def_id]
        where = ["e.elem_id = ?"]
        if not plan.simple:
            # The general plan groups by attribute instance; pin the
            # hosting definition exactly as the memory interpreter does.
            where.append("e.attr_id = ?")
            params.append(plan.query.qattr(seek.qattr_id).attr_def_id)
        op = qelem.op
        if op is Op.IN_SET:
            values = sorted(qelem.value_set)  # deterministic placeholder order
            marks = ", ".join("?" for _ in values)
            column = "e.value_num" if qelem.numeric else "e.value_text"
            where.append(f"{column} IN ({marks})")
            params.extend(values)
        elif op is Op.CONTAINS:
            where.append("e.value_text IS NOT NULL AND instr(e.value_text, ?) > 0")
            params.append(qelem.value_text)
        elif qelem.numeric:
            where.append(f"e.value_num IS NOT NULL AND e.value_num {self._SQL_OPS[op]} ?")
            params.append(qelem.value_num)
        else:
            where.append(f"e.value_text IS NOT NULL AND e.value_text {self._SQL_OPS[op]} ?")
            params.append(qelem.value_text)
        # WHERE is assembled from the fixed _SQL_OPS table and ?-bound
        # literals above — no external string ever reaches the SQL text.
        sql = (  # reprolint: ignore[SQL01] fixed op table + ? params only
            f"INSERT INTO {quote_identifier(qm)} "
            "SELECT e.object_id, e.attr_id, e.seq_id, ?, ? FROM elements e "
            "WHERE " + " AND ".join(f"({clause})" for clause in where)
        )
        return sql, params

    def _execute_plan(
        self, plan: LogicalPlan, prof: Optional[QueryProfile]
    ) -> List[int]:
        # Temp tables are per-connection, so a pooled reader executes
        # the whole plan in its own namespace, in parallel with other
        # readers and (on WAL catalogs) with the writer.
        with self._reader() as cur:
            return self._run_stages(cur, plan, prof)

    def _run_stages(
        self, cur, plan: LogicalPlan, prof: Optional[QueryProfile]
    ) -> List[int]:
        suffix = next(self._temp_ids)
        qm = quote_identifier(f"q_matches_{suffix}")
        qs = quote_identifier(f"q_satisfied_{suffix}")
        cur.execute(
            f"CREATE TEMP TABLE {qm} (object_id INTEGER, attr_id INTEGER,"
            " seq_id INTEGER, qattr_id INTEGER, qelem_id INTEGER)"
        )
        cur.execute(
            f"CREATE TEMP TABLE {qs} (qattr_id INTEGER, object_id INTEGER,"
            " seq_id INTEGER)"
        )
        try:
            # ElementSeek stages, in the optimizer's order; a seek with
            # no matches empties the conjunctive result — skip the rest.
            clock = time.perf_counter if prof is not None else None
            for seek in plan.seeks:
                t0 = clock() if clock is not None else 0.0
                sql, params = self._compile_seek(plan, seek, qm)
                seek_rows = cur.execute(sql, params).rowcount  # reprolint: ignore[TXN01] temp-table scratch
                plan.actuals[seek.key()] = seek_rows
                if clock is not None:
                    prof.stage_seconds[seek.key()] = clock() - t0
                if seek_rows == 0:
                    return plan.short_circuit()

            # DirectCountMatch stages: GROUP BY ... HAVING COUNT per
            # attribute criterion (by object under the §4 rewrite, by
            # attribute instance otherwise); existence-only criteria
            # take every instance of their definition.
            survivors: Dict[int, int] = {}
            for count in plan.counts:
                t0 = clock() if clock is not None else 0.0
                if count.required == 0:
                    if count.per_object:
                        sql = (
                            f"INSERT INTO {qs} "
                            "SELECT DISTINCT ?, a.object_id, 0 "
                            "FROM attributes a WHERE a.attr_id = ?"
                        )
                    else:
                        sql = (
                            f"INSERT INTO {qs} "
                            "SELECT ?, a.object_id, a.seq_id "
                            "FROM attributes a WHERE a.attr_id = ?"
                        )
                    rows = cur.execute(sql, (count.qattr_id, count.attr_def_id)).rowcount  # reprolint: ignore[TXN01] temp-table scratch
                else:
                    if count.per_object:
                        sql = (
                            f"INSERT INTO {qs} "
                            f"SELECT ?, m.object_id, 0 FROM {qm} m "
                            "WHERE m.qattr_id = ? GROUP BY m.object_id "
                            "HAVING COUNT(DISTINCT m.qelem_id) = ?"
                        )
                    else:
                        sql = (
                            f"INSERT INTO {qs} "
                            f"SELECT ?, m.object_id, m.seq_id FROM {qm} m "
                            "WHERE m.qattr_id = ? GROUP BY m.object_id, m.seq_id "
                            "HAVING COUNT(DISTINCT m.qelem_id) = ?"
                        )
                    rows = cur.execute(  # reprolint: ignore[TXN01] temp-table scratch
                        sql, (count.qattr_id, count.qattr_id, count.required)
                    ).rowcount
                plan.actuals[count.key()] = survivors[count.qattr_id] = rows
                if clock is not None:
                    prof.stage_seconds[count.key()] = clock() - t0

            # AncestorCountMatch stages: one set-based DELETE per
            # criteria edge, joining the inverted list (bottom-up order
            # fixed by the plan builder; none under the §4 rewrite).
            # What the DELETE leaves of the parent's rows is the
            # edge's output.
            for edge in plan.containments:
                t0 = clock() if clock is not None else 0.0
                deleted = cur.execute(  # reprolint: ignore[TXN01] temp-table scratch
                    f"""
                    DELETE FROM {qs}
                    WHERE qattr_id = ?
                      AND NOT EXISTS (
                        SELECT 1
                        FROM attr_ancestors aa
                        JOIN {qs} cs
                          ON cs.qattr_id = ?
                         AND cs.object_id = aa.object_id
                         AND cs.seq_id = aa.desc_seq
                        WHERE aa.desc_attr_id = ?
                          AND aa.anc_attr_id = ?
                          AND aa.distance >= 1
                          AND aa.object_id = {qs}.object_id
                          AND aa.anc_seq = {qs}.seq_id)
                    """,
                    (edge.parent_qattr_id, edge.child_qattr_id,
                     edge.child_def_id, edge.parent_def_id),
                ).rowcount
                survivors[edge.parent_qattr_id] -= deleted
                plan.actuals[edge.key()] = survivors[edge.parent_qattr_id]
                if clock is not None:
                    prof.stage_seconds[edge.key()] = clock() - t0

            # ObjectIntersect: the required number of satisfied tops.
            t0 = clock() if clock is not None else 0.0
            tops = plan.intersect.top_qattr_ids
            marks = ", ".join("?" for _ in tops)
            rows = cur.execute(  # reprolint: ignore[SQL01] marks is ? placeholder expansion
                f"""
                SELECT object_id FROM {qs}
                WHERE qattr_id IN ({marks})
                GROUP BY object_id
                HAVING COUNT(DISTINCT qattr_id) = ?
                ORDER BY object_id
                """,
                [*tops, len(tops)],
            ).fetchall()
            object_ids = [row[0] for row in rows]
            plan.actuals[plan.intersect.key()] = len(object_ids)
            if clock is not None:
                prof.stage_seconds[plan.intersect.key()] = clock() - t0
            return object_ids
        finally:
            for table in (qm, qs):
                cur.execute(f"DROP TABLE {quote_identifier(table)}")

    # ------------------------------------------------------------------
    # Statistics (optimizer inputs)
    # ------------------------------------------------------------------
    def collect_statistics(self) -> StatsSnapshot:
        """One aggregation pass for the statistics layer: per element
        definition row/distinct counts, per attribute definition
        instance counts, and the object total."""
        elem_rows: Dict[int, int] = {}
        elem_distinct: Dict[int, int] = {}
        with self._reader() as cur:
            for elem_id, rows, distinct in cur.execute(
                "SELECT elem_id, COUNT(*), "
                "COUNT(DISTINCT COALESCE(value_text, CAST(value_num AS TEXT))) "
                "FROM elements GROUP BY elem_id"
            ):
                elem_rows[elem_id] = rows
                elem_distinct[elem_id] = distinct
            attr_rows = {
                attr_id: rows
                for attr_id, rows in cur.execute(
                    "SELECT attr_id, COUNT(*) FROM attributes GROUP BY attr_id"
                )
            }
            objects = cur.execute("SELECT COUNT(*) FROM objects").fetchone()[0]
        return StatsSnapshot(objects, elem_rows, elem_distinct, attr_rows)

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
                name = quote_identifier(table)
                count = cur.execute(f"SELECT COUNT(*) FROM {name}").fetchone()[0]
                # Approximate byte accounting comparable to the memory store.
                size = 0
                for row in cur.execute(f"SELECT * FROM {name}"):
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
