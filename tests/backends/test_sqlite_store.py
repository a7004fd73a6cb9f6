"""Unit tests for the sqlite hybrid store."""

import threading

import pytest

from repro.backends import SqliteHybridStore
from repro.backends.sqlite import _CLUSTERED_DDL, _INDEX_DDL, _SEEK_SQL
from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op, PlanTrace
from repro.errors import CatalogClosedError, CatalogError
from repro.grid import (
    CF_STANDARD_NAMES,
    FIG3_DOCUMENT,
    LeadCorpusGenerator,
    WorkloadGenerator,
    define_fig3_attributes,
    lead_schema,
)
from repro.obs import MetricsRegistry
from repro.xmlkit import canonical, parse


@pytest.fixture()
def catalog():
    cat = HybridCatalog(lead_schema(), store=SqliteHybridStore())
    define_fig3_attributes(cat)
    cat.ingest(FIG3_DOCUMENT, name="fig3")
    return cat


def paper_query():
    crit = AttributeCriteria("grid", "ARPS").add_element("dx", "ARPS", 1000)
    sub = AttributeCriteria("grid-stretching", "ARPS").add_element("dzmin", None, 100)
    crit.add_attribute(sub)
    return ObjectQuery().add_attribute(crit)


def assert_reads_search(raw, sql, params=()):
    """The ``SEARCH`` steps of ``sql``'s plan, after checking that no
    step scans a table: a ``SCAN`` may only read the rows of a CTE."""
    steps = [row[3] for row in raw.execute("EXPLAIN QUERY PLAN " + sql, params)]
    scans = [s for s in steps if s.startswith("SCAN") and s != "SCAN v"]
    assert not scans, steps
    searches = [s for s in steps if s.startswith("SEARCH")]
    assert searches, steps
    return searches


class TestLifecycle:
    def test_double_install_rejected(self):
        store = SqliteHybridStore()
        store.install_schema(lead_schema())
        with pytest.raises(CatalogError):
            store.install_schema(lead_schema())

    def test_object_count(self, catalog):
        assert catalog.store.object_count() == 1
        assert catalog.store.has_object(1)
        assert not catalog.store.has_object(2)

    def test_delete_object(self, catalog):
        catalog.delete(1)
        assert catalog.store.object_count() == 0
        query = ObjectQuery().add_attribute(AttributeCriteria("theme"))
        assert catalog.query(query) == []

    def test_delete_unknown_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.store.delete_object(9)

    def test_storage_report_covers_tables(self, catalog):
        names = {n for n, _r, _b in catalog.storage_report()}
        assert {"objects", "clobs", "attributes", "elements"} <= names


class TestClose:
    """The close() lifecycle contract: idempotent, typed errors after,
    pooled reader connections actually returned and shut down."""

    def test_double_close_is_idempotent(self, catalog):
        catalog.store.close()
        catalog.store.close()  # must not raise

    def test_use_after_close_raises_typed_error(self, catalog):
        catalog.store.close()
        with pytest.raises(CatalogClosedError):
            catalog.store.has_object(1)
        with pytest.raises(CatalogClosedError):
            catalog.query(paper_query())
        with pytest.raises(CatalogClosedError):
            catalog.ingest(FIG3_DOCUMENT)

    def test_cached_query_still_raises_after_close(self, catalog):
        # A result-cache hit never reaches the store; the catalog must
        # check the store's lifecycle itself.
        query = paper_query()
        assert catalog.query(query) == catalog.query(query)
        catalog.store.close()
        with pytest.raises(CatalogClosedError):
            catalog.query(query)

    def test_close_drains_the_reader_pool(self, tmp_path):
        cat = HybridCatalog(
            lead_schema(), store=SqliteHybridStore(str(tmp_path / "c.db"))
        )
        define_fig3_attributes(cat)
        cat.ingest(FIG3_DOCUMENT, name="fig3")
        cat.query(paper_query())  # forces at least one pooled checkout
        pool = cat.store._pool
        assert pool.acquires > 0
        cat.store.close()
        assert pool.open_connections() == 0
        with pytest.raises(CatalogClosedError):
            with pool.connection():
                pass

    def test_close_inside_read_section_waits_its_turn(self, catalog):
        # close() takes the write lock, so it cannot run while a reader
        # holds the read lock on the same thread (upgrade is an error).
        with catalog.store.read_locked():
            with pytest.raises(RuntimeError):
                catalog.store.close()
        catalog.store.close()


class TestReadSection:
    """A query's read section on a pooled reader is one read
    transaction: its reads see one snapshot, and it ends however the
    section exits."""

    @pytest.fixture()
    def on_disk(self, tmp_path):
        cat = HybridCatalog(
            lead_schema(), store=SqliteHybridStore(str(tmp_path / "c.db"))
        )
        define_fig3_attributes(cat)
        cat.ingest(FIG3_DOCUMENT, name="fig3")
        theme = next(a.attr_id for a in cat.registry.all_attributes() if a.name == "theme")
        yield cat, theme
        cat.store.close()

    def test_reads_of_one_section_see_one_snapshot(self, on_disk):
        cat, theme = on_disk
        store = cat.store
        failures = []

        def ingest():
            try:
                cat.ingest(FIG3_DOCUMENT, name="again")
            except Exception as exc:  # surfaced by the assert below
                failures.append(exc)

        with store._read_section():
            first = store._instance_rows(theme)
            writer = threading.Thread(target=ingest)
            writer.start()
            writer.join(timeout=30)
            assert not writer.is_alive()
            second = store._instance_rows(theme)
        assert not failures and store.object_count() == 2
        assert second == first
        with store._read_section():
            assert len(store._instance_rows(theme)) == 2 * len(first)

    def test_section_ends_its_transaction_on_every_exit(self, on_disk):
        cat, theme = on_disk
        store = cat.store
        with pytest.raises(RuntimeError):
            with store._read_section():
                store._instance_rows(theme)
                raise RuntimeError("inside the section")
        with store._read_section():
            store._instance_rows(theme)
        assert store._pool._idle
        assert not any(conn.in_transaction for conn in store._pool._idle)


class TestSqlPlan:
    def test_paper_query(self, catalog):
        assert catalog.query(paper_query()) == [1]

    def test_trace_stages(self, catalog):
        trace = PlanTrace()
        catalog.query(paper_query(), trace=trace)
        assert trace.stage_names() == [
            "query-criteria",
            "elements-meeting-criteria",
            "attributes-direct",
            "attributes-indirect",
            "object-ids",
        ]

    def test_all_operators(self, catalog):
        cases = [
            ("dx", 1000, Op.EQ, [1]),
            ("dx", 1000, Op.NE, []),
            ("dx", 500, Op.GT, [1]),
            ("dx", 1000, Op.GE, [1]),
            ("dx", 2000, Op.LT, [1]),
            ("dx", 999, Op.LE, []),
        ]
        for name, value, op, expected in cases:
            query = ObjectQuery().add_attribute(
                AttributeCriteria("grid", "ARPS").add_element(name, "ARPS", value, op)
            )
            assert catalog.query(query) == expected, (name, op)

    def test_contains_operator(self, catalog):
        query = ObjectQuery().add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", "cloud", Op.CONTAINS)
        )
        assert catalog.query(query) == [1]

    def test_existence_only_criterion(self, catalog):
        query = ObjectQuery().add_attribute(AttributeCriteria("theme"))
        assert catalog.query(query) == [1]

    def test_statements_per_query_are_the_plan_stages(
        self, corpus_config, corpus_docs
    ):
        """A query is keyed reads and nothing else: one ``SELECT`` per
        seek (per value for an IN_SET), per existence-only criterion
        and per containment edge that reads rows.  No scratch table is
        created or dropped, and every read searches an index."""
        registry = MetricsRegistry()
        cat = HybridCatalog(
            lead_schema(), store=SqliteHybridStore(), metrics=registry
        )
        LeadCorpusGenerator(corpus_config).register_definitions(cat)
        cat.ingest_many(corpus_docs)
        query = WorkloadGenerator(corpus_config).nested_query(1, depth=2)
        query.add_attribute(AttributeCriteria("theme").add_element(
            "themekey", "", set(CF_STANDARD_NAMES), Op.IN_SET))
        plan = cat.plan_for(cat.shred_query(query))
        assert len(plan.containments) == 2 and plan.seeks
        executes = registry.get("sqlite_statements_total").labels(kind="execute")
        raw = cat.store.connection._connection
        traced = []
        before = executes.value
        raw.set_trace_callback(traced.append)
        assert cat.store.match_objects(plan)
        raw.set_trace_callback(None)
        seeks = sum(
            len(qelem.value_set) if qelem.op is Op.IN_SET else 1
            for qelem in plan.query.qelems
        )
        existence = sum(count.required == 0 for count in plan.counts)
        # The nested top matched, so each of its edges met a non-empty
        # parent and child: every edge read its rows.
        assert executes.value - before == len(traced) == (
            seeks + existence + len(plan.containments)
        )
        for sql in traced:
            assert sql.split(None, 1)[0] == "SELECT", sql
            searches = assert_reads_search(raw, sql)
            assert any(
                index in step
                for step in searches
                for index in ("elements_by_def", "attributes_by_def", "anc_by_pair")
            ), searches

    #: Per seek statement, the ``elements_by_def`` constraints of its
    #: searches, in plan order (sqlite prints ``<=`` as ``<``).  A text
    #: seek searches the ``value_num IS NULL`` segment by value, then
    #: the ``value_num`` range that holds typed values; NE has no range
    #: to search by.  CONTAINS walks the NULL segment's distinct values,
    #: probes the ones holding the needle, and reads the typed range.
    SEEK_SEARCHES = {
        (Op.EQ, False): ["(elem_id=? AND value_num=?)"],
        (Op.NE, False): ["(elem_id=?)"],
        (Op.LT, False): ["(elem_id=? AND value_num<?)"],
        (Op.LE, False): ["(elem_id=? AND value_num<?)"],
        (Op.GT, False): ["(elem_id=? AND value_num>?)"],
        (Op.GE, False): ["(elem_id=? AND value_num>?)"],
        **{(op, True): [f"(elem_id=? AND value_num=? AND value_text{sign}?)",
                        "(elem_id=? AND value_num>?)"] for op, sign in (
            (Op.EQ, "="), (Op.LT, "<"), (Op.LE, "<"), (Op.GT, ">"), (Op.GE, ">"))},
        (Op.NE, True): ["(elem_id=? AND value_num=?)", "(elem_id=? AND value_num>?)"],
        (Op.CONTAINS, True): [
            "(elem_id=? AND value_num=? AND value_text=?)",   # the IN probe
            "(elem_id=? AND value_num=?)",                    # the first value
            "(elem_id=? AND value_num=? AND value_text>?)",   # each next value
            "(elem_id=? AND value_num>?)",                    # typed values
        ],
    }

    def test_every_seek_statement_searches_by_value(self):
        """Every ElementSeek statement reads ``elements`` only through
        ``SEARCH … elements_by_def`` with the constraints above, and
        scans no table."""
        assert set(_SEEK_SQL) == set(self.SEEK_SEARCHES)
        raw = SqliteHybridStore().connection._connection
        raw.executescript(";".join(_CLUSTERED_DDL + _INDEX_DDL))
        for key, sql in _SEEK_SQL.items():
            searches = assert_reads_search(raw, sql, (1, None, "x"))
            prefix = "SEARCH elements USING COVERING INDEX elements_by_def "
            assert searches == [prefix + c for c in self.SEEK_SEARCHES[key]], key

    def test_temp_tables_cleaned_up(self, catalog):
        for _ in range(3):
            catalog.query(paper_query())
        leftovers = catalog.store.connection.execute(
            "SELECT name FROM sqlite_temp_master WHERE type='table'"
        ).fetchall()
        assert leftovers == []


class TestWritePathPlans:
    """Deleting an object and removing an attribute cost that object's
    rows: every statement of the write path searches a key that leads
    with ``object_id``, and none scans a row table."""

    DELETES = {
        ("objects",): "SEARCH objects USING INTEGER PRIMARY KEY (rowid=?)",
        ("clobs",): "SEARCH clobs USING INDEX sqlite_autoindex_clobs_1 (object_id=?)",
        ("attributes",): "SEARCH attributes USING PRIMARY KEY (object_id=?)",
        ("elements",): "SEARCH elements USING PRIMARY KEY (object_id=?)",
        ("attr_ancestors",): "SEARCH attr_ancestors USING PRIMARY KEY (object_id=?)",
        ("clobs", "schema_order", "clob_seq"):
            "SEARCH clobs USING INDEX sqlite_autoindex_clobs_1 "
            "(object_id=? AND schema_order=? AND clob_seq=?)",
        ("attributes", "attr_id", "seq_id"):
            "SEARCH attributes USING PRIMARY KEY (object_id=? AND attr_id=? AND seq_id=?)",
        ("elements", "attr_id", "seq_id"):
            "SEARCH elements USING PRIMARY KEY (object_id=? AND attr_id=? AND seq_id=?)",
        ("attr_ancestors", "desc_attr_id", "desc_seq"):
            "SEARCH attr_ancestors USING PRIMARY KEY "
            "(object_id=? AND desc_attr_id=? AND desc_seq=?)",
        ("attr_ancestors", "anc_attr_id", "anc_seq"):
            "SEARCH attr_ancestors USING PRIMARY KEY (object_id=?)",
    }
    #: The write path's reads, by their text up to ``WHERE``: the next
    #: CLOB sequence and instance numbers of ``add_attribute``, the
    #: existence check of ``append_rows``, and the CLOB key and
    #: descendants of a removed instance.
    READS = {
        "SELECT MAX(clob_seq) FROM clobs":
            "SEARCH clobs USING COVERING INDEX sqlite_autoindex_clobs_1 "
            "(object_id=? AND schema_order=?)",
        "SELECT attr_id, MAX(seq_id) FROM attributes":
            "SEARCH attributes USING PRIMARY KEY (object_id=?)",
        "SELECT 1 FROM objects": "SEARCH objects USING INTEGER PRIMARY KEY (rowid=?)",
        "SELECT clob_order, clob_seq FROM attributes":
            "SEARCH attributes USING PRIMARY KEY (object_id=? AND attr_id=? AND seq_id=?)",
        "SELECT desc_attr_id, desc_seq FROM attr_ancestors":
            "SEARCH attr_ancestors USING PRIMARY KEY (object_id=?)",
    }

    @staticmethod
    def plan(raw, sql):
        steps = [row[3] for row in raw.execute("EXPLAIN QUERY PLAN " + sql,
                                               (None,) * sql.count("?"))]
        for table in ("elements", "attributes", "attr_ancestors", "clobs"):
            assert f"SCAN {table}" not in " ".join(steps), (sql, steps)
        return steps

    def test_every_delete_statement_searches_the_object(self, catalog):
        from repro.backends.sqlite import _DELETE_SQL

        raw = catalog.store.connection._connection
        assert set(_DELETE_SQL) == set(self.DELETES)
        for key, sql in _DELETE_SQL.items():
            assert self.plan(raw, sql) == [self.DELETES[key]], sql

    def test_write_path_reads_search_the_object(self, catalog):
        raw = catalog.store.connection._connection
        traced = []
        raw.set_trace_callback(traced.append)
        catalog.add_attribute(
            1, "<theme><themekt>CF</themekt><themekey>late</themekey></theme>"
        )
        catalog.remove_attribute(1, "theme")
        raw.set_trace_callback(None)
        reads = {sql.split(" WHERE ")[0]: sql for sql in traced if sql.startswith("SELECT")}
        assert set(reads) == set(self.READS)
        for head, sql in reads.items():
            assert self.plan(raw, sql) == [self.READS[head]], sql


class TestSqlResponse:
    def test_roundtrip(self, catalog):
        response = catalog.fetch([1])[1]
        assert canonical(parse(response)) == canonical(parse(FIG3_DOCUMENT))

    def test_unknown_object_absent(self, catalog):
        assert set(catalog.fetch([1, 7])) == {1}

    def test_multi_object_fetch(self, catalog):
        catalog.ingest(FIG3_DOCUMENT)
        responses = catalog.fetch([1, 2])
        assert canonical(parse(responses[1])) == canonical(parse(responses[2]))

    def test_statements_per_fetch_are_the_distinct_ids(self):
        """One primary-key read per distinct id: no temp table, no scan
        of the CLOB table, and nothing at all for an empty request —
        a fetch costs what it asks for, not what the catalog holds."""
        def fig3_pair(store=None, registry=None):
            cat = HybridCatalog(lead_schema(), store=store, metrics=registry)
            define_fig3_attributes(cat)
            cat.ingest(FIG3_DOCUMENT)
            cat.ingest(FIG3_DOCUMENT.replace("ARPS", "WRF"))
            return cat

        registry = MetricsRegistry()
        cat = fig3_pair(SqliteHybridStore(), registry)
        family = registry.get("sqlite_statements_total")

        def statement_counts():
            return {kind: family.labels(kind=kind).value
                    for kind in ("execute", "executemany", "script")}

        raw = cat.store.connection._connection
        traced = []
        raw.set_trace_callback(traced.append)
        before = statement_counts()
        assert cat.fetch([]) == {}
        assert statement_counts() == before and traced == []
        request = [1, 1, 99, 2]
        responses = cat.fetch(request)
        raw.set_trace_callback(None)
        assert statement_counts() == {**before, "execute": before["execute"] + 3}
        assert len(traced) == 3
        for sql in traced:
            assert sql.split(None, 1)[0] == "SELECT", sql
            plan = [row[3] for row in raw.execute("EXPLAIN QUERY PLAN " + sql)]
            assert len(plan) == 2, plan
            assert all(step.startswith("SEARCH") for step in plan), plan
        assert set(responses) == {1, 2}
        other = fig3_pair()
        assert other.fetch(request) == responses
        other.store.close()
