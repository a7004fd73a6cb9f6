"""Concurrent read path: many readers, one writer, same answers.

The tentpole contract of the concurrency layer, checked end to end on
both backends:

* **stress** — reader threads hammer ``query`` + ``fetch`` while the
  main thread ingests and deletes; no reader may ever crash, see a
  torn row set (an object id it cannot fetch), or deadlock.  After the
  dust settles the catalog passes a full integrity check (fsck);
* **equivalence** — cached results == fresh (trace-bypassed) results ==
  a single-threaded reference catalog fed the same writes, and a
  hypothesis property drives randomized write/read interleavings
  against a serial oracle;
* **isolation** — a query racing a write returns either the pre- or
  post-write answer, never a mixture, and the result cache never
  serves a pre-write answer after the write completes;
* **add_attribute is one transaction** — its existence check, its two
  sequence reads, the shred and the rows commit together, so a racing
  delete leaves no orphan rows and racing appenders never collide on a
  ``clob_seq`` (memory and sqlite file).
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SqliteHybridStore
from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op, PlanTrace
from repro.core.concurrency import RWLock
from repro.core.integrity import _rows, check_catalog
from repro.errors import CatalogError
from repro.grid import CF_STANDARD_NAMES, CorpusConfig, LeadCorpusGenerator, lead_schema

CONFIG = CorpusConfig(seed=1212, themes=2, keys_per_theme=3, dynamic_groups=2,
                      params_per_group=4, dynamic_depth=2)
GENERATOR = LeadCorpusGenerator(CONFIG)
DOCUMENTS = list(GENERATOR.documents(24))

BACKENDS = ("memory", "sqlite")


def build_catalog(backend, tmp_path=None):
    if backend == "sqlite":
        path = str(tmp_path / "concurrency.db") if tmp_path is not None else ":memory:"
        store = SqliteHybridStore(path)
    else:
        store = None
    catalog = HybridCatalog(lead_schema(), store=store)
    GENERATOR.register_definitions(catalog)
    return catalog


def theme_query(keyword):
    return ObjectQuery().add_attribute(
        AttributeCriteria("theme").add_element("themekey", "", keyword, Op.CONTAINS)
    )


QUERIES = [theme_query(kw) for kw in CF_STANDARD_NAMES[:4]]


@pytest.mark.parametrize("backend", BACKENDS)
def test_readers_survive_concurrent_writes(backend, tmp_path):
    """Reader threads never crash, never see an id they cannot fetch,
    and the catalog is fsck-clean after the stress run."""
    catalog = build_catalog(backend, tmp_path)
    catalog.ingest_many(DOCUMENTS[:8])
    errors = []
    stop = threading.Event()

    def reader(query):
        try:
            while not stop.is_set():
                ids = catalog.query(query)
                # query and fetch are separate read sections, so a
                # delete may land between them — fetch then skips the
                # removed id.  What must never happen: fetch raising,
                # or returning an object the query did not name.
                responses = catalog.fetch(ids)
                assert set(responses) <= set(ids)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=reader, args=(q,)) for q in QUERIES * 2]
    for t in threads:
        t.start()
    try:
        for doc in DOCUMENTS[8:20]:
            catalog.ingest(doc)
        for object_id in catalog.query(ObjectQuery().add_attribute(
                AttributeCriteria("theme")))[:4]:
            catalog.delete(object_id)
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert not errors, errors
    assert check_catalog(catalog, deep=True) == []


def test_looping_writer_does_not_starve_a_reader():
    """A writer that re-takes the lock as soon as it releases it must
    still let the reader queued at its release in first.  ``:memory:``
    sqlite shows it: reads share the writer connection under the lock,
    and a sqlite write gives up the GIL only while holding it."""
    catalog = build_catalog("sqlite")
    documents = DOCUMENTS[:8]
    stop = threading.Event()
    writes, errors = [], []

    def writer():
        try:
            while not stop.is_set():
                for doc in documents:
                    catalog.delete(catalog.ingest(doc).object_id)
                    writes.append(1)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    done, deadline = 0, time.monotonic() + 10.0
    try:
        while done < 20 and time.monotonic() < deadline:
            catalog.query(QUERIES[done % len(QUERIES)], trace=PlanTrace())
            done += 1
    finally:
        stop.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert not errors, errors
    assert writes, "the writer never ran"
    assert done >= 20, f"reader finished {done} queries in 10 s"


def test_rwlock_keeps_writers_exclusive_under_contention():
    """More threads than cores and a short switch interval: no write
    update is lost, and no reader sees a write land inside its read."""
    lock, guard = RWLock(), threading.Lock()
    state = {"count": 0, "readers": 0}
    errors = []
    rounds, writers, readers = 200, 3, 3

    def write():
        for _ in range(rounds):
            with lock.write_locked():
                value = state["count"]
                time.sleep(0)
                if state["readers"]:
                    errors.append("a reader inside a write")
                state["count"] = value + 1

    def read():
        for _ in range(rounds):
            with lock.read_locked():
                with guard:
                    state["readers"] += 1
                before = state["count"]
                time.sleep(0)
                if state["count"] != before:
                    errors.append("a write inside a read")
                with guard:
                    state["readers"] -= 1

    threads = [threading.Thread(target=write) for _ in range(writers)]
    threads += [threading.Thread(target=read) for _ in range(readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:3]
    assert state["count"] == rounds * writers


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_equals_serial_and_cache_equals_fresh(backend, tmp_path):
    """N threads querying concurrently agree with each other, with a
    fresh (cache-bypassing) execution, and with a single-threaded
    reference catalog fed the same documents."""
    catalog = build_catalog(backend, tmp_path)
    catalog.ingest_many(DOCUMENTS[:12])
    reference = build_catalog("memory")
    reference.ingest_many(DOCUMENTS[:12])

    for query in QUERIES:
        expected = reference.query(query)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda q: catalog.query(q), [query] * 8))
        for result in results:
            assert result == expected
        # An explicit trace bypasses the result cache: fresh execution
        # must agree with whatever the cache has been serving.
        assert catalog.query(query, trace=PlanTrace()) == expected
    assert catalog.result_cache.hits > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_write_invalidates_cached_results(backend, tmp_path):
    """After a write commits, no reader may ever get the pre-write
    answer again — on a hit or a miss."""
    catalog = build_catalog(backend, tmp_path)
    catalog.ingest_many(DOCUMENTS[:6])
    query = ObjectQuery().add_attribute(AttributeCriteria("theme"))
    before = catalog.query(query)
    assert catalog.query(query) == before  # primed: served from cache
    catalog.ingest(DOCUMENTS[6])
    after = catalog.query(query)
    assert after != before
    assert catalog.query(query) == after
    catalog.delete(after[0])
    assert after[0] not in catalog.query(query)


@pytest.mark.parametrize("backend", BACKENDS)
def test_query_racing_write_sees_before_or_after_never_between(backend, tmp_path):
    """A reader racing one ingest returns the pre-write or post-write
    id list, never a partial shred."""
    catalog = build_catalog(backend, tmp_path)
    catalog.ingest_many(DOCUMENTS[:6])
    query = ObjectQuery().add_attribute(AttributeCriteria("theme"))
    before = catalog.query(query, trace=PlanTrace())
    observed = []
    errors = []
    barrier = threading.Barrier(2)

    def reader():
        try:
            barrier.wait()
            for _ in range(50):
                observed.append(tuple(catalog.query(query)))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    thread = threading.Thread(target=reader)
    thread.start()
    barrier.wait()
    catalog.ingest(DOCUMENTS[6])
    thread.join()
    after = catalog.query(query, trace=PlanTrace())
    assert not errors, errors
    allowed = {tuple(before), tuple(after)}
    assert set(observed) <= allowed, set(observed) - allowed


@pytest.mark.parametrize("backend", BACKENDS)
def test_racing_deletes_of_one_object_succeed_exactly_once(backend, tmp_path):
    """N threads delete the same id at once: one wins, the rest get
    ``no object`` — the existence check runs inside the transaction, so
    a loser can no longer pass it, delete nothing, and be counted."""
    catalog = build_catalog(backend, tmp_path)
    victims = [r.object_id for r in catalog.ingest_many(DOCUMENTS[:10])]
    deletes = catalog.metrics.counter("catalog_deletes_total")
    counted_before = deletes.value
    threads = 8
    barrier = threading.Barrier(threads)
    outcomes = {victim: [] for victim in victims}

    def deleter():
        for victim in victims:
            barrier.wait(timeout=30)
            try:
                catalog.delete(victim)
            except CatalogError as exc:
                outcomes[victim].append(str(exc))
            else:
                outcomes[victim].append("deleted")

    workers = [threading.Thread(target=deleter) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for victim in victims:
        assert sorted(outcomes[victim]) == (
            ["deleted"] + [f"no object {victim}"] * (threads - 1)
        )
    assert deletes.value - counted_before == len(victims)
    assert catalog.store.object_count() == 0
    assert check_catalog(catalog) == []


# ----------------------------------------------------------------------
# add_attribute: reads + shred + rows are one transaction
# ----------------------------------------------------------------------

NEW_THEME = "<theme><themekt>CF</themekt><themekey>late_key</themekey></theme>"


def theme_clob_seqs(catalog, object_id):
    """Stored ``clob_seq`` values of the object's <theme> CLOBs, sorted."""
    order = catalog.schema.attribute_by_tag("theme").order
    return sorted(
        row[2]
        for row in _rows(catalog.store, "clobs")
        if row[0] == object_id and row[1] == order
    )


@pytest.mark.parametrize("kind", BACKENDS)
def test_delete_landing_inside_add_attribute_leaves_no_orphans(kind, tmp_path):
    """The deterministic interleaving: the object's rows are deleted
    after add_attribute's existence check and before its rows are
    written.  The append must fail as ``no object`` and commit nothing:
    the same-thread delete joins the transaction and is rolled back
    with it."""
    catalog = build_catalog(kind, tmp_path)
    victim = catalog.ingest(DOCUMENTS[0]).object_id
    keeper = catalog.ingest(DOCUMENTS[1]).object_id
    before = theme_clob_seqs(catalog, victim)
    real = catalog.store.instance_counts

    def delete_then_count(object_id):
        counts = real(object_id)
        catalog.store.instance_counts = real
        catalog.store.delete_object(object_id)
        return counts

    catalog.store.instance_counts = delete_then_count
    with pytest.raises(CatalogError, match=f"no object {victim}"):
        catalog.add_attribute(victim, NEW_THEME)
    assert check_catalog(catalog, deep=True) == []
    assert catalog.store.has_object(victim)
    assert theme_clob_seqs(catalog, victim) == before
    # The catalog still takes appends.
    catalog.add_attribute(keeper, NEW_THEME)
    assert check_catalog(catalog, deep=True) == []


@pytest.mark.parametrize("kind", BACKENDS)
def test_racing_add_attributes_take_contiguous_sequences(kind, tmp_path):
    """Two writers append themes to one object while a third thread
    deletes it at the end: every append that succeeded took the next
    ``clob_seq`` (no collision ever surfaces as a backend constraint
    error), the rest fail as ``no object``, and fsck stays clean."""
    catalog = build_catalog(kind, tmp_path)
    target = catalog.ingest(DOCUMENTS[0]).object_id
    start = theme_clob_seqs(catalog, target)
    assert start == list(range(1, len(start) + 1))
    rounds = 15
    barrier = threading.Barrier(2)
    errors = []
    appended = []

    def writer():
        barrier.wait(timeout=30)
        for _ in range(rounds):
            try:
                catalog.add_attribute(target, NEW_THEME)
            except CatalogError as exc:
                assert str(exc) == f"no object {target}"
            except BaseException as exc:  # a ConstraintError/IntegrityError
                errors.append(exc)
            else:
                appended.append(1)

    writers = [threading.Thread(target=writer) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in writers:
            worker.start()
        for worker in writers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in writers)
        assert not errors, errors
        assert len(appended) == 2 * rounds
        assert theme_clob_seqs(catalog, target) == list(
            range(1, len(start) + 2 * rounds + 1)
        )
        assert check_catalog(catalog, deep=True) == []
        # Now the same race with a deleter in it.
        appended.clear()
        barrier = threading.Barrier(3)

        def deleter():
            barrier.wait(timeout=30)
            catalog.delete(target)

        racers = [threading.Thread(target=writer) for _ in range(2)]
        racers.append(threading.Thread(target=deleter))
        for worker in racers:
            worker.start()
        for worker in racers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in racers)
    assert not errors, errors
    assert theme_clob_seqs(catalog, target) == []
    assert catalog.store.object_count() == 0
    assert check_catalog(catalog, deep=True) == []


# ----------------------------------------------------------------------
# Randomized interleavings vs a serial oracle
# ----------------------------------------------------------------------

operations = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.integers(min_value=0, max_value=23)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("query"), st.integers(min_value=0, max_value=3)),
    ),
    min_size=1, max_size=12,
)


@given(ops=operations)
@settings(max_examples=25, deadline=None)
def test_interleaved_reads_match_serial_oracle(ops):
    """Property: running the write script on one thread while readers
    continuously query yields final answers identical to replaying the
    same script serially — and the result cache never desynchronizes
    from the store."""
    catalog = build_catalog("memory")
    oracle = build_catalog("memory")
    for cat in (catalog, oracle):
        cat.ingest_many(DOCUMENTS[:4])
    stop = threading.Event()
    errors = []

    def reader():
        try:
            while not stop.is_set():
                for query in QUERIES:
                    catalog.fetch(catalog.query(query))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for op, arg in ops:
            if op == "ingest":
                catalog.ingest(DOCUMENTS[arg])
                oracle.ingest(DOCUMENTS[arg])
            elif op == "delete":
                present = oracle.query(
                    ObjectQuery().add_attribute(AttributeCriteria("theme")))
                if present:
                    victim = present[arg % len(present)]
                    catalog.delete(victim)
                    oracle.delete(victim)
            else:
                catalog.query(QUERIES[arg])
    finally:
        stop.set()
        thread.join()
    assert not errors, errors
    for query in QUERIES:
        serial = oracle.query(query)
        assert catalog.query(query) == serial            # cached path
        assert catalog.query(query, trace=PlanTrace()) == serial  # fresh
    assert check_catalog(catalog) == []
