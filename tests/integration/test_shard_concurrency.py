"""Concurrent federation: readers scatter-gather while a writer
mutates one shard.

Extends the PR 5 concurrency contract to the sharded path:

* **stress** — reader threads run federated queries + fetches while
  the main thread ingests and deletes (each write touching exactly
  one shard); readers never crash, never see an id they cannot fetch,
  and the federation passes fsck afterwards;
* **equivalence** — randomized interleavings of writes and federated
  reads end in exactly the state a serial unsharded oracle reaches.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op, PlanTrace
from repro.grid import CF_STANDARD_NAMES, CorpusConfig, LeadCorpusGenerator, lead_schema
from repro.obs import MetricsRegistry
from repro.sharding import check_sharded_catalog, sharded_store

CONFIG = CorpusConfig(seed=7272, themes=2, keys_per_theme=3, dynamic_groups=2,
                      params_per_group=4, dynamic_depth=2)
GENERATOR = LeadCorpusGenerator(CONFIG)
DOCUMENTS = list(GENERATOR.documents(30))
SHARDS = 3


def build_sharded(ingest=0):
    catalog = HybridCatalog(
        lead_schema(), store=sharded_store(SHARDS), metrics=MetricsRegistry()
    )
    GENERATOR.register_definitions(catalog)
    catalog.ingest_many(DOCUMENTS[:ingest])
    return catalog


def build_oracle(ingest=0):
    catalog = HybridCatalog(lead_schema(), metrics=MetricsRegistry())
    GENERATOR.register_definitions(catalog)
    catalog.ingest_many(DOCUMENTS[:ingest])
    return catalog


def theme_query(keyword):
    return ObjectQuery().add_attribute(
        AttributeCriteria("theme").add_element("themekey", "", keyword, Op.CONTAINS)
    )


QUERIES = [theme_query(kw) for kw in CF_STANDARD_NAMES[:4]]
ALL_THEMES = ObjectQuery().add_attribute(AttributeCriteria("theme"))


def test_readers_survive_writes_to_one_shard():
    """Federated readers race ingests and deletes; no reader crashes,
    no torn row set, fsck-clean afterwards."""
    catalog = build_sharded(ingest=9)
    errors = []
    stop = threading.Event()

    def reader(query):
        try:
            while not stop.is_set():
                ids = catalog.query(query)
                responses = catalog.fetch(ids)
                assert set(responses) <= set(ids)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=reader, args=(q,)) for q in QUERIES * 2]
    for t in threads:
        t.start()
    try:
        for doc in DOCUMENTS[9:21]:
            catalog.ingest(doc)
        for object_id in catalog.query(ALL_THEMES)[:4]:
            catalog.delete(object_id)
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert not errors, errors
    assert check_sharded_catalog(catalog, deep=True) == []


def test_concurrent_writers_keep_the_routing_map_and_counters_exact():
    """Writers racing on different objects (more threads than cores,
    a short switch interval): the routing map and the per-shard
    counters behind the ``shard_objects`` gauge lose no update."""
    import sys

    catalog = build_sharded()
    errors = []

    def writer(slot):
        try:
            for doc in DOCUMENTS[slot::6]:
                receipt = catalog.ingest(doc)
                if receipt.object_id % 3 == 0:
                    catalog.delete(receipt.object_id)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    store = catalog.store
    assert store._counts == [s.object_count() for s in store.stores]
    assert len(store._locations) == len(catalog) == 20
    assert check_sharded_catalog(catalog, deep=True) == []


def test_concurrent_federated_reads_equal_serial_oracle():
    catalog = build_sharded(ingest=12)
    oracle = build_oracle(ingest=12)
    for query in QUERIES:
        expected = oracle.query(query)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda q: catalog.query(q), [query] * 8))
        assert all(result == expected for result in results)
        assert catalog.query(query, trace=PlanTrace()) == expected


operations = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.integers(min_value=0, max_value=29)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("query"), st.integers(min_value=0, max_value=3)),
    ),
    min_size=1, max_size=10,
)


@given(ops=operations)
@settings(max_examples=15, deadline=None)
def test_interleaved_federated_reads_match_serial_oracle(ops):
    """Property: a write script applied to the federation while
    readers continuously scatter-gather ends in the same observable
    state as replaying it serially on one unsharded catalog."""
    catalog = build_sharded(ingest=4)
    oracle = build_oracle(ingest=4)
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
                present = oracle.query(ALL_THEMES)
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
        assert catalog.query(query) == serial
        assert catalog.query(query, trace=PlanTrace()) == serial
    assert check_sharded_catalog(catalog) == []


def test_closing_mid_read_storm_raises_cleanly():
    """Closing the federation while readers are in flight: every
    reader either completes its query or gets CatalogClosedError —
    never a partial result or a backend-level crash."""
    from repro.errors import CatalogClosedError

    catalog = build_sharded(ingest=9)
    barrier = threading.Barrier(5)
    outcomes = []

    def reader():
        barrier.wait()
        try:
            for _ in range(200):
                ids = catalog.query(QUERIES[0], trace=PlanTrace())
                outcomes.append(("ok", tuple(ids)))
        except CatalogClosedError:
            outcomes.append(("closed", None))
        except Exception as exc:  # pragma: no cover - failure path
            outcomes.append(("error", exc))

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    barrier.wait()
    catalog.store.close()
    for t in threads:
        t.join()
    assert all(kind in ("ok", "closed") for kind, _payload in outcomes), outcomes
    answers = {payload for kind, payload in outcomes if kind == "ok"}
    assert len(answers) <= 1  # every successful read saw the same ids
