"""E9 — Backend cross-check: from-scratch engine vs stdlib sqlite.

Both backends hold the identical hybrid layout and run the same Fig-4
plan stages; this experiment measures ingest, query, response and
delete times on each, and the first query after a delete (a result-
cache miss over statistics the delete kept exact).  The point is not
which is faster — it is that the *relative* behaviour of the hybrid
scheme (flat query latency, cheap responses) holds on a real RDBMS, so
E2/E3/E4's shapes are not artifacts of the in-memory engine.
"""

import time

import pytest

from repro.backends import SqliteHybridStore
from repro.core import HybridCatalog
from repro.bench import ResultTable, measure
from repro.grid import LeadCorpusGenerator, WorkloadGenerator, lead_schema

from _util import emit
from conftest import BASE_CONFIG

CORPUS = 100
N_QUERIES = 10

DOCUMENTS = list(LeadCorpusGenerator(BASE_CONFIG).documents(CORPUS))
WORKLOAD = WorkloadGenerator(BASE_CONFIG).mixed(N_QUERIES)


def build_catalog(backend: str) -> HybridCatalog:
    store = SqliteHybridStore() if backend == "sqlite" else None
    catalog = HybridCatalog(lead_schema(), store=store)
    LeadCorpusGenerator(BASE_CONFIG).register_definitions(catalog)
    return catalog


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_query_mix(benchmark, backend):
    catalog = build_catalog(backend)
    catalog.ingest_many(DOCUMENTS)

    def run():
        for query in WORKLOAD:
            catalog.query(query)

    benchmark(run)


def test_e9_summary_table(benchmark):
    def build_table():
        table = ResultTable(
            f"E9 - backend comparison ({CORPUS} docs; ms)",
            ["backend", "ingest-batch", "query-mix", "fetch-25", "delete",
             "query-after-delete"],
        )
        results = {}
        for backend in ("memory", "sqlite"):
            catalog = build_catalog(backend)
            ingest_s, _ = measure(lambda c=catalog: c.ingest_many(DOCUMENTS), repeat=1)
            query_s, _ = measure(
                lambda c=catalog: [c.query(q) for q in WORKLOAD], repeat=3
            )
            fetch_ids = list(range(1, 26))
            fetch_s, _ = measure(lambda c=catalog: c.fetch(fetch_ids), repeat=3)
            victims = iter(range(CORPUS, 0, -1))
            delete_s, _ = measure(lambda c=catalog: c.delete(next(victims)), repeat=10)

            def query_after_delete(c=catalog):
                c.delete(next(victims))
                start = time.perf_counter()
                c.query(WORKLOAD[0])
                return time.perf_counter() - start

            after_s = min(query_after_delete() for _ in range(5))
            results[backend] = catalog
            table.add_row(backend, ingest_s * 1000, query_s * 1000, fetch_s * 1000,
                          delete_s * 1000, after_s * 1000)
        # Cross-check correctness while we have both loaded.
        for query in WORKLOAD:
            assert results["memory"].query(query) == results["sqlite"].query(query)
        emit("e9_backends", table)
        return table

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    assert len(table.rows) == 2
