"""E15 — Columnar batch execution, one interpreter on both stores.

Extension experiment (not in the paper): the relational engine stores
tables as parallel value columns with a validity bitmap, and the plan
interpreter (``repro.core.planner``) runs set kernels over whole id
columns and merges sorted id vectors instead of per-row tuple loops.
It is the only plan executor: the memory store feeds it from its hash
and posting indexes, sqlite from one keyed ``SELECT`` per seek,
existence-only criterion and containment edge.

Two tables:

* **cold match latency** — pre-built plans executed from scratch
  (result cache bypassed) at E2 corpus scales on the memory store and
  on sqlite: the same plans through the same interpreter, with
  identical ids asserted, so the gap between the two columns is what
  the row source costs.
* **delete by index** — one object's rows found through each table's
  ``object_id`` hash index, tombstoned with ``delete_rowids`` and rolled
  back, per corpus size: the engine's share of ``delete_object``
  (recorded, not asserted).

Assertion: both stores return identical ids for every plan.
"""

import pytest

from repro.backends import SqliteHybridStore
from repro.bench import ResultTable, measure
from repro.core import HybridCatalog, shred_query
from repro.faults.sites import OBJECT_ROW_TABLES
from repro.grid import LeadCorpusGenerator, WorkloadGenerator, lead_schema

from _util import emit
from conftest import BASE_CONFIG

SIZES = [150, 450]
N_QUERIES = 10

DOCUMENTS = list(LeadCorpusGenerator(BASE_CONFIG).documents(max(SIZES)))
WORKLOAD = WorkloadGenerator(BASE_CONFIG).mixed(N_QUERIES)


def build_catalog(size, store=None):
    catalog = HybridCatalog(lead_schema(), store=store)
    LeadCorpusGenerator(BASE_CONFIG).register_definitions(catalog)
    catalog.ingest_many(DOCUMENTS[:size])
    return catalog


def built_plans(catalog):
    """The workload's logical plans, built once so neither store pays
    planning cost inside the timed region.  Both catalogs register the
    same definitions in the same order, so the plans run on either."""
    plans = []
    for query in WORKLOAD:
        shredded = shred_query(query, catalog.registry)
        plans.append(catalog.plan_for(shredded))
    return plans


def test_e15_cold_match_latency(benchmark):
    def build_table():
        table = ResultTable(
            f"E15 - cold match latency (ms per {N_QUERIES}-query mix)",
            ["documents", "memory", "sqlite", "sqlite_over_memory"],
        )
        for size in SIZES:
            catalog = build_catalog(size)
            plans = built_plans(catalog)
            memory = catalog.store
            sqlite = build_catalog(size, SqliteHybridStore()).store
            assert [memory.match_objects(p) for p in plans] == [
                sqlite.match_objects(p) for p in plans
            ]
            memory_s, _ = measure(
                lambda: [memory.match_objects(p) for p in plans], repeat=3
            )
            sqlite_s, _ = measure(
                lambda: [sqlite.match_objects(p) for p in plans], repeat=3
            )
            table.add_row(
                size, memory_s * 1000.0, sqlite_s * 1000.0, sqlite_s / memory_s
            )
        emit("e15_columnar", table)
        return table

    benchmark.pedantic(build_table, rounds=1, iterations=1)


def test_e15_delete_one_object_by_index(benchmark):
    def build_table():
        table = ResultTable(
            "E15 - delete one object's rows by index, rolled back (ms)",
            ["documents", "object_rows", "delete_rollback"],
        )
        for size in SIZES:
            db = build_catalog(size).store.db
            tables = [db.table(name) for name in OBJECT_ROW_TABLES]
            victim = [size // 2]
            object_rows = sum(
                len(t.lookup_rowids(["object_id"], victim)) for t in tables
            )

            def delete_rollback():
                db.begin()
                for t in tables:
                    t.delete_rowids(t.lookup_rowids(["object_id"], victim))
                db.rollback()

            delete_s, _ = measure(delete_rollback, repeat=3)
            table.add_row(size, object_rows, delete_s * 1000.0)
        emit("e15_columnar", table)
        return table

    benchmark.pedantic(build_table, rounds=1, iterations=1)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_e15_interpreter_microbench(benchmark, backend):
    plans = built_plans(build_catalog(SIZES[0]))
    store = build_catalog(
        SIZES[0], SqliteHybridStore() if backend == "sqlite" else None
    ).store

    def run():
        for plan in plans:
            store.match_objects(plan)

    benchmark(run)
