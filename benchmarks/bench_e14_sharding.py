"""E14 — Sharded store: scatter-gather scaling and N=1 overhead.

Extension experiment (not in the paper), continuing E12: partition one
catalog across N sqlite WAL databases and federate queries by
scatter-gather.  Each shard holds ~1/N of the corpus, every federated
query runs its unchanged logical plan on all shards concurrently, and
the per-shard id lists k-way merge into the global answer.  Two tables:

* **scaling** — single-stream cold-path (result cache bypassed) QPS as
  the shard count grows over a fixed corpus; the speedup column is the
  federation's win from scanning 1/N of the rows per leg in parallel;
* **N=1 overhead** — the same ``HybridCatalog`` over a one-shard
  ``ShardedStore`` against one over the sqlite store directly: with
  nothing to federate the sharded store hands the plan and profile
  straight to its one shard (no executor hop, no rebind, no summing),
  so what is measured is a routing-map lookup per write and one
  delegating call per read.

Interpretation is machine-dependent like E12: legs only overlap with
real cores available, so on a single-core host the scaling assertion
degrades to a no-collapse bound while the overhead bound still holds.
"""

import os
import tempfile

from repro.bench import ResultTable, measure, throughput
from repro.core import HybridCatalog, PlanTrace
from repro.grid import LeadCorpusGenerator, WorkloadGenerator, lead_schema
from repro.sharding import sharded_store

from _util import emit
from conftest import BASE_CONFIG

CORPUS = 1000
SHARD_COUNTS = [1, 2, 4]
PASSES = 6  # cold single-stream passes over the workload mix per timing

DOCUMENTS = list(LeadCorpusGenerator(BASE_CONFIG).documents(CORPUS))
WORKLOAD = WorkloadGenerator(BASE_CONFIG).mixed(8)


def build_sharded(shards: int) -> HybridCatalog:
    base = os.path.join(tempfile.mkdtemp(prefix="repro-e14-"), "e14.db")
    catalog = HybridCatalog(lead_schema(), store=sharded_store(shards, path=base))
    LeadCorpusGenerator(BASE_CONFIG).register_definitions(catalog)
    catalog.ingest_many(DOCUMENTS)
    return catalog


def build_plain() -> HybridCatalog:
    from repro.backends import SqliteHybridStore

    path = os.path.join(tempfile.mkdtemp(prefix="repro-e14-"), "plain.db")
    catalog = HybridCatalog(lead_schema(), store=SqliteHybridStore(path))
    LeadCorpusGenerator(BASE_CONFIG).register_definitions(catalog)
    catalog.ingest_many(DOCUMENTS)
    return catalog


def cold_pass(catalog) -> int:
    """One single-stream pass over the workload mix with the result
    cache bypassed (a trace forces fresh execution on every shard)."""
    answered = 0
    for query in WORKLOAD:
        catalog.query(query, trace=PlanTrace())
        answered += 1
    return answered


def test_e14_shard_scaling(benchmark):
    catalogs = {shards: build_sharded(shards) for shards in SHARD_COUNTS}

    def build_table():
        table = ResultTable(
            f"E14 - scatter-gather scaling, cold single stream "
            f"(sqlite, {CORPUS} docs)",
            ["shards", "ms/query", "QPS", "speedup"],
        )
        baseline = None
        qps_by_shards = {}
        for shards in SHARD_COUNTS:
            catalog = catalogs[shards]
            cold_pass(catalog)  # warm sqlite page caches + plan cache
            seconds, _ = measure(lambda: cold_pass(catalog), repeat=PASSES)
            qps = throughput(len(WORKLOAD), seconds)
            qps_by_shards[shards] = qps
            if baseline is None:
                baseline = qps
            table.add_row(
                shards,
                1000 * seconds / len(WORKLOAD),
                qps,
                f"{qps / baseline:.2f}x",
            )
        emit("e14_sharding", table)
        return table, qps_by_shards

    table, qps = benchmark.pedantic(build_table, rounds=1, iterations=1)
    assert len(table.rows) == len(SHARD_COUNTS)
    if (os.cpu_count() or 1) >= 4:
        # Four quarter-size legs running concurrently must beat one
        # full-size scan by a real margin.
        assert qps[4] >= 1.5 * qps[1], qps
    else:
        # Single-core hosts cannot overlap legs; bound the fan-out tax
        # so an executor-contention regression still fails the bench
        # (four serialized quarter-size legs land near parity here).
        assert qps[4] >= 0.45 * qps[1], qps
    for catalog in catalogs.values():
        catalog.store.close()


def test_e14_single_shard_wrapper_overhead(benchmark):
    plain = build_plain()
    sharded = build_sharded(1)

    def build_table():
        table = ResultTable(
            "E14 - N=1 federation overhead vs plain catalog (cold; ms)",
            ["catalog", "ms/pass", "relative"],
        )
        cold_pass(plain)  # warm both before either timing runs
        cold_pass(sharded)
        plain_s, _ = measure(lambda: cold_pass(plain), repeat=PASSES)
        sharded_s, _ = measure(lambda: cold_pass(sharded), repeat=PASSES)
        table.add_row("plain HybridCatalog", 1000 * plain_s, "1.00x")
        table.add_row("over ShardedStore(1 shard)", 1000 * sharded_s,
                      f"{sharded_s / plain_s:.2f}x")
        emit("e14_sharding", table)
        return plain_s, sharded_s

    plain_s, sharded_s = benchmark.pedantic(build_table, rounds=1, iterations=1)
    # The acceptance bound: the one-shard federation may cost at most
    # 5% over the plain store (inline delegation, no executor).
    assert sharded_s <= 1.05 * plain_s, (sharded_s, plain_s)
    plain.store.close()
    sharded.store.close()
