"""E14 — Sharded store: cold query cost by shard count, N=1 overhead.

Extension experiment (not in the paper), continuing E12: partition one
catalog across N sqlite WAL databases.  A federated query runs its plan
once, through the one interpreter every store uses: the read section
enters every shard in turn, in the calling thread, and each keyed read
concatenates the shards' rows (an object's rows never cross shards).
No legs run concurrently and there is no executor hop, so sharding
buys placement and autonomy (as in AMGA), not speed.  Two tables:

* **scaling** — single-stream cold-path (result cache bypassed) QPS as
  the shard count grows over a fixed corpus; the speedup column is N
  shards against one, where every keyed read becomes N index searches
  on N reader connections;
* **N=1 overhead** — the same ``HybridCatalog`` over a one-shard
  ``ShardedStore`` against one over the sqlite store directly: what is
  measured is a routing-map lookup per write, and per read one more
  context manager and one list copy.  The gate reads the median of
  interleaved paired ratios (``_util.paired_ratio``), the side that
  runs first alternating.

The serial design gives up the ≥ 1.5× four-shard speedup that
concurrent legs were once required to reach on ≥ 4 cores.  The scaling
assertion is a no-collapse bound set below the recorded four-shard
ratios, the same on every host.
"""

import os
import tempfile

from repro.bench import ResultTable, measure, throughput
from repro.core import HybridCatalog, PlanTrace
from repro.grid import LeadCorpusGenerator, WorkloadGenerator, lead_schema
from repro.sharding import sharded_store

from _util import emit, paired_ratio
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
            f"E14 - shard scaling, cold single stream "
            f"(sqlite, {CORPUS} docs)",
            ["shards", "ms/query", "QPS", "speedup"],
        )
        for catalog in catalogs.values():
            cold_pass(catalog)  # warm sqlite page caches
        # Passes interleave across shard counts, so a slow spell of the
        # host lands on every count alike; each count keeps its best.
        best = dict.fromkeys(SHARD_COUNTS, float("inf"))
        for _ in range(PASSES):
            for shards in SHARD_COUNTS:
                seconds, _ = measure(lambda: cold_pass(catalogs[shards]), repeat=1)
                best[shards] = min(best[shards], seconds)
        qps_by_shards = {
            shards: throughput(len(WORKLOAD), seconds)
            for shards, seconds in best.items()
        }
        for shards, qps in qps_by_shards.items():
            table.add_row(
                shards,
                1000 * best[shards] / len(WORKLOAD),
                qps,
                f"{qps / qps_by_shards[1]:.2f}x",
            )
        emit("e14_sharding", table)
        return table, qps_by_shards

    table, qps = benchmark.pedantic(build_table, rounds=1, iterations=1)
    assert len(table.rows) == len(SHARD_COUNTS)
    # Every keyed read asks all four shards in turn.  Recorded 4-shard /
    # 1-shard ratios on a 2-core host (8 runs): 0.69, 0.84, 0.85, 0.85,
    # 0.85, 0.86, 0.87, 0.88; since text seeks read by value, a pass
    # costs half and the per-shard cost weighs more: 22 runs read
    # 0.66-0.96 (median 0.74).  Concurrent legs on a thread pool
    # measured 0.31-0.55 under the first harness.  The bound sits below
    # the smallest recorded ratio.
    assert qps[4] >= 0.6 * qps[1], qps
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
        ratio, sharded_s, plain_s = paired_ratio(
            lambda: cold_pass(sharded), lambda: cold_pass(plain))
        table.add_row("plain HybridCatalog", 1000 * plain_s, "1.00x")
        table.add_row("over ShardedStore(1 shard)", 1000 * sharded_s, f"{ratio:.2f}x")
        emit("e14_sharding", table)
        return ratio

    ratio = benchmark.pedantic(build_table, rounds=1, iterations=1)
    # The acceptance bound: the one-shard federation may cost at most
    # 5% over the plain store (median paired ratio).
    assert ratio <= 1.05, ratio
    plain.store.close()
    sharded.store.close()
