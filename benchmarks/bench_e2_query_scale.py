"""E2 — Attribute-query latency vs catalog size.

Paper claim (§4, §6): queries over metadata attributes hit the shredded
tables through indexes, so hybrid latency should stay near-flat as the
catalog grows; the CLOB-only scheme parses every stored document per
query (linear in corpus size), and the edge scheme pays per-level
navigation over an ever-larger edge table.  The crossover the paper
implies: CLOB-only is competitive at tiny catalogs and loses badly at
scale.

Best-of-3 repeats the same mix, so the ``hybrid`` column is served by
the catalog's result cache after the first pass; ``hybrid_cold`` runs
every plan (an explicit trace bypasses the cache): index seeks, count
matching and intersection on each query.
"""

import pytest

from repro.bench import ResultTable, build_schemes, measure
from repro.core import PlanTrace
from repro.grid import WorkloadGenerator

from _util import emit
from conftest import BASE_CONFIG

SIZES = [50, 150, 450]
N_QUERIES = 10

WORKLOAD = WorkloadGenerator(BASE_CONFIG).mixed(N_QUERIES)


@pytest.mark.parametrize("scheme_name", ["hybrid", "inlining", "edge", "clob"])
def test_query_mixed_mid_corpus(benchmark, loaded_schemes, scheme_name):
    scheme = loaded_schemes[scheme_name]

    def run():
        for query in WORKLOAD:
            scheme.query(query)

    benchmark(run)


def test_e2_summary_table(benchmark):
    def build_table():
        table = ResultTable(
            f"E2 - query latency vs catalog size (ms per {N_QUERIES}-query mix)",
            ["documents", "hybrid", "hybrid_cold", "inlining", "edge", "clob"],
        )
        for size in SIZES:
            schemes = build_schemes(BASE_CONFIG, size)
            row = [size]
            for name in ("hybrid", "hybrid_cold", "inlining", "edge", "clob"):
                if name == "hybrid_cold":
                    catalog = schemes["hybrid"].catalog

                    def run(c=catalog):
                        for query in WORKLOAD:
                            c.query(query, trace=PlanTrace())
                else:
                    def run(s=schemes[name]):
                        for query in WORKLOAD:
                            s.query(query)

                seconds, _ = measure(run, repeat=3)
                row.append(seconds * 1000.0)
            table.add_row(*row)
        emit("e2_query_scale", table)
        return table

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    # Shape check: CLOB-scan latency must grow roughly linearly with
    # corpus size while hybrid grows far slower.
    clob = table.column_values("clob")
    hybrid = table.column_values("hybrid")
    assert clob[-1] / clob[0] > 3.0
    assert hybrid[-1] < clob[-1]
