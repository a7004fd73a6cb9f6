"""E8 — Query selectivity sweep.

The planted markers give queries with exact selectivities (1%..50%).
Paper context (§4): the count-matching plan touches match rows, so its
cost should track the number of matching rows; the CLOB scan parses the
whole corpus regardless of selectivity.  Expected shape: hybrid latency
grows gently with selectivity, CLOB latency is flat and high.
"""

import pytest

from repro.bench import ResultTable, measure
from repro.grid import WorkloadGenerator

from _util import emit
from conftest import BASE_CONFIG, MID_CORPUS

WORKLOAD = WorkloadGenerator(BASE_CONFIG)


@pytest.mark.parametrize("marker_index", range(4), ids=["1pct", "5pct", "20pct", "50pct"])
def test_marker_query_hybrid(benchmark, loaded_schemes, marker_index):
    marker = BASE_CONFIG.planted[marker_index]
    query = WORKLOAD.marker_query(marker)
    scheme = loaded_schemes["hybrid"]
    benchmark(lambda: scheme.query(query))


def test_e8_summary_table(benchmark, loaded_schemes):
    def build_table():
        table = ResultTable(
            f"E8 - selectivity sweep ({MID_CORPUS} docs, ms per query)",
            ["selectivity", "matches", "hybrid", "clob"],
        )
        for marker in BASE_CONFIG.planted:
            query = WORKLOAD.marker_query(marker)
            matches = len(loaded_schemes["hybrid"].query(query))
            row = [f"{marker.selectivity:.0%}", matches]
            for name in ("hybrid", "clob"):
                scheme = loaded_schemes[name]
                seconds, _ = measure(lambda s=scheme: s.query(query), repeat=3)
                row.append(seconds * 1000.0)
            table.add_row(*row)
        emit("e8_selectivity", table)
        return table

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    # Hybrid beats the scan at every selectivity; the scan's cost is
    # roughly flat across selectivities (it always parses everything).
    hybrid = table.column_values("hybrid")
    clob = table.column_values("clob")
    assert all(h < c for h, c in zip(hybrid, clob))
    assert max(clob) < 3 * min(clob)


def test_e8_plan_ordering_sweep(benchmark, loaded_schemes):
    """Each marker AND the rare 1% marker, in both query orders.  Seeks
    run in shredding order, so with the rare marker second the common
    marker's seek reads its rows before the rare one's; the
    intersection merges the rarer top first either way.  Both columns
    time one plan built and run per query
    (``store.match_objects(catalog.plan_for(shredded))``), so no result
    cache is involved (``BENCH_e8_plan.json``)."""
    from repro.core import AttributeCriteria, ObjectQuery

    catalog = loaded_schemes["hybrid"].catalog
    rare = BASE_CONFIG.planted[0]

    def shredded(marker, rare_first):
        keys = (rare, marker) if rare_first else (marker, rare)
        query = ObjectQuery()
        for key in keys:
            query.add_attribute(
                AttributeCriteria("theme").add_element("themekey", "", key.keyword)
            )
        return catalog.shred_query(query)

    def run(query):
        return catalog.store.match_objects(catalog.plan_for(query))

    def build_table():
        table = ResultTable(
            f"E8 - plan ordering sweep ({MID_CORPUS} docs, ms per query)",
            ["selectivity", "matches", "rare_first", "rare_second"],
        )
        for marker in BASE_CONFIG.planted[1:]:
            orders = [shredded(marker, rare_first) for rare_first in (True, False)]
            first_ids, second_ids = (run(query) for query in orders)
            assert first_ids == second_ids
            row = [f"{marker.selectivity:.0%}", len(first_ids)]
            for query in orders:
                seconds, _ = measure(lambda q=query: run(q), repeat=3)
                row.append(seconds * 1000.0)
            table.add_row(*row)
        emit("e8_plan", table)
        return table

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    # Both orders returned the same ids (asserted per marker above) and
    # both ran.
    assert all(v > 0 for v in table.column_values("rare_first"))
    assert all(v > 0 for v in table.column_values("rare_second"))


def test_e8_conjunctive_selectivity(benchmark, loaded_schemes):
    """AND of a selective and an unselective marker: the plan's final
    intersection keeps the result at the rarer marker's cardinality."""

    def run():
        from repro.core import AttributeCriteria, ObjectQuery

        rare, common = BASE_CONFIG.planted[0], BASE_CONFIG.planted[3]
        query = ObjectQuery()
        query.add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", rare.keyword)
        )
        query.add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", common.keyword)
        )
        return loaded_schemes["hybrid"].query(query)

    ids = benchmark(run)
    rare = BASE_CONFIG.planted[0]
    expected = [i + 1 for i in range(MID_CORPUS) if rare.applies_to(i) and BASE_CONFIG.planted[3].applies_to(i)]
    assert ids == expected
