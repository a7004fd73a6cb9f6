"""E4 — Response construction time vs result-set size.

Paper claim (§5): responses are assembled by set-based operations over
the CLOB keys, the ancestor inverted list and the global-ordering table
— "no final tagging is needed at the server" — and the CLOBs themselves
are not touched until the final join.  The hybrid column measures the
one tagger every store shares (``core/response.py``) over the CLOB rows
the memory store reads by primary key.  Comparators: the inlining scheme
must re-join its tables and rebuild each tree through an external
tagger; the edge scheme rebuilds node-by-node; CLOB passthrough is the
lower bound (returns stored text directly).
"""

import pytest

from repro.bench import ResultTable, measure

from _util import emit
from conftest import MID_CORPUS

RESULT_SIZES = [1, 10, 50, 150]


@pytest.mark.parametrize("scheme_name", ["hybrid", "inlining", "edge", "clob"])
def test_fetch_fifty(benchmark, loaded_schemes, scheme_name):
    scheme = loaded_schemes[scheme_name]
    ids = list(range(1, 51))
    benchmark(lambda: scheme.fetch(ids))


def test_e4_summary_table(benchmark, loaded_schemes):
    def build_table():
        table = ResultTable(
            "E4 - response construction (ms per result set)",
            ["objects", "hybrid", "inlining", "edge", "clob"],
        )
        for size in RESULT_SIZES:
            ids = list(range(1, min(size, MID_CORPUS) + 1))
            row = [len(ids)]
            for name in ("hybrid", "inlining", "edge", "clob"):
                scheme = loaded_schemes[name]
                seconds, _ = measure(lambda s=scheme: s.fetch(ids), repeat=3)
                row.append(seconds * 1000.0)
            table.add_row(*row)
        emit("e4_response", table)
        return table

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    # Shape: hybrid rebuilds faster than the tree-rebuilding schemes at
    # every size; CLOB passthrough is the floor.
    last = table.rows[-1]
    _objects, hybrid, inlining, edge, clob = last
    assert hybrid < edge
    assert clob <= hybrid
