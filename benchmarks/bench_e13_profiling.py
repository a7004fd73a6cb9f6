"""E13 — Profiling overhead: the observability layer must be ~free.

PR 6 threads instrumentation through every query stage (per-stage
clocks), the RWLock, the reader pool, and the catalog facade (audit
events, slow-query profiles).  The acceptance budget:

* **disabled** (no active profile, no event log bound) the cost is one
  ``ContextVar.get`` per query plus a ``None`` check per stage — ≤ 1 %
  of the E1-style ingest/query paths;
* **enabled** (``profile=True`` / events + slow threshold bound) the
  per-stage ``perf_counter`` pairs and the audit record must stay ≤ 5 %.

Measured on the E1 corpus as the median of interleaved paired ratios
(``_util.paired_ratio``): an ingest batch and a query batch under
fully-armed telemetry against baseline, timed back to back with the
side that runs first alternating, plus a microbench of the
disabled-path primitive itself.
"""

import tempfile
from pathlib import Path

import pytest

from repro.bench import ResultTable, measure, throughput
from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op
from repro.grid import LeadCorpusGenerator, lead_schema
from repro.obs import EventLog, MetricsRegistry
from repro.obs.profile import current_profile

from _util import emit, paired_ratio
from conftest import BASE_CONFIG

BATCH = 25
QUERY_REPS = 200

DOCUMENTS = list(LeadCorpusGenerator(BASE_CONFIG).documents(BATCH))

#: The enabled-path budget of the acceptance criteria (fraction).
ENABLED_BUDGET = 0.05
#: The disabled-path budget: the contextvar get per instrumentation
#: point, relative to the work it gates (fraction).
DISABLED_BUDGET = 0.01


def _fresh_catalog(events=None, slow_threshold=None):
    catalog = HybridCatalog(
        lead_schema(),
        metrics=MetricsRegistry(),
        events=events,
        slow_query_threshold=slow_threshold,
    )
    LeadCorpusGenerator(BASE_CONFIG).register_definitions(catalog)
    return catalog


def _query():
    return ObjectQuery().add_attribute(
        AttributeCriteria("theme").add_element(
            "themekey", "", "marker_sel_20", Op.EQ
        )
    )


def _ingest_batch(events=None, slow_threshold=None):
    catalog = _fresh_catalog(events=events, slow_threshold=slow_threshold)
    catalog.ingest_many(DOCUMENTS)
    return catalog


def _query_batch(catalog, profile):
    query = _query()
    for _ in range(QUERY_REPS):
        # A fresh trace bypasses the result cache so every rep
        # exercises the plan stages the profiler instruments.
        from repro.core import PlanTrace

        catalog.query(query, trace=PlanTrace(), profile=profile)


def test_e13_profiling_overhead(benchmark, tmp_path):
    def build_table():
        table = ResultTable(
            f"E13 - profiling overhead ({BATCH} docs ingest, "
            f"{QUERY_REPS} uncached queries)",
            ["path", "mode", "seconds", "overhead %"],
        )

        # -- ingest: baseline vs fully-armed telemetry ----------------
        sidecar = Path(tempfile.mkdtemp()) / "e13.events.jsonl"

        def armed_ingest():
            with EventLog(sidecar) as log:
                return _ingest_batch(events=log, slow_threshold=0.5)

        ratio, armed_ingest_s, base_ingest = paired_ratio(armed_ingest, _ingest_batch)
        ingest_overhead = max(0.0, ratio - 1.0)
        table.add_row("e1 ingest", "baseline", base_ingest, 0.0)
        table.add_row("e1 ingest", "events+slow-threshold",
                      armed_ingest_s, 100.0 * ingest_overhead)

        # -- query: baseline vs per-stage profiling -------------------
        catalog = _ingest_batch()
        ratio, profiled_query, base_query = paired_ratio(
            lambda: _query_batch(catalog, profile=True),
            lambda: _query_batch(catalog, profile=False),
        )
        query_overhead = max(0.0, ratio - 1.0)
        table.add_row("query", "baseline", base_query, 0.0)
        table.add_row("query", "profile=True",
                      profiled_query, 100.0 * query_overhead)

        # -- the disabled-path primitive ------------------------------
        # All the disabled path adds per query is one contextvar get
        # (plus a None check per stage); relate its cost to one
        # baseline query execution.
        reps = 10_000
        get_cost, _ = measure(
            lambda: [current_profile() for _ in range(reps)], repeat=3
        )
        per_get = get_cost / reps
        per_query = base_query / QUERY_REPS
        disabled_fraction = per_get / per_query
        table.add_row("query", "disabled (ContextVar.get)",
                      per_get, 100.0 * disabled_fraction)

        emit("e13_profiling", table)

        assert ingest_overhead <= ENABLED_BUDGET, (
            f"telemetry-armed ingest overhead {ingest_overhead:.2%} "
            f"exceeds the {ENABLED_BUDGET:.0%} budget"
        )
        assert query_overhead <= ENABLED_BUDGET, (
            f"profiled query overhead {query_overhead:.2%} "
            f"exceeds the {ENABLED_BUDGET:.0%} budget"
        )
        assert disabled_fraction <= DISABLED_BUDGET, (
            f"disabled-path cost {disabled_fraction:.2%} of a query "
            f"exceeds the {DISABLED_BUDGET:.0%} budget"
        )
        return table

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    assert len(table.rows) == 5


def test_e13_throughput_sanity(benchmark):
    """The armed catalog still ingests at the same order of magnitude
    (guards against an accidentally hot event path)."""

    def run():
        with EventLog() as log:  # memory-only: no disk in the loop
            catalog = _ingest_batch(events=log, slow_threshold=0.5)
        return catalog

    def check(catalog):
        assert len(catalog) == BATCH

    catalog = benchmark.pedantic(run, rounds=3, iterations=1)
    check(catalog)
    seconds, _ = measure(run, repeat=1)
    assert throughput(BATCH, seconds) > 1  # docs/second, sanity floor
