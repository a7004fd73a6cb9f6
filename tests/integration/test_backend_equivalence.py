"""Integration: the memory and sqlite hybrid stores agree exactly."""

import pytest

from repro.backends import SqliteHybridStore
from repro.core import HybridCatalog, PlanTrace
from repro.grid import LeadCorpusGenerator, WorkloadGenerator, lead_schema
from repro.obs import MetricsRegistry
from repro.xmlkit import canonical, parse


@pytest.fixture(scope="module")
def catalogs(corpus_config, corpus_docs):
    memory = HybridCatalog(lead_schema())
    LeadCorpusGenerator(corpus_config).register_definitions(memory)
    memory.ingest_many(corpus_docs)
    sqlite = HybridCatalog(lead_schema(), store=SqliteHybridStore())
    LeadCorpusGenerator(corpus_config).register_definitions(sqlite)
    sqlite.ingest_many(corpus_docs)
    return memory, sqlite


class TestQueryEquivalence:
    def test_mixed_workload(self, catalogs, corpus_config):
        memory, sqlite = catalogs
        for i, query in enumerate(WorkloadGenerator(corpus_config).mixed(30)):
            assert memory.query(query) == sqlite.query(query), f"query {i}"

    def test_markers(self, catalogs, corpus_config):
        memory, sqlite = catalogs
        workload = WorkloadGenerator(corpus_config)
        for marker in corpus_config.planted:
            query = workload.marker_query(marker)
            assert memory.query(query) == sqlite.query(query)

    def test_traces_have_same_stage_structure(self, corpus_config, corpus_docs):
        """Name, row count and note of every Fig-4 stage agree, query by
        query, and so do the ``planner_stage_rows`` histograms the two
        catalogs accumulate (own registries: nothing else feeds them)."""
        catalogs = []
        for store in (None, SqliteHybridStore()):
            catalog = HybridCatalog(
                lead_schema(), store=store, metrics=MetricsRegistry()
            )
            LeadCorpusGenerator(corpus_config).register_definitions(catalog)
            catalog.ingest_many(corpus_docs)
            catalogs.append(catalog)
        memory, sqlite = catalogs
        workload = WorkloadGenerator(corpus_config)
        queries = workload.mixed(30)
        queries.append(workload.nested_query(1, depth=2))
        queries += [workload.marker_query(m) for m in corpus_config.planted]
        for i, query in enumerate(queries):
            mtrace, strace = PlanTrace(), PlanTrace()
            memory.query(query, trace=mtrace)
            sqlite.query(query, trace=strace)
            assert mtrace.as_dict() == strace.as_dict(), f"query {i}"

        def stage_row_sums(catalog):
            family = catalog.metrics.get("planner_stage_rows")
            return {
                labels["stage"]: (hist.count, hist.sum)
                for labels, hist in family.series()
            }

        sums = stage_row_sums(memory)
        assert sums == stage_row_sums(sqlite)
        assert sums["attributes-indirect"][1] > 0
        assert sums["object-ids"][0] == len(queries)


class TestResponseEquivalence:
    def test_responses_canonically_identical(self, catalogs, corpus_docs):
        memory, sqlite = catalogs
        ids = list(range(1, len(corpus_docs) + 1))
        mem_responses = memory.fetch(ids)
        sql_responses = sqlite.fetch(ids)
        for oid in ids:
            assert canonical(parse(mem_responses[oid])) == canonical(
                parse(sql_responses[oid])
            ), f"object {oid}"

    def test_responses_match_originals(self, catalogs, corpus_docs):
        _memory, sqlite = catalogs
        responses = sqlite.fetch([3, 11, 19])
        for oid in (3, 11, 19):
            assert canonical(parse(responses[oid])) == canonical(
                parse(corpus_docs[oid - 1])
            )


class TestStorageEquivalence:
    def test_same_logical_row_counts(self, catalogs):
        memory, sqlite = catalogs
        mem = {n: r for n, r, _b in memory.storage_report()}
        sql = {n: r for n, r, _b in sqlite.storage_report()}
        for table in ("objects", "clobs", "attributes", "elements", "attr_ancestors"):
            assert mem[table] == sql[table], table
