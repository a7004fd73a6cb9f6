"""Integration tests: the instrumented pipeline records the expected
metrics and operation timings on both backends, without cross-catalog
bleed."""

import pytest

from repro.backends import SqliteHybridStore
from repro.core.catalog import HybridCatalog
from repro.core.query import AttributeCriteria, ObjectQuery, Op
from repro.core.storage import PlanTrace
from repro.errors import CatalogError
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema
from repro.grid.service import MyLeadService
from repro.obs import MetricsRegistry, set_default_registry
from repro.xmlkit import XMLSyntaxError

#: The acceptance-criteria metric names an ingest+query session must hit.
REQUIRED_METRICS = (
    "catalog_ingest_seconds",
    "catalog_query_seconds",
    "shredder_clobs_total",
    "planner_stage_rows",
    "sqlite_statements_total",
)


def _session(store=None):
    """Run one ingest+query+fetch session against a private registry."""
    registry = MetricsRegistry()
    catalog = HybridCatalog(lead_schema(), store=store, metrics=registry)
    define_fig3_attributes(catalog)
    catalog.ingest(FIG3_DOCUMENT, name="fig3")
    grid = AttributeCriteria("grid", "ARPS").add_element("dx", "ARPS", 1000, Op.EQ)
    query = ObjectQuery().add_attribute(grid)
    responses = catalog.search(query)
    assert len(responses) == 1
    return registry, catalog


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_session_records_required_metrics(backend):
    store = SqliteHybridStore() if backend == "sqlite" else None
    registry, _catalog = _session(store)
    expected = set(REQUIRED_METRICS)
    if backend == "memory":
        expected.discard("sqlite_statements_total")
    missing = expected - set(registry.names())
    assert not missing, f"missing metrics: {sorted(missing)}"


def test_ingest_and_query_counters_and_gauge():
    registry, catalog = _session()
    assert registry.counter("catalog_ingests_total").value == 1
    assert registry.counter("catalog_queries_total").value == 1
    assert registry.gauge("catalog_objects").value == 1
    assert registry.counter("shredder_clobs_total").value > 0
    assert registry.histogram("catalog_ingest_seconds").labels().count == 1
    catalog.delete(1)
    assert registry.gauge("catalog_objects").value == 0
    assert registry.counter("catalog_deletes_total").value == 1


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_delete_produces_root_span_and_duration(backend):
    """A delete observes its wall time once into ``catalog_delete_seconds``,
    beside the other pipeline timings, and the gauge reflects it."""
    store = SqliteHybridStore() if backend == "sqlite" else None
    registry, catalog = _session(store)
    assert "catalog_delete_seconds" not in registry
    catalog.delete(1)
    delete_seconds = registry.histogram("catalog_delete_seconds").labels()
    assert delete_seconds.count == 1
    assert delete_seconds.sum >= 0
    assert registry.gauge("catalog_objects").value == 0


def test_planner_stage_rows_labeled_by_stage():
    registry, _catalog = _session()
    family = registry.get("planner_stage_rows")
    stages = {labels["stage"] for labels, _metric in family.series()}
    assert stages  # at least one Fig-4 stage observed
    assert all(stages)  # no empty stage labels


def test_search_span_nests_query_and_fetch():
    """One search times itself once, and the query and fetch it runs
    once each."""
    registry, _catalog = _session()
    for name in ("catalog_search_seconds", "catalog_query_seconds",
                 "catalog_fetch_seconds"):
        assert registry.histogram(name).labels().count == 1, name
    # The plan stages land in the stage histogram, one series per stage.
    family = registry.get("planner_stage_rows")
    assert all(metric.count == 1 for _labels, metric in family.series())


def test_failed_ingest_still_records_its_latency():
    registry = MetricsRegistry()
    catalog = HybridCatalog(lead_schema(), metrics=registry)
    with pytest.raises(XMLSyntaxError):
        catalog.ingest("<LEADresource><unclosed></LEADresource>")
    assert registry.histogram("catalog_ingest_seconds").labels().count == 1
    assert "catalog_ingests_total" not in registry


def test_catalog_timings_stay_in_the_registry_it_bound():
    """A catalog built without ``metrics=`` binds the default registry
    once; swapping the default afterwards moves none of its numbers."""
    bound, later = MetricsRegistry(), MetricsRegistry()
    previous = set_default_registry(bound)
    try:
        catalog = HybridCatalog(lead_schema())
        define_fig3_attributes(catalog)
        set_default_registry(later)
        catalog.ingest(FIG3_DOCUMENT)
    finally:
        set_default_registry(previous)
    assert catalog.metrics is bound
    assert bound.counter("catalog_ingests_total").value == 1
    assert bound.histogram("catalog_ingest_seconds").labels().count == 1
    assert later.names() == []


def test_sqlite_statement_and_row_accounting():
    registry, _catalog = _session(SqliteHybridStore())
    kinds = {
        labels["kind"]
        for labels, _m in registry.get("sqlite_statements_total").series()
    }
    assert "execute" in kinds
    assert registry.counter("sqlite_rows_fetched_total").value > 0
    assert registry.histogram("sqlite_txn_seconds").labels().count > 0


def test_response_volume_counters():
    registry, _catalog = _session()
    assert registry.counter("response_documents_total").value >= 1
    assert registry.counter("response_bytes_total").value > 0


def test_two_catalogs_do_not_share_series():
    a, _ = _session()
    b = MetricsRegistry()
    HybridCatalog(lead_schema(), metrics=b)  # constructed, never ingested
    assert "catalog_ingest_seconds" in a
    assert "catalog_ingest_seconds" not in b


def test_service_op_and_visibility_counters():
    registry = MetricsRegistry()
    catalog = HybridCatalog(lead_schema(), metrics=registry)
    service = MyLeadService(lead_schema(), catalog)
    service.create_user("alice")
    service.create_user("bob")
    exp = service.create_experiment("alice", "run-1")
    receipt = service.add_file("alice", exp, FIG3_DOCUMENT, name="f1")
    ops = registry.get("service_ops_total")
    recorded = {
        (labels["op"], labels["user"]): metric.value
        for labels, metric in ops.series()
    }
    assert recorded[("create_experiment", "alice")] == 1
    assert recorded[("add_file", "alice")] == 1
    # bob cannot see alice's unpublished file.
    with pytest.raises(CatalogError):
        service.fetch("bob", [receipt.object_id])
    assert registry.counter("service_visibility_denied_total").value >= 1


class TestPlanTrace:
    def test_empty_describe(self):
        assert PlanTrace().describe() == "(no stages)"

    def test_as_dict(self):
        trace = PlanTrace()
        trace.add("candidate-attrs", 12, note="name/source match")
        trace.add("final", 3)
        assert trace.as_dict() == {
            "stages": [
                {"name": "candidate-attrs", "rows": 12,
                 "note": "name/source match"},
                {"name": "final", "rows": 3, "note": ""},
            ]
        }
