"""The central name registry (enforced by ``repro lint`` OBS01).

Every metric the catalog emits is declared here — name, kind, help
text, and label names — so the naming convention
(``*_total`` counters, ``*_seconds``/``*_rows`` histograms, bare-noun
gauges; see :mod:`repro.obs.metrics`) is checked in one place and a
dashboard can be built from this module alone.  The second-generation
observability layer extends the same discipline to the other two
name-keyed surfaces: structured *event* types written to the
JSON-lines event log (:mod:`repro.obs.events`) and windowed *series*
computed over the registry (:mod:`repro.obs.series`) are declared in
:data:`EVENTS` and :data:`SERIES` below.

The OBS01 rule statically verifies that every metric created anywhere
in ``src/`` (outside the :mod:`repro.obs` infrastructure itself) uses a
name declared here, with the declared kind, at exactly one creation call
site — and that every event emitted and every series referenced uses a
declared name.  :func:`spec` / :func:`event_spec` / :func:`series_spec`
are the runtime half: helpers that work from a name variable resolve
the declaration through them, so help text, label tuples, and field
lists cannot drift from the registry.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "MetricSpec", "METRICS", "spec",
    "EventSpec", "EVENTS", "event_spec",
    "SeriesSpec", "SERIES", "series_spec",
]


class MetricSpec:
    """One declared metric: kind, help text, and label names."""

    __slots__ = ("name", "kind", "help", "labels")

    def __init__(self, name: str, kind: str, help: str,
                 labels: Tuple[str, ...] = ()) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labels = labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricSpec({self.name!r}, {self.kind!r}, labels={self.labels})"


def _declare(*specs: MetricSpec) -> Dict[str, MetricSpec]:
    out: Dict[str, MetricSpec] = {}
    for s in specs:
        if s.name in out:
            raise ValueError(f"metric {s.name!r} declared twice")
        _check_suffix(s)
        out[s.name] = s
    return out


def _check_suffix(s: MetricSpec) -> None:
    """The naming convention OBS01 enforces, applied to the registry
    itself at import time so a bad declaration cannot land."""
    if s.kind == "counter" and not s.name.endswith("_total"):
        raise ValueError(f"counter {s.name!r} must end in _total")
    if s.kind == "histogram" and not (
        s.name.endswith("_seconds") or s.name.endswith("_rows")
    ):
        raise ValueError(f"histogram {s.name!r} must end in _seconds or _rows")
    if s.kind == "gauge" and (
        s.name.endswith("_total") or s.name.endswith("_seconds")
    ):
        raise ValueError(
            f"gauge {s.name!r} must not use a counter/histogram suffix"
        )


#: Every metric the catalog emits, by name.
METRICS: Dict[str, MetricSpec] = _declare(
    # -- catalog facade -------------------------------------------------
    MetricSpec("catalog_ingests_total", "counter", "documents ingested"),
    MetricSpec("catalog_deletes_total", "counter", "objects deleted"),
    MetricSpec("catalog_queries_total", "counter", "queries executed"),
    MetricSpec("catalog_objects", "gauge", "objects currently cataloged"),
    MetricSpec("catalog_ingest_seconds", "histogram",
               "wall time of one catalog ingest, failed ones included"),
    MetricSpec("catalog_delete_seconds", "histogram",
               "wall time of one catalog delete, failed ones included"),
    MetricSpec("catalog_query_seconds", "histogram",
               "wall time of one catalog query, failed ones included"),
    MetricSpec("catalog_explain_seconds", "histogram",
               "wall time of one catalog explain, failed ones included"),
    MetricSpec("catalog_fetch_seconds", "histogram",
               "wall time of one catalog fetch, failed ones included"),
    MetricSpec("catalog_search_seconds", "histogram",
               "wall time of one catalog search, failed ones included"),
    # -- query planning -------------------------------------------------
    MetricSpec("query_cache_hits_total", "counter",
               "query results served from the result cache"),
    MetricSpec("query_cache_misses_total", "counter",
               "query results computed fresh (result-cache miss)"),
    MetricSpec("query_cache_patched_hits_total", "counter",
               "result-cache hits brought up to date from the write log"),
    MetricSpec("query_cache_evictions_total", "counter",
               "query results evicted from the result cache (LRU)"),
    MetricSpec("query_cache_size", "gauge",
               "query results currently cached"),
    MetricSpec("planner_queries_total", "counter", "query plans executed"),
    MetricSpec("planner_stage_rows", "histogram",
               "row count produced by each query-plan stage", ("stage",)),
    # -- shredder -------------------------------------------------------
    MetricSpec("shredder_shred_seconds", "histogram",
               "wall time of one document/fragment shred"),
    MetricSpec("shredder_documents_total", "counter",
               "documents and fragments shredded"),
    MetricSpec("shredder_clobs_total", "counter",
               "CLOB rows produced by shredding"),
    MetricSpec("shredder_attribute_rows_total", "counter",
               "attribute-instance rows produced"),
    MetricSpec("shredder_element_rows_total", "counter",
               "element-value rows produced"),
    MetricSpec("shredder_inverted_rows_total", "counter",
               "inverted-list rows produced"),
    MetricSpec("shredder_warnings_total", "counter",
               "validation warnings recorded"),
    # -- responses ------------------------------------------------------
    MetricSpec("response_documents_total", "counter",
               "tagged XML responses built"),
    MetricSpec("response_bytes_total", "counter",
               "bytes of tagged XML serialized"),
    # -- transactions / crash safety ------------------------------------
    MetricSpec("txn_commits_total", "counter",
               "transactions committed", ("site",)),
    MetricSpec("txn_rollbacks_total", "counter",
               "transactions rolled back", ("site",)),
    MetricSpec("txn_retries_total", "counter",
               "transactions retried after a transient failure", ("site",)),
    MetricSpec("fault_injected_total", "counter",
               "write faults injected by a FaultPlan", ("site",)),
    # -- sqlite backend -------------------------------------------------
    MetricSpec("sqlite_statements_total", "counter",
               "SQL statements issued against the sqlite backend", ("kind",)),
    MetricSpec("sqlite_rows_fetched_total", "counter",
               "rows fetched from sqlite cursors"),
    MetricSpec("sqlite_txn_seconds", "histogram",
               "sqlite transaction commit wall time"),
    MetricSpec("sqlite_pool_connections", "gauge",
               "reader connections currently open in the pool"),
    # -- contention (PR 6 windowed telemetry inputs) --------------------
    MetricSpec("rwlock_reader_wait_seconds", "histogram",
               "time readers spent blocked acquiring the store RWLock "
               "(contended acquisitions only)"),
    MetricSpec("rwlock_writer_wait_seconds", "histogram",
               "time writers spent blocked acquiring the store RWLock "
               "(contended acquisitions only)"),
    MetricSpec("pool_acquire_wait_seconds", "histogram",
               "time readers spent queued for a pooled connection "
               "(at-capacity checkouts only)"),
    MetricSpec("pool_queue_depth", "gauge",
               "reader threads currently queued for a pooled connection"),
    MetricSpec("query_cache_invalidations_total", "counter",
               "result-cache wipes by what moved the token", ("cause",)),
    # -- event log ------------------------------------------------------
    MetricSpec("events_emitted_total", "counter",
               "structured events written to the event log", ("event",)),
    MetricSpec("events_dropped_total", "counter",
               "structured events dropped before writing", ("reason",)),
    # -- integrity ------------------------------------------------------
    MetricSpec("fsck_soft_errors_total", "counter",
               "recoverable errors tolerated while checking integrity",
               ("kind",)),
    # -- myLEAD service -------------------------------------------------
    MetricSpec("service_ops_total", "counter",
               "myLEAD service operations by kind and user", ("op", "user")),
    MetricSpec("service_visibility_denied_total", "counter",
               "objects withheld from a user by the visibility check"),
    # -- HTTP server ----------------------------------------------------
    MetricSpec("server_requests_total", "counter",
               "HTTP requests served, by endpoint and status class",
               ("endpoint", "status")),
    MetricSpec("server_request_seconds", "histogram",
               "HTTP request wall time by endpoint", ("endpoint",)),
    MetricSpec("server_rate_limited_total", "counter",
               "requests rejected by the per-user rate limiter"),
    MetricSpec("server_auth_failures_total", "counter",
               "requests rejected for a missing or invalid session token"),
    MetricSpec("server_sessions", "gauge",
               "session tokens currently active"),
    MetricSpec("server_streamed_objects_total", "counter",
               "XML objects written through streamed search responses"),
)


def spec(name: str) -> MetricSpec:
    """The declaration for ``name``; raises for undeclared metrics so
    dynamic creation helpers stay inside the registry."""
    try:
        return METRICS[name]
    except KeyError:
        raise ValueError(
            f"metric {name!r} is not declared in repro.obs.names"
        ) from None


# ---------------------------------------------------------------------------
# Structured event types (the repro.events/v1 JSON-lines stream)
# ---------------------------------------------------------------------------

class EventSpec:
    """One declared event type: help text plus its well-known fields
    (emitters may add more; these are the ones consumers can rely on)."""

    __slots__ = ("name", "help", "fields")

    def __init__(self, name: str, help: str,
                 fields: Tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.fields = fields

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventSpec({self.name!r}, fields={self.fields})"


def _declare_events(*specs: EventSpec) -> Dict[str, EventSpec]:
    out: Dict[str, EventSpec] = {}
    for s in specs:
        if s.name in out:
            raise ValueError(f"event {s.name!r} declared twice")
        out[s.name] = s
    return out


#: Every event type the catalog writes to its event-log sidecar.
EVENTS: Dict[str, EventSpec] = _declare_events(
    EventSpec("query", "one query audit record",
              ("attrs", "elems", "matches", "seconds", "cache")),
    EventSpec("slow_query",
              "a query above the slow threshold, full profile embedded",
              ("attrs", "elems", "matches", "seconds", "threshold",
               "profile")),
    EventSpec("txn_rollback", "a transaction rolled back", ("site",)),
    EventSpec("txn_retry",
              "a transaction retried after a transient failure", ("site",)),
    EventSpec("fault_injected", "a FaultPlan fired at a write site",
              ("site",)),
    EventSpec("cache_invalidated",
              "the result cache dropped every entry", ("cause",)),
    EventSpec("slow_request",
              "an HTTP request above the server's slow threshold",
              ("endpoint", "user", "status", "seconds", "threshold")),
)


def event_spec(name: str) -> EventSpec:
    """The declaration for event ``name``; raises for undeclared events
    so dynamic emit helpers stay inside the registry."""
    try:
        return EVENTS[name]
    except KeyError:
        raise ValueError(
            f"event {name!r} is not declared in repro.obs.names"
        ) from None


# ---------------------------------------------------------------------------
# Windowed time series (ring-buffer telemetry over the registry)
# ---------------------------------------------------------------------------

class SeriesSpec:
    """One declared windowed series: how it is derived (``rate`` of a
    counter delta per second, ``p95`` from histogram bucket deltas, or a
    ``gauge`` read) and the source metric names it consumes."""

    __slots__ = ("name", "mode", "help", "sources")

    def __init__(self, name: str, mode: str, help: str,
                 sources: Tuple[str, ...]) -> None:
        if mode not in ("rate", "p95", "gauge"):
            raise ValueError(f"series {name!r}: unknown mode {mode!r}")
        self.name = name
        self.mode = mode
        self.help = help
        self.sources = sources

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeriesSpec({self.name!r}, {self.mode!r}, {self.sources})"


def _declare_series(*specs: SeriesSpec) -> Dict[str, SeriesSpec]:
    out: Dict[str, SeriesSpec] = {}
    for s in specs:
        if s.name in out:
            raise ValueError(f"series {s.name!r} declared twice")
        for source in s.sources:
            if source not in METRICS:
                raise ValueError(
                    f"series {s.name!r} sources unknown metric {source!r}"
                )
        out[s.name] = s
    return out


#: Every windowed series ``repro top`` renders.
SERIES: Dict[str, SeriesSpec] = _declare_series(
    SeriesSpec("qps", "rate", "queries per second",
               ("catalog_queries_total",)),
    SeriesSpec("error_rate", "rate",
               "transaction rollbacks per second (all sites)",
               ("txn_rollbacks_total",)),
    SeriesSpec("query_p95", "p95",
               "p95 query latency over the interval, seconds",
               ("catalog_query_seconds",)),
    SeriesSpec("lock_wait_p95", "p95",
               "p95 RWLock wait over the interval (readers and writers), "
               "seconds",
               ("rwlock_reader_wait_seconds", "rwlock_writer_wait_seconds")),
    SeriesSpec("pool_wait_p95", "p95",
               "p95 pooled-connection acquire wait over the interval, "
               "seconds",
               ("pool_acquire_wait_seconds",)),
    SeriesSpec("pool_queue_depth", "gauge",
               "reader threads currently queued for a pooled connection",
               ("pool_queue_depth",)),
)


def series_spec(name: str) -> SeriesSpec:
    """The declaration for series ``name``; raises for undeclared
    series so windowed-telemetry consumers stay inside the registry."""
    try:
        return SERIES[name]
    except KeyError:
        raise ValueError(
            f"series {name!r} is not declared in repro.obs.names"
        ) from None
