"""Which spans wrap which layer, and the per-layer metrics they give.

No file under ``src/`` knows about the benchmark: the spans go around
bound public methods of the live catalog, store, shredder and service,
and the counts are differences of what the ``obs`` registry (in-process)
and ``/v1/metrics`` (served) already expose as Prometheus text.
"""

import re
from collections import defaultdict

from repro.xmlkit import parse

#: Per-layer metric names (``BENCHMARK.json`` lists the same) and units.
#: A layer the workload does not run reads 0.
STORES = ("core.storage", "backends.sqlite")
LAYER_UNITS = {
    "xmlkit.parse_us_per_doc": "us",
    "xmlkit.parse_mb_per_s": "MB/s",
    "core.shredder.shred_us_per_doc": "us",
    "core.shredder.rows_per_doc": "count",
    "core.catalog.ingest_self_us_per_doc": "us",
    "core.catalog.query_self_us_per_query": "us",
    "core.query.shred_us_per_query": "us",
    "core.logical.plan_us_per_query": "us",
    "core.logical.plan_cache_hit_ratio": "ratio",
    "core.result_cache.hit_ratio": "ratio",
    "core.result_cache.invalidations": "count",
    "core.response.bytes_per_object": "bytes",
    "core.concurrency.reader_wait_ms": "ms",
    "core.concurrency.writer_wait_ms": "ms",
    **{f"{store}.{name}": unit for store in STORES for name, unit in (
        ("store_object_us_per_doc", "us"),
        ("delete_object_ms", "ms"),
        ("match_us_per_query", "us"),
        ("rows_examined_per_match", "count"),
        ("build_responses_us_per_object", "us"),
    )},
    "backends.sqlite.append_rows_us": "us",
    "backends.sqlite.statements_per_op": "count",
    "backends.sqlite.txn_commit_us": "us",
    "backends.sqlite.db_bytes": "bytes",
    "backends.sqlite.wal_bytes": "bytes",
    "backends.sqlite.reopen_ms": "ms",
    "ingest_docs_per_s": "1/s",
    "ingest_p95_ms": "ms",
    "query_p95_ms": "ms",
    "search_p95_ms": "ms",
    "grid.service.self_us_per_op": "us",
    "grid.service.denied_objects": "count",
    "server.handler_self_us_per_request": "us",
    "server.wire_us_per_request": "us",
    "server.cpu_s_per_kreq": "s",
    "server.requests_5xx": "count",
    "server.rate_limited": "count",
    "obs.events_emitted": "count",
    "obs.events_bytes_per_op": "bytes",
    "process.cpu_s": "s",
    "process.gc_gen2_collections": "count",
    "trace.overhead_pct": "%",
}


def store_layer(catalog):
    return "core.storage" if hasattr(catalog.store, "db") else "backends.sqlite"


def trace_catalog(recorder, catalog):
    """Spans around every layer boundary below ``catalog``.  Parsing is
    hoisted out of ``ingest``/``add_attribute`` so ``xmlkit`` gets its
    own span and the catalog is handed the ``Document``.

    ``run_transaction`` gets no span: ``store_object`` runs inside the
    catalog's transaction but ``delete_object`` opens its own, so one
    span name would mean two things.  Begin and commit therefore count
    as self time of whichever span opened the transaction
    (``core.catalog.ingest``, ``core.catalog.add_attribute``,
    ``<store>.delete_object``); ``backends.sqlite.txn_commit_us`` says
    how much of it is the commit."""
    store = store_layer(catalog)
    parse_span = recorder.wrap(
        "xmlkit.parse", parse, count=lambda _document, text: len(text))

    def parsed(text):
        return parse_span(text) if isinstance(text, str) else text

    ingest = recorder.wrap("core.catalog.ingest", catalog.ingest)
    add_attribute = recorder.wrap(
        "core.catalog.add_attribute", catalog.add_attribute)
    catalog.ingest = lambda document, *args, **kwargs: ingest(
        parsed(document), *args, **kwargs)
    catalog.add_attribute = lambda object_id, fragment, **kwargs: add_attribute(
        object_id, parsed(fragment), **kwargs)
    for method in ("delete", "query", "fetch"):
        recorder.install(catalog, method, f"core.catalog.{method}")
    recorder.install(catalog, "shred_query", "core.query.shred")
    recorder.install(catalog, "plan_for", "core.logical.plan")
    recorder.install(catalog.shredder, "shred", "core.shredder.shred")
    recorder.install(catalog.shredder, "shred_attribute_fragment",
                     "core.shredder.shred")
    for method in ("store_object", "append_rows", "delete_object"):
        recorder.install(catalog.store, method, f"{store}.{method}")
    for method in ("match_objects", "build_responses"):
        recorder.install(catalog.store, method, f"{store}.{method}",
                         count=lambda result, *_args: len(result))


def trace_service(recorder, service):
    for method in ("query", "fetch", "search_slice", "add_file"):
        recorder.install(service, method, f"grid.service.{method}")


# ---------------------------------------------------------------------------
# Counters, as the program exposes them
# ---------------------------------------------------------------------------

_SAMPLE = re.compile(r'^([a-zA-Z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


class Counters:
    """One Prometheus text exposition, summed on demand."""

    def __init__(self, text=""):
        self.samples = []
        for line in text.splitlines():
            match = _SAMPLE.match(line)
            if match and not line.startswith("#"):
                name, labels, value = match.groups()
                self.samples.append(
                    (name, dict(_LABEL.findall(labels or "")), float(value)))

    def total(self, name, **labels):
        return sum(
            value for sample, have, value in self.samples
            if sample == name and all(
                want(have.get(label, "")) if callable(want)
                else have.get(label) == want
                for label, want in labels.items())
        )


class CounterDelta:
    def __init__(self, before, after):
        self.before, self.after = before, after

    def total(self, name, **labels):
        return self.after.total(name, **labels) - self.before.total(name, **labels)


def _per(total, count, scale=1.0):
    return scale * total / count if count else 0.0


def layer_metrics(spans, counts, delta, ops, extra):
    """Every per-layer metric.  ``spans`` is ``{name: [calls, self s]}``
    and ``counts`` ``{name: work counted}`` over the traced phases,
    ``delta`` the registry change over the same phases, ``ops`` the
    operations the clients issued, and ``extra`` what only the caller
    can measure (file sizes, client round trips, process counters, the
    untraced rate)."""
    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    def ratio(hits, misses):
        hits, misses = delta.total(hits), delta.total(misses)
        return _per(hits, hits + misses)

    out = dict.fromkeys(LAYER_UNITS, 0.0)
    out["xmlkit.parse_us_per_doc"] = _per(
        self_s("xmlkit.parse"), calls("xmlkit.parse"), 1e6)
    out["xmlkit.parse_mb_per_s"] = _per(
        counts.get("xmlkit.parse", 0), self_s("xmlkit.parse"), 1e-6)
    out["core.shredder.shred_us_per_doc"] = _per(
        self_s("core.shredder.shred"), calls("core.shredder.shred"), 1e6)
    out["core.shredder.rows_per_doc"] = _per(
        sum(delta.total(f"shredder_{kind}_total") for kind in (
            "clobs", "attribute_rows", "element_rows", "inverted_rows")),
        delta.total("shredder_documents_total"))
    out["core.catalog.ingest_self_us_per_doc"] = _per(
        self_s("core.catalog.ingest"), calls("core.catalog.ingest"), 1e6)
    out["core.catalog.query_self_us_per_query"] = _per(
        self_s("core.catalog.query"), calls("core.catalog.query"), 1e6)
    out["core.query.shred_us_per_query"] = _per(
        self_s("core.query.shred"), calls("core.query.shred"), 1e6)
    out["core.logical.plan_us_per_query"] = _per(
        self_s("core.logical.plan"), calls("core.logical.plan"), 1e6)
    out["core.logical.plan_cache_hit_ratio"] = ratio(
        "plan_cache_hits_total", "plan_cache_misses_total")
    out["core.result_cache.hit_ratio"] = ratio(
        "query_cache_hits_total", "query_cache_misses_total")
    out["core.result_cache.invalidations"] = delta.total(
        "query_cache_invalidations_total")
    out["core.response.bytes_per_object"] = _per(
        delta.total("response_bytes_total"),
        delta.total("response_documents_total"))
    out["core.concurrency.reader_wait_ms"] = 1e3 * delta.total(
        "rwlock_reader_wait_seconds_sum")
    out["core.concurrency.writer_wait_ms"] = 1e3 * delta.total(
        "rwlock_writer_wait_seconds_sum")
    for store in STORES:
        out[f"{store}.store_object_us_per_doc"] = _per(
            self_s(f"{store}.store_object"), calls(f"{store}.store_object"), 1e6)
        out[f"{store}.delete_object_ms"] = _per(
            self_s(f"{store}.delete_object"), calls(f"{store}.delete_object"), 1e3)
        out[f"{store}.match_us_per_query"] = _per(
            self_s(f"{store}.match_objects"), calls(f"{store}.match_objects"), 1e6)
        out[f"{store}.rows_examined_per_match"] = _per(
            delta.total("planner_stage_rows_sum"),
            counts.get(f"{store}.match_objects", 0))
        out[f"{store}.build_responses_us_per_object"] = _per(
            self_s(f"{store}.build_responses"),
            counts.get(f"{store}.build_responses", 0), 1e6)
    out["backends.sqlite.append_rows_us"] = _per(
        self_s("backends.sqlite.append_rows"),
        calls("backends.sqlite.append_rows"), 1e6)
    out["backends.sqlite.statements_per_op"] = _per(
        delta.total("sqlite_statements_total"), ops)
    out["backends.sqlite.txn_commit_us"] = _per(
        delta.total("sqlite_txn_seconds_sum"),
        delta.total("sqlite_txn_seconds_count"), 1e6)
    service_calls = sum(
        n for name, (n, _s) in spans.items() if name.startswith("grid.service."))
    out["grid.service.self_us_per_op"] = _per(
        sum(s for name, (_n, s) in spans.items()
            if name.startswith("grid.service.")),
        service_calls, 1e6)
    out["grid.service.denied_objects"] = delta.total(
        "service_visibility_denied_total")
    out["server.requests_5xx"] = delta.total(
        "server_requests_total", status=lambda status: status.startswith("5"))
    out["server.rate_limited"] = delta.total("server_rate_limited_total")
    out["obs.events_emitted"] = delta.total("events_emitted_total")
    out.update(extra)
    return out


def merge_roots(by_root):
    """``self_times`` output folded over roots: ``{name: [calls, self]}``."""
    merged = defaultdict(lambda: [0, 0.0])
    for layers in by_root.values():
        for name, (calls, seconds) in layers.items():
            merged[name][0] += calls
            merged[name][1] += seconds
    return merged
