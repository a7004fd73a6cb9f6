"""``repro serve`` with spans: the traced run's server process.

Builds catalog, ``MyLeadService`` and ``CatalogServer`` the way the
``serve`` command does (sqlite store, fresh registry, event-log sidecar
on), puts spans around the service's and the catalog's layer
boundaries, serves until SIGINT, then writes the spans to ``--spans``.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from layers import trace_catalog, trace_service  # noqa: E402
from repro.backends.sqlite import SqliteHybridStore  # noqa: E402
from repro.core import HybridCatalog  # noqa: E402
from repro.grid import MyLeadService, lead_schema  # noqa: E402
from repro.obs import EventLog, MetricsRegistry  # noqa: E402
from repro.server import CatalogServer, ServerConfig  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--db", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    catalog = HybridCatalog(
        lead_schema(),
        store=SqliteHybridStore(args.db),
        metrics=MetricsRegistry(),
        events=EventLog(args.db + ".events.jsonl"),
    )
    service = MyLeadService(catalog.schema, catalog)
    recorder = SpanRecorder()
    trace_catalog(recorder, catalog)
    trace_service(recorder, service)
    server = CatalogServer(service, ServerConfig(port=args.port))
    print(f"serving catalog {args.db} on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        recorder.dump(args.spans)


if __name__ == "__main__":
    main()
