"""Command-line interface to a persisted hybrid catalog.

The CLI operates on a sqlite-backed catalog file, so state persists
across invocations (the personal-catalog usage the paper describes).

Commands::

    python -m repro init    --db cat.db [--xsd schema.xsd]
    python -m repro define  --db cat.db NAME SOURCE [--parent NAME]
                            [--element NAME:TYPE ...] [--user USER]
    python -m repro ingest  --db cat.db FILE [FILE ...] [--owner OWNER]
    python -m repro add     --db cat.db ID FRAGMENT_FILE
    python -m repro query   --db cat.db --attr NAME[/SOURCE]
                            [--elem "NAME[/SOURCE] OP VALUE" ...]
                            [--sub NAME[/SOURCE]] [--fetch] [--trace]
                            [--threads N]
    python -m repro explain --db cat.db --attr NAME[/SOURCE]
                            [--elem ...] [--sub ...] [--analyze]
    python -m repro events  --db cat.db [--tail N] [--event NAME] [--json]
    python -m repro top     --db cat.db [--frames N] [--interval SECONDS]
                            [--threads N --attr ... [--elem ...]]
    python -m repro bench   --db cat.db --attr NAME[/SOURCE] [--elem ...]
                            [--threads N] [--repeat R]
    python -m repro fetch   --db cat.db ID [ID ...]
    python -m repro schema  --db cat.db   (or --xsd schema.xsd)
    python -m repro info    --db cat.db
    python -m repro fsck    --db cat.db [--deep]
    python -m repro stats   --db cat.db [--format table|json|prom] [--reset]
    python -m repro lint    [--sarif] [--src DIR] [--fault-tests DIR]

Write commands run each logical operation in one explicit transaction
and retry transient sqlite failures (``database is locked``) with
exponential backoff; ``--retry-attempts`` / ``--retry-backoff`` tune
that policy per invocation (the catalog file is shared state, so
another process may hold the write lock).

Observability: every command records metrics (ingest/query timings,
shredder row counts, per-stage plan rows, sqlite statement counts) into
a registry that is persisted as a ``<db>.metrics.json`` sidecar, so
counters accumulate across invocations — ``repro stats`` renders the
accumulated registry, and ``--metrics-json PATH`` on any command dumps
the registry (including that command's contribution) to ``PATH``.
Catalog commands additionally journal structured events (query audits,
slow queries, rollbacks, fault injections, cache invalidations) to a
``<db>.events.jsonl`` sidecar — ``repro events`` tails it, and
``--slow-ms`` on any command sets the slow-query threshold above which
a query lands there with its full per-stage profile embedded.
``repro top`` renders windowed telemetry (QPS, error rate, latency and
lock/pool-wait p95s) sampled live from the registry.

Query criteria syntax: ``--attr`` starts a top-level attribute
criterion; subsequent ``--elem`` comparisons attach to the most recent
``--attr``/``--sub``; ``--sub`` opens a sub-attribute criterion under
the current top attribute.  Operators: ``= != < <= > >= contains``.

By default the catalog uses the LEAD schema of the paper's Figure 2;
pass ``--xsd`` at ``init`` to use any annotated schema (the file's text
is stored next to the catalog as ``<db>.xsd`` and reloaded on later
commands).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from .backends import SqliteHybridStore
from .core import (
    AttributeCriteria,
    HybridCatalog,
    ObjectQuery,
    Op,
    PlanTrace,
    ValueType,
    load_xsd,
)
from .errors import CatalogError, ReproError
from .faults import DEFAULT_RETRY, RetryPolicy
from .grid import MyLeadService, lead_schema
from .obs import (
    EventLog,
    MetricsRegistry,
    SeriesCollector,
    load_snapshot,
    render_json,
    render_prometheus,
    render_table,
    tail_events,
)
from .server import CatalogServer, ServerConfig

_OPS = {
    "=": Op.EQ, "==": Op.EQ, "!=": Op.NE, "<": Op.LT, "<=": Op.LE,
    ">": Op.GT, ">=": Op.GE, "contains": Op.CONTAINS,
}


class PipeSafeWriter:
    """Stdout writer for streaming commands (``events``, ``top``,
    ``search``, ``fetch``, ``query --fetch``) that goes permanently
    quiet once the consumer closes the pipe: ``repro search | head``
    must end the stream, not traceback.  The first ``EPIPE`` flips
    :attr:`closed` (commands use it to stop producing) and points the
    dangling stdout fd at devnull so the interpreter's exit flush
    cannot raise again."""

    def __init__(self) -> None:
        self.closed = False

    def line(self, text: str = "") -> bool:
        """Print ``text`` plus newline; False once the pipe is gone."""
        return self._emit(text + "\n")

    def write(self, text: str) -> bool:
        """Print ``text`` exactly as given; False once the pipe is gone."""
        return self._emit(text)

    def _emit(self, text: str) -> bool:
        if self.closed:
            return False
        try:
            sys.stdout.write(text)
            return True
        except BrokenPipeError:
            self.quiet()
            return False

    def quiet(self) -> None:
        """Hand stdout to devnull after a broken pipe."""
        self.closed = True
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # pragma: no cover - nothing left to protect
            pass

_TYPES = {
    "string": ValueType.STRING, "int": ValueType.INTEGER,
    "integer": ValueType.INTEGER, "float": ValueType.FLOAT,
    "date": ValueType.DATE,
}


def _schema_for(db_path: str, xsd: Optional[str]):
    """The schema for a catalog: explicit --xsd, the sidecar saved at
    init, or the built-in LEAD schema."""
    if xsd:
        return load_xsd(pathlib.Path(xsd).read_text(), name=pathlib.Path(xsd).stem)
    sidecar = pathlib.Path(db_path + ".xsd")
    if sidecar.exists():
        return load_xsd(sidecar.read_text(), name="catalog-schema")
    return lead_schema()


def _open(db_path: str, registry: MetricsRegistry,
          schema=None,
          events: Optional[EventLog] = None,
          slow_threshold: Optional[float] = None) -> HybridCatalog:
    """Open the catalog over the one sqlite file at ``db_path``."""
    return HybridCatalog(
        schema if schema is not None else _schema_for(db_path, None),
        store=SqliteHybridStore(db_path),
        metrics=registry,
        events=events,
        slow_query_threshold=slow_threshold,
    )


def _check_catalog_path(db_path: str, create: bool) -> None:
    """Refuse ``db_path`` before anything touches it: a missing file
    unless ``create`` (only ``init`` makes one), and a sharded layout of
    an older release, marked by a ``<db>.shards.json`` sidecar."""
    sidecar = pathlib.Path(db_path + ".shards.json")
    if sidecar.exists():
        raise CatalogError(
            f"{sidecar} describes a sharded catalog, which this release "
            "no longer opens"
        )
    if not create and not pathlib.Path(db_path).exists():
        raise CatalogError(f"no catalog at {db_path}; run repro init")


def _metrics_sidecar(db_path: str) -> pathlib.Path:
    return pathlib.Path(db_path + ".metrics.json")


def _events_sidecar(db_path: str) -> pathlib.Path:
    return pathlib.Path(db_path + ".events.jsonl")


def _cli_retry_policy(args) -> RetryPolicy:
    """The store retry policy from ``--retry-attempts``/``--retry-backoff``,
    keeping the defaults for whichever knob was not given."""
    return RetryPolicy(
        max_attempts=(
            args.retry_attempts
            if args.retry_attempts is not None
            else DEFAULT_RETRY.max_attempts
        ),
        base_delay=(
            args.retry_backoff
            if args.retry_backoff is not None
            else DEFAULT_RETRY.base_delay
        ),
    )


def _split_name(token: str):
    if "/" in token:
        name, source = token.split("/", 1)
        return name, source
    return token, ""


def _parse_elem(token: str):
    """``NAME[/SOURCE] OP VALUE`` → (name, source, op, value)."""
    parts = token.split(None, 2)
    if len(parts) != 3:
        raise SystemExit(f"bad --elem {token!r}; expected 'name op value'")
    name_token, op_token, raw = parts
    if op_token not in _OPS:
        raise SystemExit(f"bad operator {op_token!r}; one of {sorted(_OPS)}")
    name, source = _split_name(name_token)
    value: object = raw
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            pass
    return name, source, _OPS[op_token], value


def _build_query(attrs: List[str], elems: List[str], subs: List[str],
                 order: List[str]) -> ObjectQuery:
    """Rebuild the criteria tree from the flag sequence (``order`` holds
    the flags in command-line order so --elem binds to the nearest
    preceding --attr/--sub)."""
    query = ObjectQuery()
    current_top: Optional[AttributeCriteria] = None
    current: Optional[AttributeCriteria] = None
    attr_iter, elem_iter, sub_iter = iter(attrs), iter(elems), iter(subs)
    for kind in order:
        if kind == "attr":
            name, source = _split_name(next(attr_iter))
            current_top = AttributeCriteria(name, source)
            current = current_top
            query.add_attribute(current_top)
        elif kind == "sub":
            if current_top is None:
                raise SystemExit("--sub before any --attr")
            name, source = _split_name(next(sub_iter))
            sub = AttributeCriteria(name, source or current_top.source)
            current_top.add_attribute(sub)
            current = sub
        else:  # elem
            if current is None:
                raise SystemExit("--elem before any --attr")
            name, source, op, value = _parse_elem(next(elem_iter))
            current.add_element(name, source or None, value, op)
    if query.is_empty():
        raise SystemExit("query needs at least one --attr")
    return query


def _run_threaded_queries(catalog, query, user, threads, repeat, use_cache):
    """Run ``query`` ``repeat`` times on each of ``threads`` reader
    threads (started together on a barrier); returns
    ``(per-query latencies, any_mismatch, reference_ids, wall_seconds)``.
    ``use_cache=False`` passes a fresh trace per call, which bypasses
    the result cache so every call executes the plan."""
    import threading
    import time as _time

    reference = catalog.query(query, user=user)  # serial reference + warmup
    latencies: List[List[float]] = [[] for _ in range(threads)]
    mismatches = [False] * threads
    barrier = threading.Barrier(threads)

    def worker(slot: int) -> None:
        mine = latencies[slot]
        barrier.wait()
        for _ in range(repeat):
            trace = None if use_cache else PlanTrace()
            start = _time.perf_counter()
            ids = catalog.query(query, user=user, trace=trace)
            mine.append(_time.perf_counter() - start)
            if ids != reference:
                mismatches[slot] = True

    pool = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(threads)
    ]
    wall = _time.perf_counter()
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    wall = _time.perf_counter() - wall
    flat = sorted(lat for per in latencies for lat in per)
    return flat, any(mismatches), reference, wall


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


class _OrderedFlag(argparse.Action):
    """Records flag order so criteria rebuild correctly."""

    def __call__(self, parser, namespace, values, option_string=None):
        getattr(namespace, self.dest).append(values)
        namespace.flag_order.append(self.dest[:-1] if self.dest.endswith("s") else self.dest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Hybrid XML-relational metadata catalog"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="dump the metrics registry as JSON to PATH after the command",
    )
    common.add_argument(
        "--retry-attempts", type=int, default=None, metavar="N",
        help="max attempts for a write transaction hitting a transient "
             f"sqlite error (default: {DEFAULT_RETRY.max_attempts})",
    )
    common.add_argument(
        "--retry-backoff", type=float, default=None, metavar="SECONDS",
        help="initial backoff before a retry, doubled per attempt "
             f"(default: {DEFAULT_RETRY.base_delay})",
    )
    common.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="slow-query threshold in milliseconds; queries above it "
             "land in the <db>.events.jsonl sidecar with their full "
             "per-stage profile embedded",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("init", help="create a new catalog file")
    p.add_argument("--db", required=True)
    p.add_argument("--xsd", help="annotated schema (defaults to the LEAD schema)")

    p = add_parser("define", help="register a dynamic attribute definition")
    p.add_argument("--db", required=True)
    p.add_argument("name")
    p.add_argument("source")
    p.add_argument("--parent", help="parent attribute NAME (same source)")
    p.add_argument("--host", default=None, help="dynamic schema node tag")
    p.add_argument("--element", action="append", default=[],
                   metavar="NAME:TYPE", help="element definition(s)")
    p.add_argument("--user", default=None)

    p = add_parser("ingest", help="ingest metadata documents")
    p.add_argument("--db", required=True)
    p.add_argument("files", nargs="+")
    p.add_argument("--owner", default="")
    p.add_argument("--user", default=None)

    p = add_parser("add", help="add an attribute fragment to an object")
    p.add_argument("--db", required=True)
    p.add_argument("object_id", type=int)
    p.add_argument("fragment", help="file holding one attribute element")

    p = add_parser("query", help="find objects by attribute criteria")
    p.add_argument("--db", required=True)
    p.add_argument("--attr", dest="attrs", action=_OrderedFlag, default=[])
    p.add_argument("--elem", dest="elems", action=_OrderedFlag, default=[])
    p.add_argument("--sub", dest="subs", action=_OrderedFlag, default=[])
    p.add_argument("--fetch", action="store_true", help="print matching XML")
    p.add_argument("--trace", action="store_true", help="print the plan trace")
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help="also run the query concurrently from N reader "
                        "threads and verify every thread saw the same result")
    p.add_argument("--user", default=None)
    p.set_defaults(flag_order=[])

    p = add_parser(
        "explain",
        help="show the logical plan for a query "
             "(its stages and the actual rows of each)",
    )
    p.add_argument("--db", required=True)
    p.add_argument("--attr", dest="attrs", action=_OrderedFlag, default=[])
    p.add_argument("--elem", dest="elems", action=_OrderedFlag, default=[])
    p.add_argument("--sub", dest="subs", action=_OrderedFlag, default=[])
    p.add_argument("--analyze", action="store_true",
                   help="also profile the execution: per-stage wall "
                        "time, rows in/out, lock/pool wait breakdown")
    p.add_argument("--user", default=None)
    p.set_defaults(flag_order=[])

    p = add_parser("events", help="tail the catalog's structured event log")
    p.add_argument("--db", required=True)
    p.add_argument("--tail", type=int, default=10, metavar="N",
                   help="show the last N records (default: 10)")
    p.add_argument("--event", default=None, metavar="NAME",
                   help="only records of this event type")
    p.add_argument("--json", action="store_true", dest="json_output",
                   help="print raw repro.events/v1 envelopes")

    p = add_parser(
        "top",
        help="live windowed telemetry: per-interval QPS, error rate, "
             "and query/lock/pool p95s sampled from the registry",
    )
    p.add_argument("--db", required=True)
    p.add_argument("--frames", type=int, default=5, metavar="N",
                   help="telemetry frames to render (default: 5)")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="seconds between frames (default: 1.0)")
    p.add_argument("--attr", dest="attrs", action=_OrderedFlag, default=[])
    p.add_argument("--elem", dest="elems", action=_OrderedFlag, default=[])
    p.add_argument("--sub", dest="subs", action=_OrderedFlag, default=[])
    p.add_argument("--threads", type=int, default=0, metavar="N",
                   help="run N loader threads repeating the --attr/--elem "
                        "query while sampling (default: 0 = observe only)")
    p.add_argument("--user", default=None)
    p.set_defaults(flag_order=[])

    p = add_parser(
        "bench",
        help="measure read throughput for one query "
             "(N reader threads, p50/p95 latency, aggregate QPS)",
    )
    p.add_argument("--db", required=True)
    p.add_argument("--attr", dest="attrs", action=_OrderedFlag, default=[])
    p.add_argument("--elem", dest="elems", action=_OrderedFlag, default=[])
    p.add_argument("--sub", dest="subs", action=_OrderedFlag, default=[])
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help="concurrent reader threads (default: 1)")
    p.add_argument("--repeat", type=int, default=50, metavar="R",
                   help="queries per thread (default: 50)")
    p.add_argument("--no-result-cache", action="store_true",
                   help="measure plan execution instead of cache hits")
    p.add_argument("--user", default=None)
    p.set_defaults(flag_order=[])

    p = add_parser("fetch", help="reconstruct objects as XML")
    p.add_argument("--db", required=True)
    p.add_argument("ids", type=int, nargs="+")

    p = add_parser(
        "search",
        help="query and stream matching objects' XML to stdout "
             "(paginated; pipe-safe, so `repro search | head` just works)",
    )
    p.add_argument("--db", required=True)
    p.add_argument("--attr", dest="attrs", action=_OrderedFlag, default=[])
    p.add_argument("--elem", dest="elems", action=_OrderedFlag, default=[])
    p.add_argument("--sub", dest="subs", action=_OrderedFlag, default=[])
    p.add_argument("--offset", type=int, default=0, metavar="N",
                   help="skip the first N matches (default: 0)")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="stream at most N matches (default: all)")
    p.add_argument("--user", default=None)
    p.set_defaults(flag_order=[])

    p = add_parser(
        "serve",
        help="serve the catalog over HTTP: a threaded multi-user "
             "myLEAD front-end with session auth, per-user rate "
             "limits, and streamed paginated search",
    )
    p.add_argument("--db", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8917,
                   help="listen port; 0 picks an ephemeral port "
                        "(default: 8917)")
    p.add_argument("--rate", type=float, default=None, metavar="R",
                   help="per-user rate limit in requests/second "
                        "(default: unlimited)")
    p.add_argument("--burst", type=float, default=None, metavar="B",
                   help="rate-limit burst size (default: R)")
    p.add_argument("--session-ttl", type=float, default=None,
                   metavar="SECONDS",
                   help="idle session expiry (default: never)")
    p.add_argument("--slow-request-ms", type=float, default=None,
                   metavar="MS",
                   help="requests slower than MS land in the event-log "
                        "sidecar as slow_request events")
    p.add_argument("--page-limit", type=int, default=None, metavar="N",
                   help="default search page size when the client "
                        "sends no limit (default: whole result set)")

    p = add_parser("schema", help="print the annotated schema")
    p.add_argument("--db")
    p.add_argument("--xsd")

    p = add_parser("info", help="catalog statistics")
    p.add_argument("--db", required=True)

    p = add_parser("fsck", help="check catalog integrity")
    p.add_argument("--db", required=True)
    p.add_argument("--deep", action="store_true",
                   help="also parse every stored CLOB")

    p = add_parser("stats", help="show accumulated catalog metrics")
    p.add_argument("--db", required=True)
    p.add_argument("--format", choices=("table", "json", "prom"),
                   default="table", help="output format (default: table)")
    p.add_argument("--reset", action="store_true",
                   help="clear the accumulated metrics after printing")
    p.add_argument("--storage", action="store_true",
                   help="also print per-table storage accounting, with "
                        "the per-column byte breakdown on columnar "
                        "(memory) backends")

    # ``lint`` reads source files, not a catalog: no common flags.
    p = sub.add_parser(
        "lint",
        help="run the repo's static-analysis rules "
             "(transaction safety, fault-site coverage, metric naming, "
             "lock discipline, guarded fields, resource lifecycle)",
    )
    p.add_argument("--sarif", action="store_true",
                   help="emit a SARIF 2.1.0 report (CI code-scanning "
                        "upload) instead of text")
    p.add_argument("--src", default=None, metavar="DIR",
                   help="source tree to lint (default: the installed "
                        "repro package)")
    p.add_argument("--fault-tests", default=None, metavar="DIR",
                   help="fault-sweep test directory for FLT01 coverage "
                        "(default: ./tests/faults when present)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # ``repro events | head`` closing the pipe early is not an
        # error; hand the dangling stdout to devnull so the interpreter
        # does not complain again at shutdown.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    """Set up the invocation's metrics registry (seeded from the
    catalog's sidecar so counters accumulate across processes), run the
    command, then persist/dump the registry."""
    registry = MetricsRegistry()
    db = getattr(args, "db", None)
    sidecar = _metrics_sidecar(db) if db else None
    if sidecar is not None and sidecar.exists():
        load_snapshot(registry, sidecar.read_text())
    code = _run_command(args, registry)
    if (
        sidecar is not None
        and args.command != "stats"
        and pathlib.Path(db).exists()
    ):
        sidecar.write_text(render_json(registry))
    metrics_json = getattr(args, "metrics_json", None)
    if metrics_json:
        pathlib.Path(metrics_json).write_text(render_json(registry))
    return code


def _run_lint_command(args) -> int:
    """``repro lint``: exit 0 when clean, 1 on active findings, 2 on a
    missing source tree or a file that does not parse."""
    from .analysis import (
        active,
        default_rules,
        render_sarif_report,
        render_text_report,
        run_lint,
    )

    src_root = (
        pathlib.Path(args.src)
        if args.src
        else pathlib.Path(__file__).resolve().parent
    )
    if not src_root.is_dir():
        print(f"error: source tree {src_root} does not exist", file=sys.stderr)
        return 2
    if args.fault_tests:
        fault_tests: Optional[pathlib.Path] = pathlib.Path(args.fault_tests)
    else:
        default_ft = pathlib.Path.cwd() / "tests" / "faults"
        fault_tests = default_ft if default_ft.is_dir() else None

    rules = default_rules()
    findings = run_lint(src_root, fault_tests, rules=rules)
    if args.sarif:
        print(render_sarif_report(findings, rules=rules))
    else:
        print(render_text_report(findings))
    live = active(findings)
    if any(f.rule_id == "PARSE" for f in live):
        return 2
    return 1 if live else 0


def _run_events_command(args) -> int:
    """``repro events``: tail the catalog's JSON-lines event sidecar."""
    import json
    import time as _time

    sidecar = _events_sidecar(args.db)
    if not sidecar.exists():
        print("(no events recorded)")
        return 0
    writer = PipeSafeWriter()
    for record in tail_events(sidecar, count=args.tail, event=args.event):
        if writer.closed:
            break
        if args.json_output:
            writer.line(json.dumps(record, sort_keys=True))
            continue
        fields = dict(record.get("fields", {}))
        profile = fields.pop("profile", None)
        parts = [
            f"{key}={fields[key]:.4f}" if isinstance(fields[key], float)
            else f"{key}={fields[key]}"
            for key in sorted(fields)
        ]
        if profile is not None:
            parts.append(f"profile={len(profile.get('stages', []))} stages")
        stamp = _time.strftime(
            "%H:%M:%S", _time.localtime(record.get("ts", 0.0))
        )
        writer.line(f"#{record.get('seq'):>4} {stamp} "
                    f"{record.get('event'):<17} {'  '.join(parts)}")
    return 0


def _run_top_command(args, catalog: HybridCatalog) -> int:
    """``repro top``: sample the windowed series every ``--interval``
    seconds for ``--frames`` frames, optionally generating load."""
    import math
    import threading
    import time as _time

    if args.frames < 1 or args.interval <= 0:
        print("error: --frames must be >= 1 and --interval > 0",
              file=sys.stderr)
        return 1
    collector = SeriesCollector(catalog.metrics)
    collector.sample()  # baseline: rates/p95s need a delta to exist

    stop = threading.Event()
    workers: List = []
    if args.threads > 0:
        query = _build_query(args.attrs, args.elems, args.subs,
                             args.flag_order)

        def load() -> None:
            while not stop.is_set():
                # A fresh trace bypasses the result cache, so every
                # call exercises the plan (and the lock/pool paths).
                catalog.query(query, user=args.user, trace=PlanTrace())

        workers = [
            threading.Thread(target=load, daemon=True)
            for _ in range(args.threads)
        ]
        for worker in workers:
            worker.start()

    def cell(value: Optional[float], scale: float = 1.0) -> str:
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return "-"
        return f"{value * scale:.2f}"

    writer = PipeSafeWriter()
    writer.line(f"{'frame':>5}  {'qps':>8}  {'err/s':>7}  {'q_p95_ms':>9}  "
                f"{'lock_p95_ms':>11}  {'pool_p95_ms':>11}  {'queue':>5}")
    try:
        for frame in range(1, args.frames + 1):
            if writer.closed:
                break  # the consumer hung up; stop sampling early
            _time.sleep(args.interval)
            sampled = collector.sample()
            writer.line(f"{frame:>5}  {cell(sampled.get('qps')):>8}  "
                        f"{cell(sampled.get('error_rate')):>7}  "
                        f"{cell(sampled.get('query_p95'), 1e3):>9}  "
                        f"{cell(sampled.get('lock_wait_p95'), 1e3):>11}  "
                        f"{cell(sampled.get('pool_wait_p95'), 1e3):>11}  "
                        f"{cell(sampled.get('pool_queue_depth')):>5}")
    finally:
        stop.set()
        for worker in workers:
            worker.join(timeout=5.0)
    return 0


def _run_command(args, registry: MetricsRegistry) -> int:
    if args.command == "schema":
        schema = _schema_for(args.db or "", args.xsd)
        print(schema.describe())
        return 0

    if args.command == "lint":
        return _run_lint_command(args)

    _check_catalog_path(args.db, create=args.command == "init")
    if args.command == "init":
        if pathlib.Path(args.db).exists():
            print(f"error: {args.db} already exists", file=sys.stderr)
            return 1
        schema = _schema_for(args.db, args.xsd)
        _open(args.db, registry, schema=schema).store.close()
        if args.xsd:
            pathlib.Path(args.db + ".xsd").write_text(
                pathlib.Path(args.xsd).read_text()
            )
        print(f"created catalog {args.db} with schema {schema.name!r} "
              f"({schema.max_order()} ordered nodes)")
        return 0

    if args.command == "events":
        return _run_events_command(args)

    if args.command == "stats":
        if args.storage:
            catalog = _open(args.db, registry)
            print("storage:")
            for name, rows, size in catalog.storage_report():
                print(f"  {name:<16} {rows:>8} rows  {size:>10} bytes")
            # Columnar backends (the memory engine) can account bytes
            # per column; the sqlite store reports whole tables only.
            engine = getattr(catalog.store, "db", None)
            breakdown = getattr(engine, "storage_breakdown", None)
            if breakdown is not None:
                print("columns:")
                for name, cols in sorted(breakdown().items()):
                    for col, size in cols.items():
                        print(f"  {name + '.' + col:<28} {size:>10} bytes")
        if args.format == "json":
            print(render_json(registry))
        elif args.format == "prom":
            print(render_prometheus(registry), end="")
        else:
            rendered = render_table(registry)
            print(rendered if rendered else "(no metrics recorded)")
        if args.reset:
            sidecar = _metrics_sidecar(args.db)
            if sidecar.exists():
                sidecar.unlink()
        return 0

    # Every catalog command journals structured events to the sidecar;
    # --slow-ms (milliseconds) arms per-query profiling so slow queries
    # embed their full profile.
    events = EventLog(_events_sidecar(args.db))
    slow_threshold = (
        args.slow_ms / 1000.0 if args.slow_ms is not None else None
    )
    catalog = _open(args.db, registry, events=events,
                    slow_threshold=slow_threshold)
    if args.retry_attempts is not None or args.retry_backoff is not None:
        try:
            catalog.store.set_retry_policy(_cli_retry_policy(args))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.command == "define":
        host = args.host
        if host is None:
            dynamic = [n.tag for n in catalog.schema.attributes() if n.dynamic]
            if not dynamic:
                print("error: schema has no dynamic attribute section", file=sys.stderr)
                return 1
            host = dynamic[0]
        parent = (
            catalog.registry.resolve_attribute(args.parent, args.source, user=args.user)
            if args.parent
            else None
        )
        if args.parent and parent is None:
            print(f"error: no parent definition {args.parent!r}", file=sys.stderr)
            return 1
        attr_def = catalog.define_attribute(
            args.name, args.source, host=host, parent=parent, user=args.user
        )
        for spec in args.element:
            name, _, type_name = spec.partition(":")
            value_type = _TYPES.get(type_name.lower() or "string")
            if value_type is None:
                print(f"error: unknown type {type_name!r}", file=sys.stderr)
                return 1
            catalog.define_element(attr_def, name, args.source, value_type, user=args.user)
        print(f"defined attribute {args.name}/{args.source} "
              f"(id {attr_def.attr_id}, {len(args.element)} elements)")
        return 0

    if args.command == "ingest":
        for path in args.files:
            text = pathlib.Path(path).read_text()
            receipt = catalog.ingest(text, name=pathlib.Path(path).name,
                                     owner=args.owner, user=args.user)
            status = f"object {receipt.object_id}: {receipt.clob_count} CLOBs, " \
                     f"{receipt.element_count} element rows"
            if receipt.warnings:
                status += f", {len(receipt.warnings)} warnings"
            print(status)
            for warning in receipt.warnings:
                print(f"  warning: {warning}")
        return 0

    if args.command == "add":
        fragment = pathlib.Path(args.fragment).read_text()
        receipt = catalog.add_attribute(args.object_id, fragment)
        print(f"object {args.object_id}: +{receipt.clob_count} CLOB, "
              f"+{receipt.element_count} element rows")
        return 0

    if args.command == "query":
        query = _build_query(args.attrs, args.elems, args.subs, args.flag_order)
        trace = PlanTrace()
        ids = catalog.query(query, user=args.user, trace=trace)
        if args.trace:
            print(trace.describe())
            print()
        if args.threads > 1:
            _lat, mismatch, _ref, _wall = _run_threaded_queries(
                catalog, query, args.user, args.threads, repeat=1, use_cache=True
            )
            if mismatch:
                print(
                    f"error: concurrent readers disagreed across "
                    f"{args.threads} threads",
                    file=sys.stderr,
                )
                return 1
            print(f"{args.threads} concurrent readers: identical results")
        print(f"{len(ids)} matching object(s): {ids}")
        if args.fetch and ids:
            responses = catalog.fetch(ids)
            writer = PipeSafeWriter()
            for object_id in ids:
                if not writer.line(
                    f"--- object {object_id} "
                    f"({catalog.object_name(object_id)})"
                ) or not writer.line(responses[object_id]):
                    break
        return 0

    if args.command == "explain":
        query = _build_query(args.attrs, args.elems, args.subs, args.flag_order)
        explanation = catalog.explain(query, user=args.user,
                                      analyze=args.analyze)
        print(explanation.describe())
        return 0

    if args.command == "top":
        return _run_top_command(args, catalog)

    if args.command == "bench":
        if args.threads < 1 or args.repeat < 1:
            print("error: --threads and --repeat must be >= 1", file=sys.stderr)
            return 1
        query = _build_query(args.attrs, args.elems, args.subs, args.flag_order)
        flat, mismatch, reference, wall = _run_threaded_queries(
            catalog, query, args.user, args.threads, args.repeat,
            use_cache=not args.no_result_cache,
        )
        total = args.threads * args.repeat
        qps = total / wall if wall > 0 else float("inf")
        print(
            f"{total} queries across {args.threads} thread(s), "
            f"{len(reference)} matching object(s) each"
        )
        print(
            f"p50 {1000 * _percentile(flat, 0.50):.3f} ms   "
            f"p95 {1000 * _percentile(flat, 0.95):.3f} ms   "
            f"aggregate {qps:.0f} QPS"
        )
        if mismatch:
            print("error: concurrent readers disagreed", file=sys.stderr)
            return 1
        return 0

    if args.command == "fetch":
        responses = catalog.fetch(args.ids)
        missing = [i for i in args.ids if i not in responses]
        writer = PipeSafeWriter()
        for object_id in args.ids:
            if object_id in responses:
                if not writer.line(responses[object_id]):
                    break
        if missing:
            print(f"error: no objects {missing}", file=sys.stderr)
            return 1
        return 0

    if args.command == "search":
        if args.offset < 0 or (args.limit is not None and args.limit < 0):
            print("error: --offset and --limit must be >= 0",
                  file=sys.stderr)
            return 1
        query = _build_query(args.attrs, args.elems, args.subs,
                             args.flag_order)
        ids = catalog.query(query, user=args.user)
        end = None if args.limit is None else args.offset + args.limit
        page = ids[args.offset:end]
        # The summary goes to stderr so stdout stays pure XML
        # (pipeable into xmllint or head).
        print(f"{len(ids)} matching object(s); streaming {len(page)} "
              f"from offset {args.offset}", file=sys.stderr)
        writer = PipeSafeWriter()
        for start in range(0, len(page), 64):
            chunk = page[start:start + 64]
            responses = catalog.fetch(chunk)
            for object_id in chunk:
                if not writer.write(responses[object_id]):
                    return 0
        return 0

    if args.command == "serve":
        service = MyLeadService(catalog.schema, catalog)
        config = ServerConfig(
            host=args.host,
            port=args.port,
            rate_limit=args.rate,
            burst=args.burst,
            session_ttl=args.session_ttl,
            slow_request_threshold=(
                args.slow_request_ms / 1000.0
                if args.slow_request_ms is not None else None
            ),
            default_page_limit=args.page_limit,
        )
        server = CatalogServer(service, config)
        # flush=True: the CI smoke test parses the port from this line
        # through a pipe, where stdout is block-buffered.
        print(f"serving catalog {args.db} on {server.url}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
        print("server stopped")
        return 0

    if args.command == "fsck":
        from .core import check_catalog

        violations = check_catalog(catalog, deep=args.deep)
        if not violations:
            print(f"ok: {len(catalog)} objects, no violations")
            return 0
        for violation in violations:
            print(f"violation: {violation}")
        return 1

    if args.command == "info":
        print(f"objects: {len(catalog)}")
        print(f"definitions: {len(catalog.registry)} attributes")
        print("storage:")
        for name, rows, size in catalog.storage_report():
            print(f"  {name:<16} {rows:>8} rows  {size:>10} bytes")
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
