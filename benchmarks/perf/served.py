"""``serve_mixed``: the multi-user deployment, over real HTTP.

The server is a subprocess with its own interpreter: ``repro serve`` as
deployed (sqlite store, event-log sidecar on) for the measured run, and
``serve_traced.py`` (the same construction plus spans) for the traced
one.  Two keep-alive clients, one per core, each with its own user,
session and experiment, run closed loops against it, so client-side
JSON and HTTP work and GIL hand-offs are not billed to the server.
"""

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import inputs
from estimators import Phase, quiet_low, wall_rate
from inprocess import (
    ORACLE_QUERIES,
    PAGE,
    SETUP_REPEATS,
    Client,
    bounded_latencies,
    check_outputs,
    database_bytes,
    demoted_latencies,
    file_bytes,
    open_catalog,
    restart,
    scaled,
)
from layers import CounterDelta, Counters, layer_metrics, merge_roots
from repro.server import CatalogClient
from spans import self_times, work_counts

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
CLIENTS = 2
POOL = 64
#: The issue's 1.2 gives a 0.46 result-cache hit ratio beside 5% writes
#: that each wipe the cache; 1.6 gives 0.62, inside the 0.6-0.9 the
#: workload is meant to show.
ZIPF_S = 1.6
SHARES = {"query": 0.75, "search": 0.10, "fetch": 0.10, "ingest": 0.05}
#: Operation -> (``server_*`` endpoint label, ``service_ops_total`` op
#: label, ``MyLeadService`` method the traced server wraps).
SERVED_BY = {
    "query": ("query", "query", "query"),
    "search": ("search", "search", "search_slice"),
    "fetch": ("fetch", "fetch", "fetch"),
    "ingest": ("files", "add_file", "add_file"),
}


def mixed_kinds(rng, shares, count):
    """``count`` operation kinds in the given shares, shuffled."""
    kinds = []
    for kind, share in shares.items():
        kinds += [kind] * round(share * count)
    rng.shuffle(kinds)
    return kinds


class Server:
    """The server subprocess: started, asked for its port, and stopped
    with SIGINT as an operator would."""

    def __init__(self, db_path, spans_path=None):
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       "--spans", spans_path]
        environment = dict(os.environ, PYTHONPATH=SOURCE)
        self.process = subprocess.Popen(
            command + ["--db", db_path, "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=environment)
        line = self.process.stdout.readline()
        if " on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, port = line.strip().rsplit("/", 1)[1].split(":")
        self.port = int(port)

    def client(self):
        return CatalogClient(self.host, self.port)

    def counters(self):
        with self.client() as client:
            return Counters(client.metrics_text())

    def cpu_seconds(self):
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class HttpLoop(threading.Thread):
    """One keep-alive client thread running its closed loop."""

    def __init__(self, server, user, ops, pool, documents, public_ids):
        super().__init__()
        self.client = server.client()
        self.user = user
        self.ops = ops
        self.pool = pool
        self.documents = documents
        self.public_ids = public_ids
        self.failures = []
        self.added = {}           # object id -> document index
        status, _body = self.client.create_user(user)
        self.client.open_session(user)
        _status, body = self.client.create_experiment(f"{user}-run")
        self.experiment_id = body["experiment_id"]

    def _one(self, kind, arg):
        client = self.client
        if kind == "query":
            status, body = client.query(self.pool[arg])
            return status == 200 and isinstance(body.get("ids"), list)
        if kind == "search":
            page = client.search(self.pool[arg], limit=PAGE)
            return len(page.ids) == min(PAGE, page.total)
        if kind == "fetch":
            object_id = self.public_ids[arg % len(self.public_ids)]
            status, body = client.fetch([object_id])
            return status == 200 and str(object_id) in body["documents"]
        status, body = client.add_file(
            self.experiment_id, self.documents[arg], name=f"doc-{arg}")
        if status == 201:
            self.added[body["object_id"]] = arg
        return status == 201 and not body["warnings"]

    def run(self):
        self.phase = Phase()
        for kind, arg in self.ops:
            start = time.perf_counter()
            try:
                ok = self._one(kind, arg)
            except Exception as exc:  # noqa: BLE001 - a failed op is a result
                ok = False
                self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            self.phase.record(kind, start, time.perf_counter())
            if not ok:
                self.failures.append(f"{kind} {arg}: refused or wrong reply")
        self.phase.finish()
        self.client.close()


class ServeMixed:
    name = "serve_mixed"
    sqlite = True
    open_catalog = staticmethod(open_catalog)

    def __init__(self, seed, seconds):
        self.rng = random.Random(seed * 1_000_003 + 29)
        self.corpus = inputs.corpus(seed)
        self.queries = inputs.QueryGenerator(self.corpus.config, seed)
        self.sizes = {
            "catalog": scaled(400, seconds, 30),
            "request": scaled(4400, seconds, 160),
            "tail_delete": scaled(300, seconds, 8),
        }
        self.pool = self.queries.fresh(POOL)
        per_client = self.sizes["request"] // CLIENTS
        self.client_ops = []
        next_document = self.sizes["catalog"]
        popular = iter(self.queries.zipf_indices(
            self.sizes["request"], POOL, ZIPF_S))
        for _ in range(CLIENTS):
            ops = []
            for kind in mixed_kinds(self.rng, SHARES, per_client):
                if kind in ("query", "search"):
                    ops.append((kind, next(popular)))
                elif kind == "fetch":
                    ops.append((kind, self.rng.getrandbits(32)))
                else:
                    ops.append((kind, next_document))
                    next_document += 1
            self.client_ops.append(ops)
        self.documents = [self.corpus.document(i) for i in range(next_document)]
        self.deletes = [self.rng.getrandbits(32)
                        for _ in range(self.sizes["tail_delete"])]

    def setup(self, workdir, spans_path=None):
        """Create the catalog file as ``repro init`` + ``repro define``
        would, launch the server on it, and load the public corpus over
        HTTP as its owner."""
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.db_path = os.path.join(workdir, "catalog.db")
        catalog = self.open_catalog(workdir)
        self.corpus.register_definitions(catalog)
        catalog.store.close()
        self.server = Server(self.db_path, spans_path)
        try:
            self.public = {}      # object id -> document index
            with self.server.client() as owner:
                owner.create_user("curator")
                owner.open_session("curator")
                _status, body = owner.create_experiment("corpus")
                for index in range(self.sizes["catalog"]):
                    status, reply = owner.add_file(
                        body["experiment_id"], self.documents[index],
                        name=f"doc-{index}", public=True)
                    if status != 201:
                        raise RuntimeError(f"set-up add_file: {status} {reply}")
                    self.public[reply["object_id"]] = index
            public_ids = sorted(self.public)
            self.loops = [
                HttpLoop(self.server, f"scientist-{n}", ops, self.pool,
                         self.documents, public_ids)
                for n, ops in enumerate(self.client_ops)
            ]
        except BaseException:
            self.server.stop()
            raise

    def main(self):
        """Both closed loops, started together; returns their blocks as
        one phase and what the server counted meanwhile."""
        before, cpu_before = self.server.counters(), self.server.cpu_seconds()
        events_before = file_bytes(self.db_path + ".events.jsonl")
        start = time.perf_counter()
        for loop in self.loops:
            loop.start()
        for loop in self.loops:
            loop.join()
        self.window = (start, time.perf_counter())
        self.db_bytes, self.wal_bytes = database_bytes(self.workdir)
        phase = Phase.merged(loop.phase for loop in self.loops)
        delta = CounterDelta(before, self.server.counters())
        self.cpu = self.server.cpu_seconds() - cpu_before
        self.events_bytes = file_bytes(self.db_path + ".events.jsonl") - events_before
        return phase, delta

    def failures(self, phase, delta):
        """What the server says about the run it just served."""
        out = [message for loop in self.loops for message in loop.failures]
        bad = delta.total("server_requests_total",
                          status=lambda status: status[:1] == "5" or status == "429")
        if bad or delta.total("server_rate_limited_total"):
            out.append(f"{bad:.0f} requests answered 5xx or 429")
        for kind, (_endpoint, op, _method) in SERVED_BY.items():
            issued = phase.count(kind)
            counted = delta.total("service_ops_total", op=op)
            if counted != issued:
                out.append(f"service_ops_total{{op={op}}} moved by "
                           f"{counted:.0f} for {issued} requests")
        return out

    def quiesced_pages(self):
        """With the writers done and the server still up: each client's
        first page for a few pool queries, to compare with what the
        catalog file says once the server has stopped."""
        pages = []
        for loop in self.loops:
            with self.server.client() as client:
                client.open_session(loop.user)
                for query in self.pool[:12]:
                    pages.append((loop, query, client.search(query, limit=PAGE)))
        return pages


def check_pages(workload, client, pages):
    """Each page an HTTP client saw is byte-identical to the in-process
    catalog's: the matches this user may see (their own objects and the
    published ones), the first ten, fetched and concatenated."""
    failures = []
    for loop, query, page in pages:
        visible = [i for i in client.catalog.query(query)
                   if i in workload.public or i in loop.added]
        first = visible[:PAGE]
        responses = client.catalog.fetch(first)
        if (page.total, page.ids) != (len(visible), first):
            failures.append(f"{loop.user}: page ids differ from the catalog's")
        elif page.body != "".join(responses[i] for i in first):
            failures.append(f"{loop.user}: page bytes differ from the catalog's")
    return failures


def in_process_client(workload):
    """A :class:`Client` over the catalog file the stopped server left,
    knowing every document acknowledged over HTTP.  The three experiment
    records are objects too; the client counts but never picks them."""
    client = Client(workload.open_catalog(workload.workdir), workload.documents)
    client.source = dict(workload.public)
    for loop in workload.loops:
        client.source.update(loop.added)
    client.live = sorted(client.source)
    client.acknowledged = len(client.live) + 1 + CLIENTS
    return client


def traced_layers(workload, phase, delta, spans_path, untraced_rate, cycles):
    """Per-layer metrics and per-endpoint accounting of a traced main
    phase.  Server and clients share one monotonic clock (Linux), so
    the server's spans are cut to the main phase by time."""
    with open(spans_path) as handle:
        dumped = json.load(handle)
    low, high = workload.window
    spans = [s for s in dumped["spans"] if low <= s[2] and s[3] <= high]
    # Split query operations by whether the result cache answered: a hit
    # is an operation that never reached the store's matcher.
    matched = {s[5] for s in spans if s[1] == "backends.sqlite.match_objects"}
    spans = [
        (s[0], f"{s[1]}[{'miss' if s[0] in matched else 'hit'}]", *s[2:])
        if s[1] == "grid.service.query" else s
        for s in spans
    ]
    by_root = self_times(spans)
    requests = phase.count()
    round_trips = sum(phase.seconds())
    handled = sum(delta.total("server_request_seconds_sum", endpoint=endpoint)
                  for endpoint, _op, _method in SERVED_BY.values())
    in_service = sum(seconds for layers in by_root.values()
                     for _calls, seconds in layers.values())
    metrics = layer_metrics(
        merge_roots(by_root), work_counts(spans), delta, requests, {
            **demoted_latencies([phase, cycles]),
            "backends.sqlite.db_bytes": workload.db_bytes,
            "backends.sqlite.wal_bytes": workload.wal_bytes,
            "server.handler_self_us_per_request":
                1e6 * (handled - in_service) / requests,
            "server.wire_us_per_request":
                1e6 * (round_trips - handled) / requests,
            "server.cpu_s_per_kreq": 1e3 * workload.cpu / requests,
            "obs.events_bytes_per_op": workload.events_bytes / requests,
            "process.cpu_s": workload.cpu,
            "trace.overhead_pct":
                100.0 * (untraced_rate - wall_rate(phase.blocks)) / untraced_rate,
        })
    accounting, outside_service = {}, {}
    for kind, (endpoint, _op, method) in SERVED_BY.items():
        count = phase.count(kind)
        if not count:
            continue
        round_trip = sum(phase.seconds(kind)) / count
        in_handler = delta.total(
            "server_request_seconds_sum", endpoint=endpoint) / count
        shares = {"server.wire": round_trip - in_handler}
        below = 0.0
        for root, layers in by_root.items():
            if not root.startswith(f"grid.service.{method}"):
                continue
            for name, (_calls, seconds) in layers.items():
                name = "grid.service" if name == root else name
                shares[name] = shares.get(name, 0.0) + seconds / count
                below += seconds / count
        shares["server.handler"] = in_handler - below
        outside_service[kind] = round_trip - below
        accounting[kind] = {
            "calls": count,
            "traced_ms_per_call": 1e3 * round_trip,
            "unexplained_share": 0.0,
            "share": {name: seconds / round_trip
                      for name, seconds in sorted(shares.items())},
        }
    hit = by_root.get("grid.service.query[hit]")
    if hit:
        calls = hit["grid.service.query[hit]"][0]
        # Wire and handler time do not depend on what the cache said.
        outside = 1e3 * outside_service["query"]
        service = 1e3 * hit["grid.service.query[hit]"][1] / calls
        below = 1e3 * sum(s for name, (_c, s) in hit.items()
                          if name != "grid.service.query[hit]") / calls
        accounting["query[hit]"] = {
            "calls": calls,
            "traced_ms_per_call": outside + service + below,
            "server_and_service_share":
                (outside + service) / (outside + service + below),
        }
    return metrics, accounting


def run(seed, seconds, trace, workdir):
    """One run of ``serve_mixed``; same result shape as
    ``inprocess.run``."""
    setups = []
    workload = None
    for repeat in range(1 if trace else SETUP_REPEATS):
        if workload is not None:
            workload.server.stop()
        start = time.perf_counter()
        workload = ServeMixed(seed, seconds)
        workload.setup(os.path.join(workdir, f"setup{repeat}"))
        setups.append(time.perf_counter() - start)
    result = {"sizes": workload.sizes, "info": {}}
    try:
        phase, delta = workload.main()
        failures = workload.failures(phase, delta)
        attempted = phase.count()
        if trace:
            rate = wall_rate(phase.blocks)
            workload.server.stop()
            spans_path = os.path.join(workdir, "spans.json")
            workload = ServeMixed(seed, seconds)
            workload.setup(os.path.join(workdir, "traced"), spans_path)
            phase, delta = workload.main()
            failures += workload.failures(phase, delta)
            attempted += phase.count()
        pages = workload.quiesced_pages()
        peak_rss = workload.server.peak_rss_mb()
    finally:
        workload.server.stop()

    client = in_process_client(workload)
    failures += check_pages(workload, client, pages)
    if trace:
        cycles, _stored = restart(workload, workload.workdir, client)
        result["per_layer"], result["info"]["accounting"] = traced_layers(
            workload, phase, delta, spans_path, rate, cycles)
    else:
        tail = client.run(("delete", n) for n in workload.deletes)
        attempted += tail.count()
        _cycles, stored = restart(workload, workload.workdir, client)
        result["end_to_end"] = {
            **bounded_latencies([phase, tail]),
            "setup_s": (quiet_low(setups), len(setups)),
            "ops_per_s": (CLIENTS * wall_rate(phase.blocks), phase.count()),
            "bytes_per_user_byte": (stored / client.user_bytes(), 1),
            "peak_rss_mb": (peak_rss, 1),
        }
    result["attempted"] = attempted
    result["failures"] = failures + client.failures + check_outputs(
        client, workload.pool + workload.queries.fresh(ORACLE_QUERIES - POOL),
        workload.rng, result["info"])
    client.catalog.store.close()
    return result
