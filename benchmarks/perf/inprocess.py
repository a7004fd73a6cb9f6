"""The three single-client, in-process workloads.

Each is one closed loop: the client issues its next operation when the
previous one has returned, as a scientist's script or a workflow engine
does.  Sizes are operation counts, fixed by ``--seconds`` (so that the
timed part takes about that long at the seed commit) and by nothing
else: the same seed gives the same operations, and every count repeats.
"""

import gc
import itertools
import os
import random
import resource
import time
from collections import defaultdict

import inputs
from estimators import (
    Phase,
    durations,
    percentile,
    quiet_low,
    wall_rate,
)
from layers import (
    CounterDelta,
    Counters,
    layer_metrics,
    merge_roots,
    trace_catalog,
)
from repro.backends.sqlite import SqliteHybridStore
from repro.baselines import evaluate_shredded_query
from repro.core import HybridCatalog, check_catalog
from repro.grid import lead_schema
from repro.obs import MetricsRegistry, render_prometheus
from repro.xmlkit import parse
from spans import SpanRecorder, self_times, work_counts

SETUP_REPEATS = 3
REOPEN_CYCLES = 15
PAGE = 10
#: ``check_catalog`` compares every ancestor row with every other one:
#: 9.6 s at 1,500 documents.  Above this many objects the run skips it
#: and says so.
CHECK_CATALOG_MAX_OBJECTS = 700
ORACLE_QUERIES = 200
ORACLE_DOCUMENTS = 120
PARSED_RESPONSES = 200

#: Which samples give which end-to-end latency: (p50, p95 or None).
LATENCY_METRICS = {
    "ingest": ("ingest_p50_ms", "ingest_p95_ms"),
    "query": ("query_p50_ms", "query_p95_ms"),
    "search": ("search_p50_ms", "search_p95_ms"),
    "fetch": ("fetch_p50_ms", None),
    "delete": ("delete_p50_ms", None),
    "reopen": ("backends.sqlite.reopen_ms", None),
}
#: Measured like the others but reported with the per-layer metrics,
#: from the traced run: no bound the contract allows holds them on a
#: shared box (README, "Demoted").
DEMOTED = ("ingest_docs_per_s", "ingest_p95_ms", "query_p95_ms",
           "search_p95_ms", "backends.sqlite.reopen_ms")


def scaled(count, seconds, floor):
    """``count`` is the size of the reference 10-second run."""
    return max(floor, round(count * seconds / 10))


def open_catalog(workdir=None):
    """A catalog with a registry of its own: on the sqlite file in
    ``workdir`` (created or reopened), or in memory."""
    store = None
    if workdir is not None:
        os.makedirs(workdir, exist_ok=True)
        store = SqliteHybridStore(os.path.join(workdir, "catalog.db"))
    return HybridCatalog(lead_schema(), store, metrics=MetricsRegistry())


def latency_metrics(phases):
    """Each latency name, and the ingest rate, from the first phase
    that ran the operation, as ``name -> (value, operations it is taken
    over)``.  The rate is documents per second of time spent inside the
    calls: the rate of one kind of operation inside a mix."""
    out = {}
    seconds = durations(phases, "ingest")
    if seconds:
        out["ingest_docs_per_s"] = (len(seconds) / sum(seconds), len(seconds))
    for kind, (p50, p95) in LATENCY_METRICS.items():
        seconds = durations(phases, kind)
        if seconds:
            out[p50] = (1e3 * percentile(seconds, 0.50), len(seconds))
            if p95:
                out[p95] = (1e3 * percentile(seconds, 0.95), len(seconds))
    return out


def bounded_latencies(phases):
    """The latencies that are end-to-end metrics."""
    return {name: value for name, value in latency_metrics(phases).items()
            if name not in DEMOTED}


def demoted_latencies(phases):
    """The demoted ones, as per-layer values; 0 where nothing ran."""
    latencies = latency_metrics(phases)
    return {name: latencies.get(name, (0.0, 0))[0] for name in DEMOTED}


class Client:
    """One closed-loop client of one in-process catalog, with the
    bookkeeping the output checks need."""

    def __init__(self, catalog, documents):
        self.catalog = catalog
        self.documents = documents
        self.live = []            # object ids, in no particular order
        self.source = {}          # object id -> index of its document
        self.amended = defaultdict(list)   # object id -> theme keys added
        self.failures = []
        self.responses = []       # a sample of (object id, response text)
        self.acknowledged = 0     # ingests minus deletes issued
        self.phase = None         # what the current ``run`` is measuring
        self._bind()

    def _bind(self, wrap=lambda name, action: action):
        catalog = self.catalog
        actions = {
            "ingest": lambda xml: catalog.ingest(xml, name=None),
            "delete": catalog.delete,
            "add_attribute": catalog.add_attribute,
            "query": catalog.query,
            "search": self._search_page,
            "fetch": catalog.fetch,
        }
        self._actions = {kind: wrap(f"op.{kind}", action)
                         for kind, action in actions.items()}

    def trace(self, recorder):
        """From now on every layer boundary and every operation records
        a span."""
        trace_catalog(recorder, self.catalog)
        self._bind(recorder.wrap)

    def _search_page(self, query):
        """One page of a search: ids, then responses for the first ten."""
        ids = self.catalog.query(query)
        responses = self.catalog.fetch(ids[:PAGE])
        return ids, [responses[i] for i in ids[:PAGE]]

    # ------------------------------------------------------------------
    def _timed(self, kind, *args):
        """Only the call into the catalog is timed; resolving ids and
        checking the reply are the client's own work."""
        start = time.perf_counter()
        try:
            result = self._actions[kind](*args)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            result = None
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        self.phase.record(kind, start, end)
        return result

    def _pick(self, number):
        return self.live[number % len(self.live)]

    def _expect(self, condition, message):
        if not condition:
            self.failures.append(message)

    def _keep(self, object_id, text):
        if (len(self.responses) < PARSED_RESPONSES
                and len(self.phase.current.ops) % 4 == 0):
            self.responses.append((object_id, text))

    def ingest(self, index):
        receipt = self._timed("ingest", self.documents[index])
        if receipt is not None:
            self.acknowledged += 1
            self.live.append(receipt.object_id)
            self.source[receipt.object_id] = index
            self._expect(not receipt.warnings,
                         f"ingest {index}: {receipt.warnings[:1]}")

    def delete(self, number):
        slot = number % len(self.live)
        object_id = self.live[slot]
        self.live[slot] = self.live[-1]
        self.live.pop()
        self.acknowledged -= 1
        self._timed("delete", object_id)

    def add_attribute(self, number):
        object_id = self._pick(number)
        key = f"curated_{number}"
        self.amended[object_id].append(key)
        self._timed("add_attribute", object_id, inputs.theme_fragment(key))

    def query(self, query):
        ids = self._timed("query", query)
        self._expect(isinstance(ids, list), "query: no id list")

    def search(self, query):
        result = self._timed("search", query)
        if result is not None:
            ids, page = result
            self._expect(len(page) == min(PAGE, len(ids)), "search: short page")
            if page:
                self._keep(ids[0], page[0])

    def fetch(self, numbers):
        ids = list(dict.fromkeys(self._pick(n) for n in numbers))
        responses = self._timed("fetch", ids)
        if responses is not None:
            self._expect(sorted(responses) == sorted(ids), "fetch: wrong ids")
            self._keep(ids[0], responses[ids[0]])

    def run(self, ops):
        """One closed loop over ``ops``; returns what it measured."""
        phase = self.phase = Phase()
        for kind, arg in ops:
            getattr(self, kind)(arg)
        return phase.finish()

    def counters(self):
        return Counters(render_prometheus(self.catalog.metrics))

    def user_bytes(self):
        """XML bytes of the live objects: each one's document plus the
        fragments added to it."""
        return sum(
            len(self.documents[self.source[object_id]])
            + sum(len(inputs.theme_fragment(key))
                  for key in self.amended.get(object_id, ()))
            for object_id in self.live
        )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_outputs(client, queries, rng, info):
    """Checks that fail the run: every message returned counts as a
    failed operation.  ``info`` is told when a check had to be skipped."""
    catalog, failures = client.catalog, []
    live = set(client.live)
    unamended = [i for i in client.live if i not in client.amended]
    shreds = {
        object_id: catalog.shredder.shred(
            parse(client.documents[client.source[object_id]]))
        for object_id in rng.sample(
            unamended, min(ORACLE_DOCUMENTS, len(unamended)))
    }
    for position, query in enumerate(rng.sample(
            queries, min(ORACLE_QUERIES, len(queries)))):
        ids = catalog.query(query)
        shredded = catalog.shred_query(query)
        expected = {i for i, shred in shreds.items()
                    if evaluate_shredded_query(shredded, shred)}
        if set(ids) & shreds.keys() != expected:
            failures.append(f"sampled query {position} disagrees with the oracle")
        if not set(ids) <= live:
            failures.append(f"sampled query {position} returned a deleted object")
    amendments = sorted(
        (key, object_id)
        for object_id, keys in client.amended.items() for key in keys)
    for key, object_id in rng.sample(amendments, min(50, len(amendments))):
        expected = [object_id] if object_id in live else []
        if catalog.query(inputs.theme_key_query(key)) != expected:
            failures.append(f"amendment {key} is not queryable")
    for object_id, text in client.responses:
        if parse(text).root.tag != catalog.schema.root.tag:
            failures.append(f"response of {object_id} has the wrong root")
    if len(catalog) != client.acknowledged:
        failures.append(
            f"{len(catalog)} objects, {client.acknowledged} acknowledged")
    if len(catalog) <= CHECK_CATALOG_MAX_OBJECTS:
        failures += check_catalog(catalog, deep=True)
    else:
        info["check_catalog"] = (
            f"skipped: {len(catalog)} objects > {CHECK_CATALOG_MAX_OBJECTS}")
    return failures


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def interleaved(tails, rounds=12):
    """The tails cut into ``rounds`` chunks each and dealt round-robin,
    so that every operation type is spread over the whole tail and a
    burst of interference cannot cover all of one type."""
    ops = []
    for r in range(rounds):
        for tail in tails:
            ops += tail[len(tail) * r // rounds:len(tail) * (r + 1) // rounds]
    return ops


class Workload:
    """Inputs from the seed, set-up, main mix, tail.

    The *main* mix is what the workload is for; ``ops_per_s`` is its
    wall-clock rate.  The *tail* runs, against the catalog the main mix
    left, the operation types the mix lacks, so that every end-to-end
    latency is measured in every workload's configuration and a change
    cannot hide a cost in the one workload that does not look.  A type
    neither has is taken from the set-ups' preloading.
    """

    name = ""
    sqlite = False

    def __init__(self, seed, seconds):
        self.seconds = seconds
        self.rng = random.Random(seed * 1_000_003 + 17)
        self.corpus = inputs.corpus(seed)
        self.queries = inputs.QueryGenerator(self.corpus.config, seed)
        self.sizes = {}
        self.preload = 0
        self.build()

    def build(self):
        """Sets ``documents``, ``preload``, ``main``, ``tail`` and
        ``check_queries``."""
        raise NotImplementedError

    def size(self, name, reference, floor):
        self.sizes[name] = scaled(reference, self.seconds, floor)
        return self.sizes[name]

    def numbers(self, kind, count):
        return [(kind, self.rng.getrandbits(32)) for _ in range(count)]

    def fetches(self, count):
        return [("fetch", [self.rng.getrandbits(32) for _ in range(PAGE)])
                for _ in range(count)]

    def open_catalog(self, workdir):
        return open_catalog(workdir if self.sqlite else None)

    def setup(self, workdir):
        """Returns the client and what preloading measured."""
        catalog = self.open_catalog(workdir)
        self.corpus.register_definitions(catalog)
        client = Client(catalog, self.documents)
        return client, client.run(
            ("ingest", index) for index in range(self.preload))


class IngestMemory(Workload):
    name = "ingest_memory"

    def build(self):
        ingests = self.size("ingest", 4200, 60)
        self.documents = [self.corpus.document(i) for i in range(ingests)]
        self.main = [("ingest", i) for i in range(ingests)]
        queries = self.queries.fresh(
            self.size("tail_query", 600, 40) + self.size("tail_search", 300, 20))
        self.check_queries = queries
        cut = self.sizes["tail_query"]
        self.tail = interleaved([
            self.numbers("delete", self.size("tail_delete", 60, 8)),
            [("query", q) for q in queries[:cut]],
            [("search", q) for q in queries[cut:]],
            self.fetches(self.size("tail_fetch", 600, 20)),
        ])


class DiscoverMemory(Workload):
    name = "discover_memory"

    def build(self):
        self.preload = self.size("catalog", 1200, 60)
        reads = self.size("read", 7000, 200)
        self.documents = [self.corpus.document(i) for i in range(self.preload)]
        queries = self.queries.stream(reads, repeat_share=0.0)
        self.check_queries = queries
        # One query in five is a search, and over fifty queries every
        # position of the generator's ten-shape cycle is one once.
        self.main = [
            ("search" if i % 5 == (i // 10) % 5 else "query", query)
            for i, query in enumerate(queries)
        ]
        self.tail = interleaved([
            self.fetches(self.size("tail_fetch", 6000, 20)),
            self.numbers("delete", self.size("tail_delete", 250, 8)),
        ])


class CurateSqlite(Workload):
    name = "curate_sqlite"
    sqlite = True
    #: One curation session: register a batch of outputs, retire and
    #: annotate some objects, then look things up.  Shares 40/15/10/25/10.
    #: Shuffled one by one instead, three queries in four would follow a
    #: write and pay for fresh statistics, and the median would sit on
    #: the edge between the two costs.
    SESSION = (["ingest"] * 8 + ["delete"] * 3 + ["add_attribute"] * 2
               + ["query"] * 5 + ["fetch"] * 2)

    def build(self):
        self.preload = self.size("catalog", 600, 40)
        sessions = self.size("session", 100, 5)
        ingests = sessions * self.SESSION.count("ingest")
        self.documents = [self.corpus.document(i)
                          for i in range(self.preload + ingests)]
        queries = self.queries.fresh(
            sessions * self.SESSION.count("query")
            + self.size("tail_search", 300, 20))
        self.check_queries = queries
        next_document = itertools.count(self.preload)
        next_query = iter(queries)
        self.main = []
        for kind in self.SESSION * sessions:
            if kind == "ingest":
                self.main.append((kind, next(next_document)))
            elif kind == "query":
                self.main.append((kind, next(next_query)))
            elif kind == "fetch":
                self.main += self.fetches(1)
            else:
                self.main += self.numbers(kind, 1)
        self.tail = [("search", q) for q in next_query]


WORKLOADS = {w.name: w for w in (IngestMemory, DiscoverMemory, CurateSqlite)}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def file_bytes(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def database_bytes(workdir):
    path = os.path.join(workdir, "catalog.db")
    return file_bytes(path), file_bytes(path + "-wal")


def restart(workload, workdir, client):
    """What is stored, and for a sqlite catalog what a restart costs:
    close, then ``REOPEN_CYCLES`` timed open-and-first-query cycles,
    then the size of the files.  Leaves ``client`` on a reopened
    catalog.  A memory catalog keeps nothing across a restart; its
    stored bytes are the store's own per-table accounting."""
    cycles = Phase()
    if not workload.sqlite:
        report = client.catalog.storage_report()
        return cycles.finish(), sum(size for _table, _rows, size in report)
    client.catalog.store.close()
    for query in workload.queries.fresh(REOPEN_CYCLES):
        start = time.perf_counter()
        catalog = workload.open_catalog(workdir)
        catalog.query(query)
        cycles.record("reopen", start, time.perf_counter(), alone=True)
        catalog.store.close()
    client.catalog = workload.open_catalog(workdir)
    return cycles.finish(), sum(database_bytes(workdir))


def traced_run(workload, workdir, untraced_rate):
    """Main mix and tail again, on a fresh set-up, with spans on.
    Returns the per-layer metrics, the per-operation accounting, the
    client."""
    client, _preload = workload.setup(workdir)
    recorder = SpanRecorder()
    client.trace(recorder)
    before = client.counters()
    gc_before = gc.get_stats()[2]["collections"]
    cpu_before = time.process_time()
    main = client.run(workload.main)
    tail = client.run(workload.tail)
    cpu = time.process_time() - cpu_before
    gc_runs = gc.get_stats()[2]["collections"] - gc_before
    delta = CounterDelta(before, client.counters())
    by_root = self_times(recorder.spans)
    db_bytes, wal_bytes = database_bytes(workdir) if workload.sqlite else (0, 0)
    cycles, _stored = restart(workload, workdir, client)
    metrics = layer_metrics(
        merge_roots(by_root), work_counts(recorder.spans), delta,
        main.count() + tail.count(), {
            **demoted_latencies([main, tail, cycles]),
            "backends.sqlite.db_bytes": db_bytes,
            "backends.sqlite.wal_bytes": wal_bytes,
            "process.cpu_s": cpu,
            "process.gc_gen2_collections": gc_runs,
            "trace.overhead_pct":
                100.0 * (untraced_rate - wall_rate(main.blocks)) / untraced_rate,
        })
    return metrics, accounting(by_root), client, main.count() + tail.count()


def accounting(by_root):
    """Per operation type: the traced time, each layer's self time, and
    ``unexplained``: the root span's own self time, which is the
    benchmark client's glue and belongs to no layer."""
    out = {}
    for root, layers in by_root.items():
        total = sum(seconds for _calls, seconds in layers.values())
        out[root] = {
            "calls": layers[root][0],
            "traced_ms_per_call": 1e3 * total / layers[root][0],
            "unexplained_share": layers[root][1] / total,
            "share": {name: seconds / total
                      for name, (_calls, seconds) in sorted(layers.items())
                      if name != root},
        }
    return out


def run(name, seed, seconds, trace, workdir):
    """One run of one in-process workload.  Returns ``attempted``,
    ``failures``, ``sizes``, ``info`` and either ``end_to_end``
    (``name -> (value, samples)``) or ``per_layer``."""
    setups, preloads = [], []
    client = None
    for repeat in range(1 if trace else SETUP_REPEATS):
        if client is not None:
            client.catalog.store.close()
            client = None
            gc.collect()
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, seconds)
        directory = os.path.join(workdir, f"setup{repeat}")
        client, preload = workload.setup(directory)
        setups.append(time.perf_counter() - start)
        preloads.append(preload)
    result = {"sizes": workload.sizes, "info": {}}
    main = client.run(workload.main)

    if trace:
        rate, attempted = wall_rate(main.blocks), main.count()
        failures = client.failures
        client.catalog.store.close()
        client = None
        gc.collect()
        (result["per_layer"], result["info"]["accounting"], client,
         traced) = traced_run(workload, os.path.join(workdir, "traced"), rate)
        attempted += traced
    else:
        tail = client.run(workload.tail)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = main.count() + tail.count()
        failures = []
        _cycles, stored = restart(workload, directory, client)
        result["end_to_end"] = {
            **bounded_latencies([main, tail, Phase.merged(preloads)]),
            "setup_s": (quiet_low(setups), len(setups)),
            "ops_per_s": (wall_rate(main.blocks), main.count()),
            "bytes_per_user_byte": (stored / client.user_bytes(), 1),
            "peak_rss_mb": (peak_rss, 1),
        }
    result["attempted"] = attempted
    result["failures"] = failures + client.failures + check_outputs(
        client, workload.check_queries, workload.rng, result["info"])
    client.catalog.store.close()
    return result
