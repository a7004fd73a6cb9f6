"""The catalog HTTP server: one threaded process, many grid users.

A ``ThreadingHTTPServer`` front-end over one shared multi-user
:class:`~repro.grid.service.MyLeadService`.  Every request-handling
thread runs the full in-process stack — the service's RWLock-guarded
bookkeeping and the store's pooled sqlite readers were built for
exactly this — so the server adds no query semantics of its own, only
transport, identity, and protection:

* **Sessions** (:mod:`.auth`): ``POST /v1/sessions`` turns a user name
  into a bearer token; every catalog endpoint requires one and is
  scoped to the session's user.
* **Rate limiting** (:mod:`.ratelimit`): a per-user token bucket sheds
  load with ``429`` before the request touches the catalog.
* **Streaming search**: ``POST /v1/search`` pages through the match
  set (``offset``/``limit``) and writes each object's XML response as
  its own HTTP/1.1 chunk — the set-wise response builder emits
  per-object, so the body is byte-identical to the in-process
  ``search()`` slice while never materializing more than one page.
* **Observability**: request counts/latency land in the service
  catalog's metrics registry (``server_*`` series, exposed at
  ``GET /v1/metrics``); requests slower than the configured threshold
  emit ``slow_request`` events to the catalog's event log.

Endpoints (JSON bodies unless noted)::

    GET    /v1/health                       liveness + catalog shape
    GET    /v1/metrics                      Prometheus exposition
    POST   /v1/users        {user}          register a service user
    POST   /v1/sessions     {user}          open a session -> {token}
    DELETE /v1/sessions                     close the presented session
    GET    /v1/experiments                  the session user's experiments
    POST   /v1/experiments  {name}          create an experiment
    POST   /v1/files        {experiment_id, document, name?, public?}
    POST   /v1/publish      {object_id}
    POST   /v1/unpublish    {object_id}
    POST   /v1/derivations  {derived_id, source_id}
    POST   /v1/query        {query}         -> {ids, total}
    POST   /v1/fetch        {ids}           -> {documents}
    POST   /v1/search       {query, offset?, limit?}   chunked XML
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from ..errors import CatalogError, ReproError
from ..grid.service import MyLeadService
from ..obs import render_prometheus
from ..xmlkit import XMLSyntaxError
from .auth import SessionManager
from .protocol import query_from_payload
from .ratelimit import RateLimiter

__all__ = ["CatalogServer", "ServerConfig"]

#: Cap on accepted request bodies; a metadata document is kilobytes.
MAX_BODY_BYTES = 8 * 1024 * 1024


class ServerConfig:
    """Knobs for one :class:`CatalogServer`."""

    __slots__ = ("host", "port", "rate_limit", "burst", "session_ttl",
                 "slow_request_threshold", "default_page_limit")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
        session_ttl: Optional[float] = None,
        slow_request_threshold: Optional[float] = None,
        default_page_limit: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.rate_limit = rate_limit
        self.burst = burst
        self.session_ttl = session_ttl
        self.slow_request_threshold = slow_request_threshold
        self.default_page_limit = default_page_limit


def _status_for(exc: Exception) -> int:
    """Map a rejected request to an HTTP status: ownership and
    visibility refusals are 403, unknown names 404, duplicates 409,
    anything else — including a document that does not parse, shred or
    validate — a plain 400; never a 5xx."""
    if not isinstance(exc, CatalogError):
        return 400
    message = str(exc)
    if "not visible" in message or "belongs to" in message:
        return 403
    if message.startswith(("no user", "no object", "no experiment")):
        return 404
    if "already exists" in message:
        return 409
    return 400


class _Route:
    __slots__ = ("endpoint", "handler", "auth", "stream")

    def __init__(self, endpoint: str, handler: str,
                 auth: bool = True, stream: bool = False) -> None:
        self.endpoint = endpoint
        self.handler = handler
        self.auth = auth
        self.stream = stream


_ROUTES: Dict[Tuple[str, str], _Route] = {
    ("GET", "/v1/health"): _Route("health", "handle_health", auth=False),
    ("GET", "/v1/metrics"): _Route("metrics", "handle_metrics", auth=False),
    ("POST", "/v1/users"): _Route("users", "handle_create_user", auth=False),
    ("POST", "/v1/sessions"): _Route(
        "sessions", "handle_open_session", auth=False
    ),
    ("DELETE", "/v1/sessions"): _Route("sessions", "handle_close_session"),
    ("GET", "/v1/experiments"): _Route(
        "experiments", "handle_list_experiments"
    ),
    ("POST", "/v1/experiments"): _Route(
        "experiments", "handle_create_experiment"
    ),
    ("POST", "/v1/files"): _Route("files", "handle_add_file"),
    ("POST", "/v1/publish"): _Route("publish", "handle_publish"),
    ("POST", "/v1/unpublish"): _Route("unpublish", "handle_unpublish"),
    ("POST", "/v1/derivations"): _Route(
        "derivations", "handle_record_derivation"
    ),
    ("POST", "/v1/query"): _Route("query", "handle_query"),
    ("POST", "/v1/fetch"): _Route("fetch", "handle_fetch"),
    ("POST", "/v1/search"): _Route("search", "handle_search", stream=True),
}


class _StreamedSearch:
    """A paginated search result the handler writes as chunks."""

    __slots__ = ("total", "ids", "documents", "offset")

    def __init__(self, total: int, ids, documents, offset: int) -> None:
        self.total = total
        self.ids = ids
        self.documents = documents
        self.offset = offset


class CatalogServer:
    """The threaded HTTP front-end over one multi-user service."""

    def __init__(self, service: MyLeadService,
                 config: Optional[ServerConfig] = None) -> None:
        self.service = service
        self.config = config if config is not None else ServerConfig()
        registry = service.catalog.metrics
        self._requests = registry.counter(
            "server_requests_total",
            "HTTP requests served, by endpoint and status",
            labels=("endpoint", "status"),
        )
        self._latency = registry.histogram(
            "server_request_seconds",
            "HTTP request wall time by endpoint",
            labels=("endpoint",),
        )
        self._rate_limited = registry.counter(
            "server_rate_limited_total",
            "requests rejected by the per-user rate limiter",
        )
        self._auth_failures = registry.counter(
            "server_auth_failures_total",
            "requests rejected for a missing or invalid session token",
        )
        self._sessions_gauge = registry.gauge(
            "server_sessions", "session tokens currently active"
        )
        self._streamed = registry.counter(
            "server_streamed_objects_total",
            "XML objects written through streamed search responses",
        )
        self.sessions = SessionManager(
            ttl=self.config.session_ttl,
            on_change=self._sessions_gauge.set,
        )
        self.limiter = RateLimiter(self.config.rate_limit, self.config.burst)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _CatalogRequestHandler
        )
        self._httpd.daemon_threads = True
        self._httpd.app = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._httpd.serve_forever()

    def start(self) -> "CatalogServer":
        """Serve on a background thread (tests, embedding)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, daemon=True
            )
            self._thread.start()
        return self

    def shutdown(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def close(self) -> None:
        self.shutdown()
        self._httpd.server_close()

    def __enter__(self) -> "CatalogServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request accounting (called by the handler)
    # ------------------------------------------------------------------
    def observe(self, endpoint: str, status: int, seconds: float,
                user: Optional[str]) -> None:
        self._requests.labels(endpoint=endpoint, status=str(status)).inc()
        self._latency.labels(endpoint=endpoint).observe(seconds)
        threshold = self.config.slow_request_threshold
        events = self.service.catalog.events
        if threshold is not None and events is not None and seconds > threshold:
            events.emit(
                "slow_request",
                endpoint=endpoint,
                user=user or "",
                status=status,
                seconds=seconds,
                threshold=threshold,
            )

    def count_auth_failure(self) -> None:
        self._auth_failures.inc()

    def count_rate_limited(self) -> None:
        self._rate_limited.inc()

    def count_streamed(self, objects: int) -> None:
        if objects:
            self._streamed.inc(objects)

    # ------------------------------------------------------------------
    # Endpoint handlers: (user, payload, query_params) -> (status, body)
    # ------------------------------------------------------------------
    def handle_health(self, user, payload, params):
        return 200, {
            "status": "ok",
            "objects": len(self.service.catalog),
            "users": len(self.service.users()),
            "sessions": self.sessions.active(),
        }

    def handle_metrics(self, user, payload, params):
        return 200, render_prometheus(self.service.catalog.metrics)

    def handle_create_user(self, user, payload, params):
        name = _required_str(payload, "user")
        self.service.create_user(name)
        return 201, {"user": name}

    def handle_open_session(self, user, payload, params):
        name = _required_str(payload, "user")
        if not self.service.has_user(name):
            raise CatalogError(f"no user {name!r}")
        token = self.sessions.open(name)
        return 201, {"token": token, "user": name}

    def handle_close_session(self, user, payload, params, token=None):
        closed = self.sessions.close(token) if token else False
        return 200, {"closed": closed}

    def handle_list_experiments(self, user, payload, params):
        experiments = self.service.experiments_of(user)
        return 200, {
            "experiments": [
                {
                    "experiment_id": exp.experiment_id,
                    "name": exp.name,
                    "object_id": exp.object_id,
                    "files": len(exp.file_ids),
                }
                for exp in experiments
            ]
        }

    def handle_create_experiment(self, user, payload, params):
        name = _required_str(payload, "name")
        experiment = self.service.create_experiment(user, name)
        return 201, {
            "experiment_id": experiment.experiment_id,
            "object_id": experiment.object_id,
            "name": experiment.name,
        }

    def handle_add_file(self, user, payload, params):
        experiment = self.service.experiment(
            _required_int(payload, "experiment_id")
        )
        document = _required_str(payload, "document")
        receipt = self.service.add_file(
            user,
            experiment,
            document,
            name=str(payload.get("name", "")),
            public=bool(payload.get("public", False)),
        )
        return 201, {
            "object_id": receipt.object_id,
            "clob_count": receipt.clob_count,
            "element_count": receipt.element_count,
            "warnings": list(receipt.warnings),
        }

    def handle_publish(self, user, payload, params):
        object_id = _required_int(payload, "object_id")
        self.service.publish(user, object_id)
        return 200, {"published": object_id}

    def handle_unpublish(self, user, payload, params):
        object_id = _required_int(payload, "object_id")
        self.service.unpublish(user, object_id)
        return 200, {"unpublished": object_id}

    def handle_record_derivation(self, user, payload, params):
        derived = _required_int(payload, "derived_id")
        source = _required_int(payload, "source_id")
        self.service.record_derivation(user, derived, source)
        return 200, {"derived_id": derived, "source_id": source}

    def handle_query(self, user, payload, params):
        query = query_from_payload(payload.get("query"))
        ids = self.service.query(user, query)
        return 200, {"ids": ids, "total": len(ids)}

    def handle_fetch(self, user, payload, params):
        ids = payload.get("ids")
        if not isinstance(ids, list) or not all(map(_is_int, ids)):
            raise CatalogError("'ids' must be a list of integers")
        documents = self.service.fetch(user, ids)
        return 200, {"documents": {str(i): documents[i] for i in ids}}

    def handle_search(self, user, payload, params):
        query = query_from_payload(payload.get("query"))
        offset = payload.get("offset", 0)
        limit = payload.get("limit", self.config.default_page_limit)
        if not _is_int(offset):
            raise CatalogError("'offset' must be an integer")
        if limit is not None and not _is_int(limit):
            raise CatalogError("'limit' must be an integer or null")
        total, ids, documents = self.service.search_slice(
            user, query, offset, limit
        )
        return 200, _StreamedSearch(total, ids, documents, offset)


def _required_str(payload: Dict[str, Any], key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise CatalogError(f"request needs a non-empty string {key!r}")
    return value


def _is_int(value: Any) -> bool:
    """A JSON integer: ``true`` / ``false`` decode to ``bool``, which
    Python counts as ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _required_int(payload: Dict[str, Any], key: str) -> int:
    value = payload.get(key)
    if not _is_int(value):
        raise CatalogError(f"request needs an integer {key!r}")
    return value


class _CatalogRequestHandler(BaseHTTPRequestHandler):
    """Per-request plumbing: routing, auth, rate limit, accounting.

    HTTP/1.1 with keep-alive — every non-chunked response carries an
    exact ``Content-Length``; streamed search uses chunked transfer
    (one chunk per XML object)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-catalog/1"
    sys_version = ""
    # Headers and body go out in separate send() calls; without
    # TCP_NODELAY that pattern hits the Nagle/delayed-ACK stall
    # (~40 ms per response on loopback).
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request accounting goes through metrics, not stderr

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def do_DELETE(self) -> None:
        self._handle("DELETE")

    # ------------------------------------------------------------------
    @property
    def app(self) -> CatalogServer:
        return self.server.app  # type: ignore[attr-defined]

    def _handle(self, method: str) -> None:
        app = self.app
        parsed = urlsplit(self.path)
        route = _ROUTES.get((method, parsed.path))
        if route is None:
            self._drain_body()
            self._finish("unknown", 404,
                         {"error": f"no route {method} {parsed.path}"},
                         time.monotonic(), None)
            return
        start = time.monotonic()
        user: Optional[str] = None
        token = self._bearer_token()
        try:
            # Drain the body unconditionally: a rejected request must
            # not leave its bytes in the socket, or the next keep-alive
            # request on this connection parses them as a request line.
            payload = self._read_json_body()
            if route.auth:
                user = app.sessions.resolve(token)
                if user is None:
                    app.count_auth_failure()
                    self._finish(route.endpoint, 401,
                                 {"error": "missing or invalid session token"},
                                 start, None)
                    return
                if not app.limiter.allow(user):
                    app.count_rate_limited()
                    self._finish(route.endpoint, 429,
                                 {"error": "rate limit exceeded"},
                                 start, user)
                    return
            handler = getattr(app, route.handler)
            if route.handler == "handle_close_session":
                status, body = handler(user, payload, parsed.query,
                                       token=token)
            else:
                status, body = handler(user, payload, parsed.query)
        except (ReproError, XMLSyntaxError) as exc:
            self._finish(route.endpoint, _status_for(exc),
                         {"error": str(exc)}, start, user)
            return
        except Exception as exc:  # noqa: BLE001 - the 5xx boundary
            self._finish(route.endpoint, 500,
                         {"error": f"internal error: {type(exc).__name__}"},
                         start, user)
            return
        if isinstance(body, _StreamedSearch):
            self._finish_stream(route.endpoint, body, start, user)
        else:
            self._finish(route.endpoint, status, body, start, user)

    # ------------------------------------------------------------------
    def _bearer_token(self) -> Optional[str]:
        header = self.headers.get("Authorization", "")
        if header.startswith("Bearer "):
            return header[len("Bearer "):].strip()
        return None

    def _drain_body(self) -> None:
        """Consume an unwanted request body so keep-alive stays in sync."""
        length = int(self.headers.get("Content-Length") or 0)
        if 0 < length <= MAX_BODY_BYTES:
            self.rfile.read(length)

    def _read_json_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # Too big to drain: drop the connection after responding
            # instead of leaving unread bytes on a keep-alive socket.
            self.close_connection = True
            raise CatalogError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except ValueError:
            raise CatalogError("request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise CatalogError("request body must be a JSON object")
        return payload

    def _finish(self, endpoint: str, status: int, body, start: float,
                user: Optional[str]) -> None:
        if isinstance(body, str):
            data = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = (json.dumps(body) + "\n").encode("utf-8")
            content_type = "application/json"
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage
        self.app.observe(endpoint, status, time.monotonic() - start, user)

    def _finish_stream(self, endpoint: str, result: _StreamedSearch,
                       start: float, user: Optional[str]) -> None:
        """One chunk per XML object; the concatenated body is
        byte-identical to the in-process ``search()`` slice."""
        app = self.app
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/xml; charset=utf-8")
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("X-Total-Matches", str(result.total))
            self.send_header("X-Offset", str(result.offset))
            self.send_header(
                "X-Object-Ids", ",".join(str(i) for i in result.ids)
            )
            self.end_headers()
            for document in result.documents:
                data = document.encode("utf-8")
                if not data:
                    continue
                self.wfile.write(b"%x\r\n" % len(data) + data + b"\r\n")
                # Counted before the terminator goes out: the metric
                # must already be visible when the client observes the
                # end of the stream.
                app.count_streamed(1)
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # a half-written stream cannot be repaired over HTTP
        app.observe(endpoint, 200, time.monotonic() - start, user)
