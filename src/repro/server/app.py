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
  set (``offset``/``limit``) and frames each object's XML response as
  its own HTTP/1.1 chunk — the set-wise response builder emits
  per-object, so the body is byte-identical to the in-process
  ``search()`` slice while never materializing more than one page.
* **Transport**: the handler parses each request head itself and
  writes each response in one write (:class:`_CatalogRequestHandler`).
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
from email.utils import formatdate
from http import HTTPStatus
from http.server import ThreadingHTTPServer
from socketserver import StreamRequestHandler
from typing import Any, Dict, Optional, Tuple

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
#: ``http.server``'s limits on a request head: the longest request or
#: header line, and the most header lines.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100
SERVER_NAME = "repro-catalog/1"

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_JSON_TYPE = "application/json"
_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


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
    __slots__ = ("endpoint", "handler", "auth")

    def __init__(self, endpoint: str, handler: str, auth: bool = True) -> None:
        self.endpoint = endpoint
        self.handler = handler
        self.auth = auth


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
    ("POST", "/v1/search"): _Route("search", "handle_search"),
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
        # (endpoint, status) -> its request counter and latency
        # histogram children, resolved once.
        self._observed: Dict[Tuple[str, int], Tuple[Any, Any]] = {}
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
        children = self._observed.get((endpoint, status))
        if children is None:
            children = (
                self._requests.labels(endpoint=endpoint, status=str(status)),
                self._latency.labels(endpoint=endpoint),
            )
            self._observed[(endpoint, status)] = children
        children[0].inc()
        children[1].observe(seconds)
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


class _Reject(Exception):
    """A request head the handler answers without routing it; the
    connection closes after the answer, since where the next request
    starts is unknown."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _CatalogRequestHandler(StreamRequestHandler):
    """Per-connection plumbing: request heads, routing, auth, rate
    limit, accounting.

    HTTP/1.1 with keep-alive.  The handler parses each request head
    itself into a dict keyed by lower-cased header name, with
    ``http.server``'s limits and answers: a request or header line
    over :data:`MAX_LINE_BYTES` is a 414 or 431, more than
    :data:`MAX_HEADERS` header lines a 431, a malformed request line
    or header line a 400, an HTTP/2+ version a 505; HTTP/1.0 and
    ``Connection: close`` close the connection after the reply, and
    ``Expect: 100-continue`` gets ``100 Continue`` before the body is
    read.  The body is framed by ``Content-Length`` alone: a malformed
    or conflicting one is a 400 and ``Transfer-Encoding`` a 411, each
    closing the connection.

    Every response — status line, headers and body — goes out in one
    write.  A non-chunked response carries an exact
    ``Content-Length``; streamed search uses chunked transfer (one
    chunk per XML object)."""

    # Small replies on a keep-alive connection: do not let Nagle hold
    # one back waiting for the client's delayed ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        self.close_connection = False
        while not self.close_connection:
            self._handle_one()

    @property
    def app(self) -> CatalogServer:
        return self.server.app  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def _handle_one(self) -> None:
        try:
            head = self._read_head()
        except _Reject as reject:
            self.close_connection = True
            self._write(reject.status, _JSON_TYPE,
                        _json_bytes({"error": str(reject)}))
            return
        except OSError:
            head = None  # the client reset the connection mid-head
        if head is None:
            self.close_connection = True
            return
        method, target, headers, length = head
        self._handle(method, target, headers, length)

    def _read_head(
        self,
    ) -> Optional[Tuple[str, str, Dict[str, str], int]]:
        """``(method, target, headers, content length)`` of the next
        request, or None when the client closed the connection."""
        rfile = self.rfile
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _Reject(414, "request line too long")
        words = line.decode("iso-8859-1").split()
        if not words:
            return None  # end of stream, or a blank line: no request
        if len(words) != 3:
            raise _Reject(400, f"bad request line {_shown(line)}")
        method, target, version = words
        numbers = _version_numbers(version)
        if numbers is None:
            raise _Reject(400, f"bad request version {version[:64]!r}")
        if numbers >= (2, 0):
            raise _Reject(505, f"unsupported HTTP version {version[:64]!r}")
        headers: Dict[str, str] = {}
        count = 0
        while True:
            line = rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise _Reject(431, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > MAX_HEADERS:
                raise _Reject(431, f"more than {MAX_HEADERS} headers")
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                raise _Reject(400, f"bad header line {_shown(line)}")
            name = name.lower()
            value = value.strip()
            if name not in headers:
                headers[name] = value
            elif name == "content-length" and headers[name] != value:
                raise _Reject(400, "conflicting Content-Length headers")
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        else:
            self.close_connection = numbers < (1, 1)
        if "transfer-encoding" in headers:
            raise _Reject(411, "a request body needs a Content-Length")
        length = headers.get("content-length", "0")
        if not length.isdecimal():
            raise _Reject(400, f"bad Content-Length {length[:64]!r}")
        digits = length.lstrip("0") or "0"
        if len(digits) > 9 or int(digits) > MAX_BODY_BYTES:
            # Too big to drain: answer and drop the connection instead
            # of leaving unread bytes on a keep-alive socket.
            raise _Reject(400, f"request body of {digits[:64]} bytes exceeds "
                               f"the {MAX_BODY_BYTES}-byte cap")
        if (numbers >= (1, 1)
                and headers.get("expect", "").lower() == "100-continue"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return method, target, headers, int(digits)

    def _handle(self, method: str, target: str, headers: Dict[str, str],
                length: int) -> None:
        app = self.app
        start = time.monotonic()
        path, _, query = target.partition("?")
        route = _ROUTES.get((method, path))
        endpoint = route.endpoint if route is not None else "unknown"
        # The body is read whatever the answer: a rejected request must
        # not leave its bytes in the socket, or the next keep-alive
        # request on this connection parses them as a request line.
        try:
            raw = self._read_body(length)
        except CatalogError as exc:  # the client closed mid-body
            self.close_connection = True
            self._finish(endpoint, 400, {"error": str(exc)}, start, None)
            return
        if route is None:
            self._finish(endpoint, 404,
                         {"error": f"no route {method} {path}"},
                         start, None)
            return
        user: Optional[str] = None
        token = _bearer_token(headers)
        try:
            payload = _json_payload(raw)
            if route.auth:
                user = app.sessions.resolve(token)
                if user is None:
                    app.count_auth_failure()
                    self._finish(endpoint, 401,
                                 {"error": "missing or invalid session token"},
                                 start, None)
                    return
                if not app.limiter.allow(user):
                    app.count_rate_limited()
                    self._finish(endpoint, 429,
                                 {"error": "rate limit exceeded"},
                                 start, user)
                    return
            handler = getattr(app, route.handler)
            if route.handler == "handle_close_session":
                status, body = handler(user, payload, query, token=token)
            else:
                status, body = handler(user, payload, query)
        except (ReproError, XMLSyntaxError) as exc:
            self._finish(endpoint, _status_for(exc),
                         {"error": str(exc)}, start, user)
            return
        except Exception as exc:  # noqa: BLE001 - the 5xx boundary
            self._finish(endpoint, 500,
                         {"error": f"internal error: {type(exc).__name__}"},
                         start, user)
            return
        if isinstance(body, _StreamedSearch):
            self._finish_stream(endpoint, body, start, user)
        else:
            self._finish(endpoint, status, body, start, user)

    # ------------------------------------------------------------------
    def _read_body(self, length: int) -> bytes:
        """The request body: ``length`` bytes, the Content-Length the
        head validated."""
        if length == 0:
            return b""
        try:
            raw = self.rfile.read(length)
        except OSError:
            raw = b""
        if len(raw) < length:
            raise CatalogError(
                f"request body ended after {len(raw)} of {length} bytes"
            )
        return raw

    def _head(self, status: int, fields: str) -> bytes:
        """Status line and headers: the common ones, then ``fields``
        (each line ending in CRLF), then the blank line."""
        close = "Connection: close\r\n" if self.close_connection else ""
        return (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            f"Server: {SERVER_NAME}\r\n"
            f"Date: {formatdate(time.time(), usegmt=True)}\r\n"
            f"{fields}{close}\r\n"
        ).encode("latin-1")

    def _write(self, status: int, content_type: str, data: bytes) -> None:
        """One response — status line, headers, body — in one write."""
        head = self._head(
            status,
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n",
        )
        try:
            self.wfile.write(head + data)
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-response; nothing to salvage.
            self.close_connection = True

    def _finish(self, endpoint: str, status: int, body, start: float,
                user: Optional[str]) -> None:
        if isinstance(body, str):
            self._write(status, _PROMETHEUS_TYPE, body.encode("utf-8"))
        else:
            self._write(status, _JSON_TYPE, _json_bytes(body))
        self.app.observe(endpoint, status, time.monotonic() - start, user)

    def _finish_stream(self, endpoint: str, result: _StreamedSearch,
                       start: float, user: Optional[str]) -> None:
        """One chunk per XML object, the whole response in one write;
        the concatenated body is byte-identical to the in-process
        ``search()`` slice."""
        app = self.app
        ids = ",".join(map(str, result.ids))
        parts = [self._head(
            200,
            "Content-Type: application/xml; charset=utf-8\r\n"
            "Transfer-Encoding: chunked\r\n"
            f"X-Total-Matches: {result.total}\r\n"
            f"X-Offset: {result.offset}\r\n"
            f"X-Object-Ids: {ids}\r\n",
        )]
        objects = 0
        for document in result.documents:
            data = document.encode("utf-8")
            if data:
                parts += (b"%x\r\n" % len(data), data, b"\r\n")
                objects += 1
        parts.append(b"0\r\n\r\n")
        # Counted before the write: the metric must already be visible
        # when the client observes the end of the stream.
        app.count_streamed(objects)
        try:
            self.wfile.write(b"".join(parts))
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        app.observe(endpoint, 200, time.monotonic() - start, user)


def _version_numbers(version: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` version, or None."""
    if not version.startswith("HTTP/"):
        return None
    major, dot, minor = version[5:].partition(".")
    for number in (major, minor):
        if not number.isdecimal() or len(number) > 10:
            return None
    if not dot:
        return None
    return int(major), int(minor)


def _shown(line: bytes) -> str:
    return repr(line[:64].decode("iso-8859-1").rstrip("\r\n"))


def _bearer_token(headers: Dict[str, str]) -> Optional[str]:
    header = headers.get("authorization", "")
    if header.startswith("Bearer "):
        return header[len("Bearer "):].strip()
    return None


def _json_payload(raw: bytes) -> Dict[str, Any]:
    if not raw:
        return {}
    try:
        payload = json.loads(raw)
    except (ValueError, RecursionError):
        raise CatalogError("request body is not valid JSON") from None
    if not isinstance(payload, dict):
        raise CatalogError("request body must be a JSON object")
    return payload


def _json_bytes(body: Any) -> bytes:
    return (json.dumps(body) + "\n").encode("utf-8")
