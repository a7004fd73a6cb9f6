"""The server's request framing, over raw sockets.

The handler parses request heads itself, so these tests pin what the
``http.server`` machinery used to answer — line and header limits,
malformed lines, connection persistence, ``100 Continue`` — and how a
request body is framed: by one well-formed ``Content-Length``, or the
request gets a 4xx and the connection closes.  No framing error may
cost a 5xx, a reply-less drop, or a body left in the socket to be
parsed as the next request.
"""

import socket

import pytest

from repro.core import HybridCatalog
from repro.grid import MyLeadService, lead_schema
from repro.obs import MetricsRegistry
from repro.server import CatalogServer, ServerConfig


@pytest.fixture()
def server():
    catalog = HybridCatalog(lead_schema(), metrics=MetricsRegistry())
    srv = CatalogServer(MyLeadService(lead_schema(), catalog), ServerConfig())
    srv.start()
    yield srv
    srv.close()


class Connection:
    """A raw client socket that reads whole responses off the stream."""

    def __init__(self, srv):
        self.sock = socket.create_connection((srv.host, srv.port), timeout=10)
        self.stream = self.sock.makefile("rb")

    def send(self, data):
        self.sock.sendall(data)

    def response(self):
        """``(status, lower-cased headers, body)`` of the next response."""
        status_line = self.stream.readline()
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = self.stream.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.stream.read(int(headers.get("content-length", 0)))
        return status, headers, body

    def closed(self):
        """Whether the server closed the connection (EOF, not a stall)."""
        return self.stream.read(1) == b""

    def close(self):
        self.stream.close()
        self.sock.close()


@pytest.fixture()
def connect(server):
    opened = []

    def open_connection():
        conn = Connection(server)
        opened.append(conn)
        return conn

    yield open_connection
    for conn in opened:
        conn.close()


def health(conn):
    conn.send(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
    return conn.response()[0]


USER_BODY = b'{"user": "ann"}'


def post_users(headers, body=USER_BODY):
    return (b"POST /v1/users HTTP/1.1\r\nHost: x\r\n" + headers
            + b"\r\n" + body)


# ---------------------------------------------------------------------------
# Framing errors: a 4xx and a closed connection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", [b"/v1/users", b"/v1/nope"])
@pytest.mark.parametrize("length", [b"abc", b"-5", b"1e3", b"\xb2"])
def test_malformed_content_length_is_400_and_closes(connect, path, length):
    conn = connect()
    conn.send(b"POST " + path + b" HTTP/1.1\r\nContent-Length: " + length
              + b"\r\n\r\n" + USER_BODY)
    status, headers, body = conn.response()
    assert status == 400, body
    assert b"Content-Length" in body
    assert conn.closed()


def test_conflicting_content_lengths_are_400_and_close(connect):
    conn = connect()
    conn.send(post_users(b"Content-Length: 15\r\nContent-Length: 2\r\n"))
    assert conn.response()[0] == 400
    assert conn.closed()
    # Repeating the same length is one length.
    conn = connect()
    conn.send(post_users(b"Content-Length: 15\r\nContent-Length: 15\r\n"))
    assert conn.response()[0] == 201
    assert health(conn) == 200


def test_transfer_encoding_is_411_and_closes(connect):
    conn = connect()
    conn.send(post_users(b"Transfer-Encoding: chunked\r\n",
                         b"f\r\n" + USER_BODY + b"\r\n0\r\n\r\n"))
    status, _headers, _body = conn.response()
    assert status == 411
    assert conn.closed()
    # The chunked body was never taken for a request: ann does not exist.
    conn = connect()
    conn.send(b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 15\r\n\r\n"
              + USER_BODY)
    assert conn.response()[0] == 404


def test_short_body_is_400(connect):
    conn = connect()
    conn.send(post_users(b"Content-Length: 40\r\n"))
    conn.sock.shutdown(socket.SHUT_WR)
    status, _headers, body = conn.response()
    assert status == 400 and b"ended after 15 of 40 bytes" in body
    assert conn.closed()


def test_body_over_the_cap_is_400_and_closes_on_any_route(connect):
    for path in (b"/v1/users", b"/v1/nope"):
        conn = connect()
        conn.send(b"POST " + path + b" HTTP/1.1\r\nContent-Length: "
                  + b"9" * 30 + b"\r\n\r\n")
        status, _headers, body = conn.response()
        assert status == 400 and b"exceeds" in body
        assert conn.closed()


def test_unknown_route_drains_its_body_and_keeps_the_connection(connect):
    conn = connect()
    conn.send(b"POST /v1/nope HTTP/1.1\r\nContent-Length: 15\r\n\r\n"
              + USER_BODY)
    assert conn.response()[0] == 404
    assert health(conn) == 200


# ---------------------------------------------------------------------------
# What http.server answered, kept
# ---------------------------------------------------------------------------

def test_request_line_over_65536_bytes_is_414(connect):
    conn = connect()
    conn.send(b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n")
    assert conn.response()[0] == 414
    assert conn.closed()


def test_header_line_over_65536_bytes_is_431(connect):
    conn = connect()
    conn.send(b"GET /v1/health HTTP/1.1\r\nX-Big: " + b"a" * 65536 + b"\r\n\r\n")
    assert conn.response()[0] == 431
    assert conn.closed()


def test_101_headers_are_431(connect):
    conn = connect()
    conn.send(b"GET /v1/health HTTP/1.1\r\n"
              + b"".join(b"X-H%d: v\r\n" % i for i in range(99)) + b"\r\n")
    assert conn.response()[0] == 200
    conn.send(b"GET /v1/health HTTP/1.1\r\n"
              + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n")
    assert conn.response()[0] == 431
    assert conn.closed()


def test_header_line_without_a_colon_is_400(server, connect):
    conn = connect()
    conn.send(post_users(b"Content-Type: application/json\r\nno colon here\r\n"
                         b"Content-Length: 15\r\n"))
    assert conn.response()[0] == 400
    assert not server.service.has_user("ann")


# http.server answered these two without a status line (an HTTP/0.9
# reply); the handler answers them as HTTP/1.1.

@pytest.mark.parametrize("line", [b"GARBAGE", b"GET /v1/health HTTP/1.1 extra",
                                  b"GET /v1/health HTTP/x.y"])
def test_malformed_request_line_is_400(connect, line):
    conn = connect()
    conn.send(line + b"\r\n\r\n")
    assert conn.response()[0] == 400
    assert conn.closed()


def test_http_2_request_line_is_505(connect):
    conn = connect()
    conn.send(b"GET /v1/health HTTP/2.0\r\n\r\n")
    assert conn.response()[0] == 505
    assert conn.closed()


def test_http_1_0_closes_after_the_reply(connect):
    conn = connect()
    conn.send(b"GET /v1/health HTTP/1.0\r\n\r\n")
    assert conn.response()[0] == 200
    assert conn.closed()


def test_connection_close_closes_after_the_reply(connect):
    conn = connect()
    conn.send(b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert conn.response()[0] == 200
    assert conn.closed()


def test_keep_alive_serves_many_requests_on_one_connection(connect):
    conn = connect()
    assert [health(conn) for _ in range(5)] == [200] * 5


def test_expect_100_continue_gets_100_before_the_body(server, connect):
    conn = connect()
    conn.send(b"POST /v1/users HTTP/1.1\r\nExpect: 100-continue\r\n"
              b"Content-Length: 15\r\n\r\n")
    # Nothing of the body has been sent: the interim reply comes first.
    assert conn.stream.readline() == b"HTTP/1.1 100 Continue\r\n"
    assert conn.stream.readline() == b"\r\n"
    conn.send(USER_BODY)
    assert conn.response()[0] == 201
    assert server.service.has_user("ann")
