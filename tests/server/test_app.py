"""End-to-end tests for the threaded catalog HTTP server.

Every test runs a real ``CatalogServer`` on an ephemeral port and
drives it through ``CatalogClient`` (stdlib ``http.client``), so the
full stack — routing, auth, rate limiting, the service facade, the
store — is exercised over actual sockets.
"""

import threading

import pytest

from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery
from repro.core.integrity import check_catalog
from repro.grid import FIG3_DOCUMENT, MyLeadService, lead_schema
from repro.obs import EventLog, MetricsRegistry, read_events
from repro.server import CatalogClient, CatalogServer, ServerConfig


def theme_query():
    return ObjectQuery().add_attribute(AttributeCriteria("theme"))


def make_service(registry=None, events=None):
    registry = registry if registry is not None else MetricsRegistry()
    catalog = HybridCatalog(lead_schema(), metrics=registry, events=events)
    return MyLeadService(lead_schema(), catalog)


@pytest.fixture()
def server():
    service = make_service()
    srv = CatalogServer(service, ServerConfig())
    srv.start()
    yield service, srv
    srv.close()


def logged_in_client(srv, user="ann"):
    client = CatalogClient(srv.host, srv.port)
    status, _ = client.create_user(user)
    assert status == 201
    client.open_session(user)
    return client


class TestPlumbing:
    def test_health(self, server):
        _service, srv = server
        with CatalogClient(srv.host, srv.port) as client:
            status, body = client.health()
        assert status == 200
        assert body["status"] == "ok"

    def test_unknown_route_404(self, server):
        _service, srv = server
        with CatalogClient(srv.host, srv.port) as client:
            status, body = client.json("GET", "/v1/nope")
        assert status == 404
        assert "no route" in body["error"]

    def test_invalid_json_body_400(self, server):
        _service, srv = server
        client = logged_in_client(srv)
        with client:
            conn = client._conn
            headers = {"Authorization": f"Bearer {client.token}",
                       "Content-Length": "9"}
            conn.request("POST", "/v1/query", body=b"not json!",
                         headers=headers)
            response = conn.getresponse()
            response.read()
        assert response.status == 400

    def test_metrics_endpoint_exposes_server_series(self, server):
        _service, srv = server
        with CatalogClient(srv.host, srv.port) as client:
            client.health()
            text = client.metrics_text()
        assert "server_requests_total" in text
        assert 'endpoint="health"' in text


class TestAuth:
    def test_missing_token_401(self, server):
        _service, srv = server
        with CatalogClient(srv.host, srv.port) as client:
            status, body = client.create_experiment("e1")
        assert status == 401
        assert "session" in body["error"]

    def test_garbage_token_401(self, server):
        _service, srv = server
        with CatalogClient(srv.host, srv.port, token="f" * 32) as client:
            status, _ = client.query(theme_query())
        assert status == 401

    def test_session_for_unknown_user_404(self, server):
        _service, srv = server
        with CatalogClient(srv.host, srv.port) as client:
            status, body = client.json(
                "POST", "/v1/sessions", {"user": "ghost"}
            )
        assert status == 404

    def test_closed_session_stops_working(self, server):
        _service, srv = server
        client = logged_in_client(srv)
        with client:
            token = client.token
            status, body = client.close_session()
            assert status == 200 and body["closed"] is True
            client.token = token
            status, _ = client.create_experiment("e1")
        assert status == 401

    def test_duplicate_user_409(self, server):
        _service, srv = server
        with CatalogClient(srv.host, srv.port) as client:
            assert client.create_user("ann")[0] == 201
            assert client.create_user("ann")[0] == 409

    def test_auth_failures_counted(self, server):
        service, srv = server
        registry = service.catalog.metrics
        before = registry.counter("server_auth_failures_total").value
        with CatalogClient(srv.host, srv.port) as client:
            client.query(theme_query())
        assert registry.counter("server_auth_failures_total").value == before + 1


class TestCatalogRoundTrip:
    def test_ingest_query_fetch(self, server):
        service, srv = server
        client = logged_in_client(srv)
        with client:
            status, exp = client.create_experiment("run-1")
            assert status == 201
            status, receipt = client.add_file(
                exp["experiment_id"], FIG3_DOCUMENT, name="fig3"
            )
            assert status == 201
            assert receipt["element_count"] > 0
            object_id = receipt["object_id"]
            status, result = client.query(theme_query())
            assert status == 200
            assert result["ids"] == [object_id]
            status, fetched = client.fetch([object_id])
            assert status == 200
            assert fetched["documents"][str(object_id)] == \
                service.catalog.fetch([object_id])[object_id]
            status, listing = client.json("GET", "/v1/experiments")
            assert status == 200
            assert listing["experiments"][0]["files"] == 1

    def test_hostile_documents_400_and_the_connection_survives(self, server):
        """A document that does not parse, has the wrong root, nests
        deep enough to exhaust a recursive parser, or carries a
        reference that resolves to nothing is the client's error: 400,
        never 5xx, and the keep-alive connection stays usable for the
        next request."""
        service, srv = server
        hostile = {
            "malformed": "<LEADresource><data>",
            "wrong root": "<notLEAD><data/></notLEAD>",
            "deeply nested": "<a>" * 1000 + "</a>" * 1000,
            "unknown entity in an attribute": '<LEADresource x="&bogus;"/>',
            "bad digits in an attribute": '<LEADresource x="&#xZZ;"></LEADresource>',
            "character beyond Unicode": "<LEADresource>&#99999999999;</LEADresource>",
        }
        client = logged_in_client(srv)
        with client:
            _, exp = client.create_experiment("run-1")
            for label, document in hostile.items():
                status, body = client.add_file(exp["experiment_id"], document)
                assert status == 400, (label, status, body)
                assert "internal error" not in body["error"], label
            status, receipt = client.add_file(
                exp["experiment_id"], FIG3_DOCUMENT, name="fig3"
            )
            assert status == 201
            assert client.query(theme_query())[1]["ids"] == [receipt["object_id"]]
        requests = service.catalog.metrics.get("server_requests_total")
        by_status = {}
        for labels, metric in requests.series():
            if labels["endpoint"] == "files":
                by_status[labels["status"]] = metric.value
        assert by_status == {"400": 6, "201": 1}
        assert not [
            labels for labels, _m in requests.series()
            if labels["status"].startswith("5")
        ]

    def test_visibility_enforced_over_http(self, server):
        _service, srv = server
        ann = logged_in_client(srv, "ann")
        with ann:
            _, exp = ann.create_experiment("e1")
            _, receipt = ann.add_file(exp["experiment_id"], FIG3_DOCUMENT)
            object_id = receipt["object_id"]
        bob = logged_in_client(srv, "bob")
        with bob:
            status, body = bob.fetch([object_id])
            assert status == 403
            assert "not visible" in body["error"]
            status, result = bob.query(theme_query())
            assert status == 200 and result["ids"] == []

    def test_foreign_experiment_403(self, server):
        _service, srv = server
        ann = logged_in_client(srv, "ann")
        with ann:
            _, exp = ann.create_experiment("e1")
        bob = logged_in_client(srv, "bob")
        with bob:
            status, body = bob.add_file(exp["experiment_id"], FIG3_DOCUMENT)
        assert status == 403
        assert "belongs to" in body["error"]

    def test_publish_unpublish_and_derivations(self, server):
        _service, srv = server
        ann = logged_in_client(srv, "ann")
        with ann:
            _, exp = ann.create_experiment("e1")
            _, a = ann.add_file(exp["experiment_id"], FIG3_DOCUMENT, name="a")
            _, b = ann.add_file(exp["experiment_id"], FIG3_DOCUMENT, name="b")
            assert ann.publish(a["object_id"])[0] == 200
            status, _ = ann.json("POST", "/v1/derivations", {
                "derived_id": b["object_id"], "source_id": a["object_id"],
            })
            assert status == 200
            # A cycle through the chain is a 400, not a 5xx.
            status, body = ann.json("POST", "/v1/derivations", {
                "derived_id": a["object_id"], "source_id": b["object_id"],
            })
            assert status == 400
            assert "cycle" in body["error"]
            assert ann.unpublish(a["object_id"])[0] == 200


class TestStreamingSearch:
    def _seed(self, srv, count=5):
        client = logged_in_client(srv, "ann")
        _, exp = client.create_experiment("e1")
        ids = []
        for i in range(count):
            _, receipt = client.add_file(
                exp["experiment_id"], FIG3_DOCUMENT, name=f"f{i}"
            )
            ids.append(receipt["object_id"])
        return client, ids

    def test_stream_is_byte_identical_to_in_process_search(self, server):
        service, srv = server
        client, _ids = self._seed(srv)
        with client:
            page = client.search(theme_query())
        expected = service.search("ann", theme_query())
        assert page.body == "".join(expected)
        assert page.total == len(expected)

    def test_pagination_slices_the_same_stream(self, server):
        service, srv = server
        client, ids = self._seed(srv, count=5)
        expected = service.search("ann", theme_query())
        with client:
            first = client.search(theme_query(), offset=0, limit=2)
            second = client.search(theme_query(), offset=2, limit=2)
            tail = client.search(theme_query(), offset=4)
        assert first.total == second.total == tail.total == 5
        assert first.ids == ids[0:2]
        assert second.ids == ids[2:4]
        assert tail.ids == ids[4:]
        assert first.body + second.body + tail.body == "".join(expected)

    def test_offset_past_end_is_empty_not_error(self, server):
        _service, srv = server
        client, _ids = self._seed(srv, count=2)
        with client:
            page = client.search(theme_query(), offset=10)
        assert page.total == 2
        assert page.ids == [] and page.body == ""

    def test_negative_offset_400(self, server):
        _service, srv = server
        client, _ids = self._seed(srv, count=1)
        with client:
            status, _headers, _data = client.request(
                "POST", "/v1/search",
                {"query": {"attrs": [{"name": "theme"}]}, "offset": -1},
            )
        assert status == 400

    def test_json_booleans_are_not_integers(self, server):
        """``true`` decodes to ``bool``, which Python counts as ``int``:
        it must not fetch object 1 or stand in for offset 1."""
        _service, srv = server
        client, ids = self._seed(srv, count=2)
        query = {"attrs": [{"name": "theme"}]}
        with client:
            for path, payload in (
                ("/v1/fetch", {"ids": [True]}),
                ("/v1/fetch", {"ids": [ids[0], False]}),
                ("/v1/search", {"query": query, "offset": True}),
                ("/v1/search", {"query": query, "limit": False}),
            ):
                status, _headers, _data = client.request("POST", path, payload)
                assert status == 400, (path, payload)
                assert client.health()[0] == 200
            status, fetched = client.fetch([ids[0]])
        assert status == 200 and list(fetched["documents"]) == [str(ids[0])]

    def test_streamed_objects_counted(self, server):
        service, srv = server
        client, ids = self._seed(srv, count=3)
        counter = service.catalog.metrics.counter(
            "server_streamed_objects_total"
        )
        before = counter.value
        with client:
            client.search(theme_query())
        assert counter.value == before + len(ids)


class TestRateLimit:
    def test_429_after_burst(self):
        service = make_service()
        srv = CatalogServer(
            service, ServerConfig(rate_limit=1.0, burst=3)
        )
        srv.start()
        try:
            client = logged_in_client(srv, "ann")
            with client:
                statuses = [
                    client.query(theme_query())[0] for _ in range(5)
                ]
            assert 429 in statuses
            assert statuses[0] == 200
            limited = service.catalog.metrics.counter(
                "server_rate_limited_total"
            )
            assert limited.value >= 1
        finally:
            srv.close()


class TestSlowRequestEvents:
    def test_slow_request_lands_in_event_log(self, tmp_path):
        log_path = tmp_path / "server.events.jsonl"
        events = EventLog(log_path)
        service = make_service(events=events)
        srv = CatalogServer(
            service, ServerConfig(slow_request_threshold=0.0)
        )
        srv.start()
        try:
            client = logged_in_client(srv, "ann")
            with client:
                client.query(theme_query())
        finally:
            srv.close()
            events.close()
        records = [
            r for r in read_events(log_path) if r["event"] == "slow_request"
        ]
        assert records, "no slow_request event written"
        fields = records[-1]["fields"]
        assert fields["endpoint"] == "query"
        assert fields["user"] == "ann"
        assert fields["status"] == 200
        assert fields["seconds"] > 0.0


class TestClientStorm:
    THREADS = 16
    ROUNDS = 4

    def test_storm_no_5xx_consistent_catalog_exact_ops(self):
        """The acceptance bar: a 16-thread mixed storm finishes with
        zero 5xx, an fsck-clean catalog, and ``service_ops_total``
        exactly equal to the number of op-mapped requests issued."""
        service = make_service()
        srv = CatalogServer(service, ServerConfig())
        srv.start()
        statuses = []
        statuses_lock = threading.Lock()
        op_requests = [0] * self.THREADS
        errors = []

        def worker(i):
            user = f"user-{i}"
            local = []
            try:
                with CatalogClient(srv.host, srv.port) as client:
                    local.append(client.create_user(user)[0])
                    op_requests[i] += 1  # create_user
                    client.open_session(user)  # sessions: not a service op
                    status, exp = client.create_experiment(f"exp-{i}")
                    local.append(status)
                    op_requests[i] += 1  # create_experiment
                    for r in range(self.ROUNDS):
                        status, receipt = client.add_file(
                            exp["experiment_id"], FIG3_DOCUMENT,
                            name=f"{user}-{r}",
                        )
                        local.append(status)
                        object_id = receipt["object_id"]
                        local.append(client.publish(object_id)[0])
                        status, result = client.query(theme_query())
                        local.append(status)
                        assert object_id in result["ids"]
                        local.append(client.fetch([object_id])[0])
                        op_requests[i] += 4  # add_file/publish/query/fetch
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            with statuses_lock:
                statuses.extend(local)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        srv.close()

        assert errors == []
        assert all(status < 500 for status in statuses), statuses
        assert all(status in (200, 201) for status in statuses), statuses
        assert check_catalog(service.catalog) == []
        ops = service.catalog.metrics.get("service_ops_total")
        total_ops = sum(metric.value for _labels, metric in ops.series())
        assert total_ops == sum(op_requests)
