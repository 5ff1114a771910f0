"""End-to-end tests for the HTTP daemon + remote client.

The headline invariant: the wire is *transparent* — two concurrent
remote analysts issuing mixed single/batch workloads land on exactly the
epsilon totals and fresh-release counts the same workload produces when
replayed in process (the disjoint-view workload makes the accounting
order-independent, so the equality is deterministic).  The rest pins the
transport-level contract: status-code mapping (400/401/404/409/503),
idempotent session close, graceful drain, and the snapshot endpoint.
"""

from __future__ import annotations

import gzip
import http.client
import json
import math
import threading
import time

import pytest

from repro.client import RemoteAnalyst, RemoteSession
from repro.datasets import load_adult
from repro.exceptions import (
    ReproError,
    ServiceClosed,
    SessionClosed,
    UnknownAnalyst,
)
from repro.server.daemon import ReproServer
from repro.client.remote import RemoteError
from repro.experiments.service_throughput import make_service_analysts
from repro.service.loadgen import (
    build_disjoint_workload,
    disjoint_view_attribute_sets,
    register_disjoint_views,
)
from repro.service.service import QueryService
from repro.service.session import QueryRequest

ROWS = 800
EPSILON = 48.0
ACCURACY = 2e5


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=ROWS, seed=0)


def make_service(bundle, num_analysts=2, **kwargs) -> QueryService:
    analysts = make_service_analysts(num_analysts)
    service = QueryService.build(bundle, analysts, EPSILON, seed=0,
                                 **kwargs)
    sets_ = disjoint_view_attribute_sets(bundle, num_analysts)
    register_disjoint_views(service.engine, sets_)
    return service


@pytest.fixture()
def server(bundle):
    live = ReproServer(make_service(bundle), port=0).start()
    yield live
    try:
        live.shutdown(drain_timeout=10.0)
    except ReproError:
        pass


def mixed_replay_inproc(service: QueryService, streams) -> None:
    """Replay per-analyst streams: first half single, second half batched."""
    def worker(analyst: str, stream: list[QueryRequest]) -> None:
        session = service.open_session(analyst)
        half = len(stream) // 2
        for request in stream[:half]:
            service.submit(session, request.sql, accuracy=request.accuracy)
        service.submit_batch(session, stream[half:])
        service.close_session(session)

    threads = [threading.Thread(target=worker, args=item)
               for item in streams.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def mixed_replay_remote(url: str, streams) -> None:
    errors: list[BaseException] = []

    def worker(analyst: str, stream: list[QueryRequest]) -> None:
        try:
            with RemoteAnalyst(url, token=analyst) as client:
                session = client.open_session()
                half = len(stream) // 2
                for request in stream[:half]:
                    response = client.submit(session, request.sql,
                                             accuracy=request.accuracy)
                    assert response.ok, response.error
                for response in client.submit_batch(session, stream[half:]):
                    assert response.ok, response.error
                client.close_session(session)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=item)
               for item in streams.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestEndToEnd:
    def test_remote_accounting_identical_to_inproc(self, bundle):
        """Acceptance: two concurrent remote analysts, mixed single/batch
        — epsilon totals and fresh releases match the in-process replay
        exactly."""
        analysts = make_service_analysts(2)
        sets_ = disjoint_view_attribute_sets(bundle, 2)
        streams = build_disjoint_workload(bundle, analysts, 12, sets_,
                                          accuracy=ACCURACY, seed=3)

        reference = make_service(bundle)
        mixed_replay_inproc(reference, streams)
        expected = reference.snapshot()
        reference.close()

        server = ReproServer(make_service(bundle), port=0).start()
        try:
            mixed_replay_remote(server.url, streams)
            observed = server.service.snapshot()
        finally:
            server.shutdown()

        assert observed["provenance"] == expected["provenance"]
        assert observed["service"]["fresh_releases"] == \
            expected["service"]["fresh_releases"]
        assert observed["service"]["epsilon_by_analyst"] == \
            expected["service"]["epsilon_by_analyst"]
        assert observed["service"]["failed"] == 0
        assert observed["service"]["rejected"] == \
            expected["service"]["rejected"]

    def test_scalar_group_by_and_rejection_envelopes(self, server, bundle):
        table = bundle.fact_table
        with RemoteAnalyst(server.url, token="analyst_00") as client:
            session = client.open_session()
            assert session.analyst == "analyst_00"

            scalar = client.submit(session, f"SELECT COUNT(*) FROM {table}",
                                   accuracy=4e4)
            assert scalar.ok and scalar.answer is not None
            assert scalar.value() >= 0.0

            groups = client.submit(
                session, f"SELECT sex, COUNT(*) FROM {table} GROUP BY sex",
                accuracy=4e4)
            assert groups.ok and groups.groups
            assert {key[0] for key, _ in groups.groups} == \
                {"female", "male"}

            # Query-level failure: stays HTTP 200, carried in the envelope.
            failed = client.submit(session, f"SELECT COUNT(*) FROM {table}")
            assert not failed.ok and not failed.rejected

            # Budget refusal: rejected flag set, still not an HTTP error.
            rejected = client.submit(session,
                                     f"SELECT COUNT(*) FROM {table}",
                                     epsilon=10 * EPSILON)
            assert not rejected.ok and rejected.rejected

    def test_health_and_snapshot(self, server):
        with RemoteAnalyst(server.url, token="analyst_01") as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["protocol"] == 1
            snapshot = client.snapshot()
            json.dumps(snapshot, allow_nan=False)
            assert snapshot == server.service.snapshot()


class TestStatusMapping:
    def test_malformed_payload_is_400_with_error_body(self, server):
        conn = http.client.HTTPConnection(server.host, server.port)
        conn.request("POST", "/v1/sessions", body=b"{oops",
                     headers={"Content-Type": "application/json"})
        reply = conn.getresponse()
        body = json.loads(reply.read())
        conn.close()
        assert reply.status == 400
        assert body["kind"] == "bad_request"
        assert body["error"]

    def test_unknown_route_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port)
        conn.request("GET", "/v2/everything")
        reply = conn.getresponse()
        assert reply.status == 400
        assert json.loads(reply.read())["kind"] == "bad_request"
        conn.close()

    @pytest.mark.parametrize("field", ("accuracy", "epsilon"))
    @pytest.mark.parametrize("token", ("NaN", "Infinity", "1e999"))
    def test_non_finite_bound_is_400_and_never_a_charge(self, server, field,
                                                        token):
        """``json.loads`` parses the NaN/Infinity tokens a raw client can
        send; such a bound must die at the protocol, uncharged, and leave
        the view answering finite values."""
        sql = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40"
        provenance = server.service.engine.provenance
        before = provenance.row_totals()
        with RemoteAnalyst(server.url, token="analyst_00") as client:
            session = client.open_session()
            body = f'{{"sql": "{sql}", "{field}": {token}}}'.encode()
            conn = http.client.HTTPConnection(server.host, server.port)
            for path, payload in (
                    ("query", body),
                    ("batch", b'{"requests": [' + body + b']}')):
                conn.request(
                    "POST", f"/v1/sessions/{session.session_id}/{path}",
                    body=payload,
                    headers={"Content-Type": "application/json"})
                reply = conn.getresponse()
                error = json.loads(reply.read())
                assert reply.status == 400
                assert error["kind"] == "bad_request"
                assert "finite" in error["error"]
            conn.close()
            assert provenance.row_totals() == before
            following = client.submit(session, sql, accuracy=ACCURACY)
        assert following.ok and math.isfinite(following.answer.value)
        assert following.answer.epsilon_charged > 0.0

    def test_raw_client_is_served_whether_or_not_it_is_traced(self, server):
        """A client that sends no trace id is traced one request in
        ``DEFAULT_TRACE_SAMPLE``; the requests sampled out are plain
        200s too (they used to hit a 500 adopting the body-read span)."""
        from repro.metrics.tracing import DEFAULT_TRACE_SAMPLE

        sql = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40"
        with RemoteAnalyst(server.url, token="analyst_00") as client:
            session = client.open_session()
        conn = http.client.HTTPConnection(server.host, server.port)
        for _ in range(2 * DEFAULT_TRACE_SAMPLE):
            conn.request("POST", f"/v1/sessions/{session.session_id}/query",
                         body=json.dumps({"sql": sql, "accuracy": ACCURACY}),
                         headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            body = json.loads(reply.read())
            assert reply.status == 200, body
            assert body["error"] is None
        conn.close()

    def test_unknown_token_is_401(self, server):
        with RemoteAnalyst(server.url, token="mallory") as client:
            with pytest.raises(UnknownAnalyst):
                client.open_session()

    def test_unknown_session_is_404(self, server):
        with RemoteAnalyst(server.url, token="analyst_00") as client:
            with pytest.raises(RemoteError) as info:
                client.submit(RemoteSession(9999, "analyst_00"),
                              "SELECT COUNT(*) FROM adult", accuracy=4e4)
        assert info.value.status == 404
        assert info.value.kind == "not_found"

    def test_closed_session_is_409_session_closed(self, server):
        with RemoteAnalyst(server.url, token="analyst_00") as client:
            session = client.open_session()
            client.close_session(session)
            client.close_session(session)  # idempotent DELETE
            with pytest.raises(SessionClosed):
                client.submit(session, "SELECT COUNT(*) FROM adult",
                              accuracy=4e4)
            with pytest.raises(SessionClosed):
                client.submit_batch(session, [QueryRequest(
                    "SELECT COUNT(*) FROM adult", accuracy=4e4)])

    def test_closed_service_is_409_service_closed(self, bundle):
        server = ReproServer(make_service(bundle), port=0).start()
        with RemoteAnalyst(server.url, token="analyst_00") as client:
            session = client.open_session()
            server.service.close()  # operator closed the service directly
            with pytest.raises(ServiceClosed):
                client.submit(session, "SELECT COUNT(*) FROM adult",
                              accuracy=4e4)
            with pytest.raises(ServiceClosed):
                client.open_session()
        server.shutdown()


class TestGzipNegotiation:
    """Protocol v2 content negotiation: bodies at or above
    ``GZIP_MIN_BYTES`` gzip-compress when the client offers
    ``Accept-Encoding: gzip``; old clients (no header) and small bodies
    keep identity encoding, so v1 clients never see compressed bytes.
    """

    @staticmethod
    def _raw(server, method, path, body=None, accept_gzip=False):
        conn = http.client.HTTPConnection(server.host, server.port)
        headers = {"Content-Type": "application/json"}
        if accept_gzip:
            headers["Accept-Encoding"] = "gzip"
        conn.request(method, path, body=body, headers=headers)
        reply = conn.getresponse()
        raw = reply.read()
        conn.close()
        return reply, raw

    def _batch(self, server, bundle, count):
        """Open a session over the raw wire and build a batch body big
        enough to cross the compression threshold."""
        table = bundle.fact_table
        reply, raw = self._raw(server, "POST", "/v1/sessions",
                               body=json.dumps({"token": "analyst_00"}))
        assert reply.status == 200
        session_id = json.loads(raw)["session_id"]
        requests = []
        for index in range(count):
            if index % 2:
                requests.append({
                    "sql": f"SELECT sex, COUNT(*) FROM {table} "
                           f"GROUP BY sex", "accuracy": 4e4})
            else:
                requests.append({"sql": f"SELECT COUNT(*) FROM {table}",
                                 "accuracy": 4e4})
        return (f"/v1/sessions/{session_id}/batch",
                json.dumps({"requests": requests}))

    def test_old_client_keeps_identity_encoding(self, server, bundle):
        path, body = self._batch(server, bundle, 40)
        reply, raw = self._raw(server, "POST", path, body=body)
        assert reply.status == 200
        assert reply.getheader("Content-Encoding") is None
        from repro.server.daemon import GZIP_MIN_BYTES
        assert len(raw) >= GZIP_MIN_BYTES, \
            "test body too small to exercise the negotiation"
        decoded = json.loads(raw)
        assert len(decoded["responses"]) == 40

    def test_large_body_round_trips_gzipped(self, server, bundle):
        path, body = self._batch(server, bundle, 40)
        reply, raw = self._raw(server, "POST", path, body=body,
                               accept_gzip=True)
        assert reply.status == 200
        assert reply.getheader("Content-Encoding") == "gzip"
        inflated = gzip.decompress(raw)
        assert len(raw) < len(inflated)
        assert int(reply.getheader("Content-Length")) == len(raw)
        decoded = json.loads(inflated)
        assert len(decoded["responses"]) == 40
        for entry in decoded["responses"]:
            assert "error" not in entry or entry["error"] is None

    def test_small_body_stays_identity_even_when_offered(self, server):
        reply, raw = self._raw(server, "GET", "/v1/health",
                               accept_gzip=True)
        assert reply.status == 200
        assert reply.getheader("Content-Encoding") is None
        assert json.loads(raw)["status"] == "ok"

    def test_remote_client_decompresses_transparently(self, server,
                                                      bundle):
        table = bundle.fact_table
        with RemoteAnalyst(server.url, token="analyst_00") as client:
            session = client.open_session()
            requests = [QueryRequest(f"SELECT COUNT(*) FROM {table}",
                                     accuracy=4e4)] * 40
            responses = client.submit_batch(session, requests)
            assert len(responses) == 40
            assert all(r.ok for r in responses)
            # Metrics text also speaks the negotiated encoding.
            assert "repro_" in client.metrics_text()


class TestDrain:
    def test_shutdown_drains_in_flight_batch(self, bundle):
        analysts = make_service_analysts(2)
        sets_ = disjoint_view_attribute_sets(bundle, 2)
        streams = build_disjoint_workload(bundle, analysts, 120, sets_,
                                          accuracy=ACCURACY, seed=5)
        server = ReproServer(make_service(bundle), port=0).start()
        outcome: dict = {}

        def long_batch() -> None:
            with RemoteAnalyst(server.url, token="analyst_00") as client:
                session = client.open_session()
                try:
                    responses = client.submit_batch(
                        session, streams["analyst_00"])
                    outcome["completed"] = len(responses)
                except ReproError as exc:
                    outcome["error"] = exc

        worker = threading.Thread(target=long_batch)
        worker.start()
        time.sleep(0.05)  # let the batch get in flight
        server.shutdown(drain_timeout=30.0)  # must wait, not cut it off
        worker.join()

        assert outcome.get("completed") == len(streams["analyst_00"]), \
            f"in-flight batch was cut off: {outcome}"
        assert server.service.closed

    def test_draining_refuses_new_sessions_with_503(self, bundle):
        server = ReproServer(make_service(bundle), port=0).start()
        with RemoteAnalyst(server.url, token="analyst_00") as client:
            client.open_session()
            server.shutdown()
            # The keep-alive connection is still answered by its handler
            # thread; new work must be refused as draining.
            with pytest.raises(RemoteError) as info:
                client.open_session()
            assert info.value.status == 503
            assert info.value.kind == "draining"

    def test_shutdown_is_idempotent(self, bundle):
        server = ReproServer(make_service(bundle), port=0).start()
        server.shutdown()
        server.shutdown()
        assert server.draining
