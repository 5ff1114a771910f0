"""Overload defenses and observability for the HTTP daemon.

Covers the PR-6 tentpole surface: per-analyst token-bucket admission
control (429 + ``Retry-After``, client-side typed ``RateLimited`` with
bounded retry), concurrent keep-alive clients sharing one session whose
accounting matches the single-query in-process replay exactly, the
``/v1/metrics`` Prometheus
endpoint, and slow/hostile-client robustness (413 oversized bodies,
408 stalled bodies that must never block ``shutdown()``).
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.client import RateLimited, RemoteAnalyst
from repro.datasets import load_adult
from repro.exceptions import ReproError
from repro.metrics import parse_exposition
from repro.server.daemon import ReproServer
from repro.service.service import QueryService
from repro.service.session import QueryRequest
from repro.workloads.service import (
    disjoint_view_attribute_sets,
    make_service_analysts,
)

ROWS = 800
EPSILON = 48.0
ACCURACY = 4e4

SQL = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40"


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=ROWS, seed=0)


def make_service(bundle, num_analysts=2, **kwargs) -> QueryService:
    analysts = make_service_analysts(num_analysts)
    service = QueryService.build(bundle, analysts, EPSILON, seed=0,
                                 **kwargs)
    sets_ = disjoint_view_attribute_sets(bundle, num_analysts)
    for attrs in sets_:
        service.engine.register_view(attrs)
    return service


def shutdown_quietly(server: ReproServer) -> None:
    try:
        server.shutdown(drain_timeout=10.0)
    except ReproError:
        pass


# -- admission control --------------------------------------------------------

class TestRateLimit:
    def test_429_surfaces_as_rate_limited_with_retry_after(self, bundle):
        # One-token burst with a glacial refill: the second submit must
        # be refused, and the hint must say roughly how long until the
        # bucket holds a token again.
        server = ReproServer(make_service(bundle), port=0,
                             rate_limit=0.01, rate_burst=1).start()
        try:
            with RemoteAnalyst(server.url, token="analyst_00") as client:
                session = client.open_session()
                assert client.submit(session, SQL, accuracy=ACCURACY).ok
                spent = server.service.analyst_spent("analyst_00")
                stats = server.service.snapshot()["service"]
                with pytest.raises(RateLimited) as info:
                    client.submit(session, SQL, accuracy=ACCURACY)
                exc = info.value
                assert exc.status == 429 and exc.kind == "rate_limited"
                assert exc.retry_after is not None
                assert 0.0 < exc.retry_after <= 100.0
                # Refused before any engine work: nothing charged, the
                # service never even saw the submission.
                assert server.service.analyst_spent("analyst_00") == spent
                after = server.service.snapshot()["service"]
                assert after["submitted"] == stats["submitted"]
                assert client.health()["rate_limited"] == 1
        finally:
            shutdown_quietly(server)

    def test_retry_after_header_on_the_wire(self, bundle):
        server = ReproServer(make_service(bundle), port=0,
                             rate_limit=0.01, rate_burst=1).start()
        try:
            with RemoteAnalyst(server.url, token="analyst_00") as client:
                session = client.open_session()
                assert client.submit(session, SQL, accuracy=ACCURACY).ok
            conn = http.client.HTTPConnection(server.host, server.port)
            body = json.dumps({"sql": SQL, "accuracy": ACCURACY}).encode()
            conn.request("POST", f"/v1/sessions/{session.session_id}/query",
                         body=body,
                         headers={"Content-Type": "application/json",
                                  "Authorization": "Bearer analyst_00"})
            reply = conn.getresponse()
            payload = json.loads(reply.read())
            conn.close()
            assert reply.status == 429
            assert payload["kind"] == "rate_limited"
            header = reply.getheader("Retry-After")
            assert header is not None and float(header) > 0.0
            assert payload["retry_after"] == pytest.approx(float(header),
                                                           abs=1e-3)
        finally:
            shutdown_quietly(server)

    def test_bounded_retry_sleeps_out_the_window(self, bundle):
        # Refill fast enough that one honored Retry-After clears the
        # refusal: a client with retry budget never sees the 429.
        server = ReproServer(make_service(bundle), port=0,
                             rate_limit=20.0, rate_burst=1).start()
        try:
            with RemoteAnalyst(server.url, token="analyst_00",
                               retry_rate_limited=3) as client:
                session = client.open_session()
                for k in range(4):
                    response = client.submit(
                        session,
                        f"SELECT COUNT(*) FROM adult WHERE age >= {30 + k}",
                        accuracy=ACCURACY)
                    assert response.ok, response.error
        finally:
            shutdown_quietly(server)

    def test_batch_cost_clamped_to_burst(self, bundle):
        # A batch bigger than the burst must still be admissible (its
        # cost clamps to the burst) — otherwise a configured burst of 2
        # would wedge every larger batch forever.
        server = ReproServer(make_service(bundle), port=0,
                             rate_limit=0.01, rate_burst=2).start()
        try:
            with RemoteAnalyst(server.url, token="analyst_00") as client:
                session = client.open_session()
                responses = client.submit_batch(session, [
                    f"SELECT COUNT(*) FROM adult WHERE age >= {20 + k}"
                    for k in range(6)])
                assert len(responses) == 6
                with pytest.raises(RateLimited):
                    client.submit(session, SQL, accuracy=ACCURACY)
        finally:
            shutdown_quietly(server)

    def test_buckets_are_per_analyst(self, bundle):
        server = ReproServer(make_service(bundle), port=0,
                             rate_limit=0.01, rate_burst=1).start()
        try:
            with RemoteAnalyst(server.url, token="analyst_00") as first, \
                    RemoteAnalyst(server.url, token="analyst_01") as second:
                s0 = first.open_session()
                s1 = second.open_session()
                assert first.submit(s0, SQL, accuracy=ACCURACY).ok
                with pytest.raises(RateLimited):
                    first.submit(s0, SQL, accuracy=ACCURACY)
                # analyst_01's bucket is untouched by analyst_00's spree.
                assert second.submit(s1, SQL, accuracy=ACCURACY).ok
        finally:
            shutdown_quietly(server)

    def test_constructor_validation(self, bundle):
        service = make_service(bundle)
        try:
            with pytest.raises(ReproError, match="rate_limit"):
                ReproServer(service, port=0, rate_limit=0.0)
            with pytest.raises(ReproError, match="rate_burst"):
                ReproServer(service, port=0, rate_burst=4)
            with pytest.raises(ReproError, match="request_timeout"):
                ReproServer(service, port=0, request_timeout=-1.0)
        finally:
            service.close()


# -- concurrent clients on one session ----------------------------------------

def constant_accuracy_streams(num_queries=8) -> dict[str, list[str]]:
    """Disjoint per-analyst views at one fixed accuracy: the additive
    mechanism's max-composition makes the totals independent of arrival
    order, so the concurrent remote run must land exactly on the
    single-query replay."""
    return {
        "analyst_00": [
            f"SELECT COUNT(*) FROM adult WHERE age BETWEEN {18 + k} AND 70"
            for k in range(num_queries)],
        "analyst_01": [
            f"SELECT COUNT(*) FROM adult "
            f"WHERE hours_per_week BETWEEN {10 + k} AND 80"
            for k in range(num_queries)],
    }


class TestConcurrentClients:
    WORKERS_PER_ANALYST = 3

    @pytest.mark.parametrize("batched", [False, True])
    def test_shared_session_accounting_matches_single_query_inproc(
            self, bundle, batched):
        streams = constant_accuracy_streams()

        # Reference: every query submitted singly, in process.
        reference = make_service(bundle)
        for analyst, sqls in streams.items():
            session = reference.open_session(analyst)
            for _ in range(self.WORKERS_PER_ANALYST):
                for sql in sqls:
                    response = reference.submit(session, sql,
                                                accuracy=ACCURACY)
                    assert response.ok, response.error
            reference.close_session(session)
        expected = reference.snapshot()
        reference.close()

        # Live run: three keep-alive clients share each session, each on
        # its own daemon handler thread.
        server = ReproServer(make_service(bundle), port=0).start()
        try:
            sessions = {}
            with RemoteAnalyst(server.url, token="analyst_00") as c0, \
                    RemoteAnalyst(server.url, token="analyst_01") as c1:
                sessions["analyst_00"] = c0.open_session()
                sessions["analyst_01"] = c1.open_session()

            barrier = threading.Barrier(
                2 * self.WORKERS_PER_ANALYST)
            errors: list[BaseException] = []

            def worker(analyst: str) -> None:
                try:
                    with RemoteAnalyst(server.url, token=analyst) as client:
                        barrier.wait()
                        if batched:
                            responses = client.submit_batch(
                                sessions[analyst],
                                [QueryRequest(sql, accuracy=ACCURACY)
                                 for sql in streams[analyst]])
                        else:
                            responses = [
                                client.submit(sessions[analyst], sql,
                                              accuracy=ACCURACY)
                                for sql in streams[analyst]]
                        for response in responses:
                            assert response.ok, response.error
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(analyst,))
                       for analyst in streams
                       for _ in range(self.WORKERS_PER_ANALYST)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive(), "remote worker wedged"
            assert not errors, errors

            observed = server.service.snapshot()
        finally:
            shutdown_quietly(server)

        assert observed["service"]["failed"] == 0
        assert observed["service"]["rejected"] == \
            expected["service"]["rejected"]
        assert observed["service"]["epsilon_by_analyst"] == \
            expected["service"]["epsilon_by_analyst"]
        assert observed["provenance"] == expected["provenance"]
        assert observed["service"]["submitted"] == \
            expected["service"]["submitted"]

    def test_shutdown_drains_after_a_keep_alive_client(self, bundle):
        server = ReproServer(make_service(bundle), port=0).start()
        with RemoteAnalyst(server.url, token="analyst_00") as client:
            session = client.open_session()
            assert client.submit(session, SQL, accuracy=ACCURACY).ok
        server.shutdown(drain_timeout=10.0)
        assert server.service.closed

    def test_there_is_no_daemon_side_batching(self, bundle):
        service = make_service(bundle)
        try:
            for option in ("micro_batch", "micro_batch_wait"):
                with pytest.raises(TypeError):
                    ReproServer(service, port=0, **{option: True})
        finally:
            service.close()


# -- /v1/metrics --------------------------------------------------------------

class TestMetrics:
    def test_metrics_parse_and_match_snapshot(self, bundle):
        server = ReproServer(make_service(bundle), port=0,
                             rate_limit=0.01, rate_burst=1).start()
        try:
            with RemoteAnalyst(server.url, token="analyst_00") as client:
                session = client.open_session()
                assert client.submit(session, SQL, accuracy=ACCURACY).ok
                with pytest.raises(RateLimited):
                    client.submit(session, SQL, accuracy=ACCURACY)
                text = client.metrics_text()
            families = parse_exposition(text)
            snapshot = server.service.snapshot()

            submitted = families["repro_service_submitted_total"][()]
            assert submitted == snapshot["service"]["submitted"]
            assert families["repro_service_answered_total"][()] == \
                snapshot["service"]["answered"]
            spent = families["repro_epsilon_spent_total"]
            for analyst, eps in \
                    snapshot["service"]["epsilon_by_analyst"].items():
                by_analyst = sum(
                    value for labels, value in spent.items()
                    if dict(labels).get("analyst") == analyst)
                assert by_analyst == pytest.approx(eps)
            assert families["repro_rate_limited_total"][
                (("analyst", "analyst_00"),)] == 1.0
            assert families["repro_open_sessions"][()] == 1.0
            assert families["repro_draining"][()] == 0.0
            assert families["repro_uptime_seconds"][()] > 0.0
            # Request counters saw the traffic (route labels exist).
            requests = families["repro_requests_total"]
            assert sum(requests.values()) >= 3
        finally:
            shutdown_quietly(server)

    def test_metrics_content_type_and_shape(self, bundle):
        server = ReproServer(make_service(bundle), port=0).start()
        try:
            conn = http.client.HTTPConnection(server.host, server.port)
            conn.request("GET", "/v1/metrics")
            reply = conn.getresponse()
            body = reply.read().decode("utf-8")
            conn.close()
            assert reply.status == 200
            assert reply.getheader("Content-Type", "").startswith(
                "text/plain")
            families = parse_exposition(body)
            assert "repro_in_flight_requests" in families
            # The scrape itself is counted on a later scrape.
            text = server.render_metrics()
            requests = parse_exposition(text)["repro_requests_total"]
            assert requests[(("route", "GET /v1/metrics"),)] >= 1.0
        finally:
            shutdown_quietly(server)


    def test_concurrent_connections_lose_no_count(self, bundle):
        """Connection threads share the bound metric updates: under a
        tight switch interval every request, response and latency is
        counted exactly once."""
        server = ReproServer(make_service(bundle), port=0).start()
        clients, per_client = 6, 25
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            try:
                with RemoteAnalyst(server.url,
                                   token=f"analyst_0{index % 2}") as client:
                    session = client.open_session()
                    for _ in range(per_client):
                        assert client.submit(session, SQL,
                                             accuracy=ACCURACY).ok
            except BaseException as exc:
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(index,))
                       for index in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        try:
            assert errors == []
            queries = clients * per_client
            route = (("route", "POST /v1/sessions/{id}/query"),)
            families = parse_exposition(server.render_metrics())
            assert families["repro_requests_total"][route] == queries
            assert families["repro_requests_total"][
                (("route", "POST /v1/sessions"),)] == clients
            assert families["repro_request_seconds_count"][route] == queries
            assert families["repro_responses_total"][
                (("status", "200"),)] == queries + clients
            assert server.service.snapshot()["service"]["submitted"] == \
                queries
        finally:
            shutdown_quietly(server)


def test_a_failed_connection_thread_drops_only_its_connection(
        bundle, monkeypatch):
    """When no thread can be started for a connection (threads or memory
    ran out), that one socket is closed and the accept loop goes on: the
    next client is served."""
    server = ReproServer(make_service(bundle), port=0).start()
    start, refused = threading.Thread.start, []

    def start_or_refuse(thread):
        if thread.name == "repro-connection" and not refused:
            refused.append(thread)
            raise RuntimeError("can't start new thread")
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_or_refuse)
    try:
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            assert sock.recv(1) == b""  # closed, never answered
        assert len(refused) == 1
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10.0)
        conn.request("GET", "/v1/health")
        reply = conn.getresponse()
        reply.read()
        conn.close()
        assert reply.status == 200
    finally:
        monkeypatch.undo()
        shutdown_quietly(server)


# -- slow / hostile clients ---------------------------------------------------

class TestBodyRobustness:
    def test_oversized_body_is_413(self, bundle):
        server = ReproServer(make_service(bundle), port=0,
                             max_body_bytes=1024).start()
        try:
            conn = http.client.HTTPConnection(server.host, server.port)
            conn.request("POST", "/v1/sessions",
                         body=b"x" * 4096,
                         headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            payload = json.loads(reply.read())
            conn.close()
            assert reply.status == 413
            assert payload["kind"] == "bad_request"
            # The server is still healthy for well-formed clients.
            with RemoteAnalyst(server.url, token="analyst_00") as client:
                assert client.health()["status"] == "ok"
        finally:
            shutdown_quietly(server)

    def test_stalled_body_gets_408_and_cannot_block_shutdown(self, bundle):
        server = ReproServer(make_service(bundle), port=0,
                             request_timeout=0.5).start()
        stalled = socket.create_connection((server.host, server.port))
        try:
            stalled.sendall(
                b"POST /v1/sessions HTTP/1.1\r\n"
                b"Host: repro\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 64\r\n\r\n")  # ...and never the body
            time.sleep(0.05)  # let the handler block in the body read
            started = time.monotonic()
            server.shutdown(drain_timeout=10.0)
            # The stalled read holds no drain permit: shutdown cannot be
            # held hostage by a client that never sends its body.
            assert time.monotonic() - started < 5.0
            stalled.settimeout(5.0)
            data = stalled.recv(65536)
            assert b"408" in data.split(b"\r\n", 1)[0]
        finally:
            stalled.close()

    def test_hung_header_client_cannot_block_shutdown(self, bundle):
        server = ReproServer(make_service(bundle), port=0,
                             request_timeout=0.5).start()
        idle = socket.create_connection((server.host, server.port))
        try:
            started = time.monotonic()
            server.shutdown(drain_timeout=10.0)
            assert time.monotonic() - started < 5.0
            assert server.service.closed
        finally:
            idle.close()
