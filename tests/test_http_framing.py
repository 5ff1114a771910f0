"""The hand-framed HTTP/1.1 wire, both ends: counts and equalities only.

* hostile framing over raw sockets is refused with its status, the
  connection is closed, and nothing is charged;
* clients that frame differently from ``RemoteAnalyst`` (mixed-case header
  names, pipelining, HTTP/1.0, the stdlib's two-write ``http.client``,
  ``urllib``) are still served;
* each side puts a whole message on the socket with exactly one ``sendall``;
* the reconnect rule: a stale keep-alive is replaced before anything is
  sent, a lost reply is never answered by resending a ``POST``.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading
import time
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client import RemoteAnalyst
from repro.client.remote import RemoteError
from repro.datasets import load_adult
from repro.exceptions import ReproError
from repro.server import framing
from repro.server.daemon import ReproServer
from repro.service.service import QueryService
from repro.service.session import QueryRequest
from repro.workloads.service import make_service_analysts
from test_tls import certificate  # noqa: F401  (module-scoped fixture)

SQL = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40"
ACCURACY = 2e5


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=800, seed=0)


def start_server(bundle, **options) -> ReproServer:
    service = QueryService.build(bundle, make_service_analysts(2), 48.0,
                                 seed=0)
    return ReproServer(service, port=0, **options).start()


def stop(server: ReproServer) -> None:
    try:
        server.shutdown(drain_timeout=10.0)
    except ReproError:
        pass


@pytest.fixture()
def server(bundle):
    live = start_server(bundle)
    yield live
    stop(live)


def read_reply(reader) -> tuple[int, dict, bytes]:
    status, headers = framing.read_response_head(reader)
    return status, headers, reader.read(int(headers["content-length"]))


def query_request(session_id: int, *header_lines: str,
                  version: str = "HTTP/1.1", target_suffix: str = "",
                  length: bool = True) -> bytes:
    """A well-formed single-query POST, plus whatever a case adds."""
    body = json.dumps({"sql": SQL, "accuracy": ACCURACY}).encode()
    lines = [f"POST /v1/sessions/{session_id}/query{target_suffix} {version}",
             "Host: repro", "Content-Type: application/json",
             "Authorization: Bearer analyst_00", *header_lines]
    if length:
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


# -- hostile framing -----------------------------------------------------------

def _chunked(session_id: int) -> bytes:
    # The chunk data is itself a complete query request: read as a
    # zero-length body, it would be served as the connection's next request.
    smuggled = query_request(session_id)
    head = query_request(session_id, "Transfer-Encoding: chunked",
                         length=False).partition(b"\r\n\r\n")[0]
    return head + b"\r\n\r\n%x\r\n%s\r\n0\r\n\r\n" % (len(smuggled),
                                                          smuggled)


HOSTILE = {
    "request line over 64 KiB": (414, lambda sid: query_request(
        sid, target_suffix="?" + "x" * 70000)),
    "header line over 64 KiB": (431, lambda sid: query_request(
        sid, "X-Pad: " + "a" * 70000)),
    "more than 100 headers": (431, lambda sid: query_request(
        sid, *(f"X-{i}: {i}" for i in range(101)))),
    "malformed header line": (400, lambda sid: query_request(
        sid, "this is not a header")),
    "conflicting Content-Length": (400, lambda sid: query_request(
        sid, "Content-Length: 7")),
    "chunked body": (400, _chunked),
    "HTTP/2.0 request line": (505, lambda sid: query_request(
        sid, version="HTTP/2.0")),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_framing_is_refused_closed_and_uncharged(server, case):
    status, build = HOSTILE[case]
    provenance = server.service.engine.provenance
    with RemoteAnalyst(server.url, token="analyst_00") as client:
        session = client.open_session()
        before = provenance.row_totals()
        submitted = server.service.snapshot()["service"]["submitted"]
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            sock.sendall(build(session.session_id))
            reader = sock.makefile("rb")
            got, headers, body = read_reply(reader)
            assert got == status
            assert json.loads(body)["kind"] == "bad_request"
            assert headers["connection"] == "close"
            assert headers["server"].startswith("repro-serve/")
            assert headers["date"].endswith("GMT")
            try:  # one reply, then the connection is gone (EOF or reset)
                assert reader.read() == b""
            except ConnectionError:
                pass
        assert provenance.row_totals() == before
        assert server.service.snapshot()["service"]["submitted"] == submitted
        # The daemon is unharmed: the same query, framed properly, runs.
        assert client.submit(session, SQL, accuracy=ACCURACY).ok


def test_identical_duplicate_content_length_is_accepted(server):
    with RemoteAnalyst(server.url, token="analyst_00") as client:
        session = client.open_session()
    body_length = len(query_request(0).split(b"\r\n\r\n")[1])
    with socket.create_connection((server.host, server.port)) as sock:
        sock.sendall(query_request(session.session_id,
                                   f"Content-Length: {body_length}"))
        status, _, body = read_reply(sock.makefile("rb"))
    assert status == 200 and json.loads(body)["answer"] is not None


# -- the one-read head parser -------------------------------------------------

class LineCountingReader:
    """A buffered reader over ``data`` whose first raw read returns only
    ``first`` bytes (so a head cannot sit whole in the buffer) when
    ``first`` is set; counts ``readline`` calls."""

    def __init__(self, data: bytes, first: int | None = None) -> None:
        chunks = [data] if first is None else [data[:first], data[first:]]

        class Raw(io.RawIOBase):
            def readable(self) -> bool:
                return True

            def readinto(self, buffer) -> int:
                chunk = chunks.pop(0) if chunks else b""
                buffer[:len(chunk)] = chunk
                return len(chunk)

        self._reader = io.BufferedReader(Raw(), buffer_size=len(data) + 1)
        self.readlines = 0

    def peek(self, *size) -> bytes:
        return self._reader.peek(*size)

    def read(self, size: int = -1) -> bytes:
        return self._reader.read(size)

    def readline(self, size: int = -1) -> bytes:
        self.readlines += 1
        return self._reader.readline(size)


HEADER_NAMES = ("Host", "Content-Length", "content-length", "CONNECTION",
                "Transfer-Encoding", "X-Pad", "bad name", "", " Lead")
HEADER_VALUES = st.one_of(
    st.sampled_from(("5", " 5 ", "7", "chunked", "close", "")),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF),
            max_size=12))


@st.composite
def request_heads(draw) -> bytes:
    request_line = draw(st.one_of(
        st.builds("{} {} {}".format,
                  st.sampled_from(("GET", "POST", "DELETE", "PUT")),
                  st.sampled_from(("/v1/health", "/v1/sessions/1/query",
                                   "/v1/trace?limit=2")),
                  st.sampled_from(("HTTP/1.1", "HTTP/1.1", "HTTP/1.0",
                                   "HTTP/2.0", "FOO"))),
        st.sampled_from(("", "GET /", "GET / HTTP/1.1 extra"))))
    headers = draw(st.one_of(
        st.lists(st.one_of(
            st.builds("{}:{}".format, st.sampled_from(HEADER_NAMES),
                      HEADER_VALUES),
            st.just("this is not a header"),
            st.builds("X-Long: {}".format,
                      st.sampled_from(("a" * 65526, "a" * 65527,
                                       "a" * 70000)))), max_size=6),
        st.integers(98, 102).map(
            lambda count: [f"X-{i}: {i}" for i in range(count)])))
    lines = [request_line, *headers, ""]
    ends = ["\r\n"] * len(lines)
    if draw(st.integers(0, 3)) == 0:  # one head in four mixes in bare LFs
        ends = draw(st.lists(st.sampled_from(("\r\n", "\n")),
                             min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end
                   in zip(lines, ends)).encode("latin-1") + b"{}"


def parse_head(reader, memo=None):
    try:
        return framing.read_request_head(reader, memo)
    except framing.FramingError as exc:
        return exc.status


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(request_heads())
def test_one_read_head_parser_agrees_with_the_line_reader(data):
    """Whole in the buffer or split across reads, a head parses to the
    same ``(method, target, version, headers)`` or the same refusal; a
    head that sits whole in the buffer within the limits is taken
    without a ``readline``, with or without a memo, and so is the same
    head again from the memo."""
    by_lines = parse_head(LineCountingReader(data, first=3))
    head, _, _ = data.partition(b"\r\n\r\n")
    within_limits = b"\r\n\r\n" in data and \
        head.count(b"\n") == head.count(b"\r\n") <= framing.MAX_HEADERS \
        and len(head) + 2 <= framing.MAX_LINE
    memo: dict = {}
    for use in (None, memo, memo):
        whole = LineCountingReader(data)
        assert parse_head(whole, use) == by_lines
        assert whole.readlines == 0 or not within_limits


def test_the_head_memo_is_bounded():
    """A memo holds at most ``MEMO_HEADS`` heads (then starts again) and
    none longer than ``MEMO_HEAD_BYTES``; those parse alike without it."""
    memo: dict = {}
    for length in range(framing.MEMO_HEADS + 1):
        data = (b"POST /v1/sessions/1/query HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n" % length)
        head = framing.read_request_head(LineCountingReader(data), memo)
        assert head[3] == {"content-length": str(length)}
    assert len(memo) == 1
    memo.clear()
    data = (b"GET /v1/health HTTP/1.1\r\nX-Pad: "
            + b"a" * framing.MEMO_HEAD_BYTES + b"\r\n\r\n")
    assert parse_head(LineCountingReader(data), memo) == \
        parse_head(LineCountingReader(data))
    assert memo == {}


# -- compatibility -------------------------------------------------------------

def test_mixed_case_header_names_are_accepted(server):
    body = json.dumps({"token": "analyst_00"}).encode()
    with socket.create_connection((server.host, server.port)) as sock:
        sock.sendall(b"POST /v1/sessions HTTP/1.1\r\nhOsT: repro\r\n"
                     b"cOnTeNt-LeNgTh: %d\r\nCONNECTION: Close\r\n\r\n%s"
                     % (len(body), body))
        reader = sock.makefile("rb")
        status, headers, reply = read_reply(reader)
        assert status == 200 and json.loads(reply)["analyst"] == "analyst_00"
        assert headers["connection"] == "close" and reader.read() == b""


def test_pipelined_requests_in_one_segment_are_answered_in_order(server):
    body = json.dumps({"token": "analyst_01"}).encode()
    with socket.create_connection((server.host, server.port)) as sock:
        sock.sendall(b"POST /v1/sessions HTTP/1.1\r\nHost: repro\r\n"
                     b"Content-Length: %d\r\n\r\n%s"
                     b"GET /v1/health HTTP/1.1\r\nHost: repro\r\n\r\n"
                     % (len(body), body))
        reader = sock.makefile("rb")
        first, second = read_reply(reader), read_reply(reader)
    assert first[0] == 200 and json.loads(first[2])["analyst"] == "analyst_01"
    assert second[0] == 200 and json.loads(second[2])["status"] == "ok"
    assert json.loads(second[2])["open_sessions"] == 1


def test_http_1_0_client_gets_connection_close(server):
    with socket.create_connection((server.host, server.port)) as sock:
        sock.sendall(b"GET /v1/health HTTP/1.0\r\n\r\n")
        reader = sock.makefile("rb")
        status, headers, body = read_reply(reader)
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert headers["connection"] == "close" and reader.read() == b""


def test_expect_100_continue_is_honoured(server):
    body = json.dumps({"token": "analyst_00"}).encode()
    with socket.create_connection((server.host, server.port),
                                  timeout=10.0) as sock:
        sock.sendall(b"POST /v1/sessions HTTP/1.1\r\nHost: repro\r\n"
                     b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n"
                     % len(body))
        reader = sock.makefile("rb")
        assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert reader.readline() == b"\r\n"
        sock.sendall(body)
        assert read_reply(reader)[0] == 200


def test_stdlib_clients_are_still_served(server):
    # http.client puts head and body on the socket in two writes.
    conn = http.client.HTTPConnection(server.host, server.port)
    conn.request("POST", "/v1/sessions",
                 body=json.dumps({"token": "analyst_00"}).encode(),
                 headers={"Content-Type": "application/json"})
    opened = json.loads(conn.getresponse().read())
    conn.request("POST", f"/v1/sessions/{opened['session_id']}/query",
                 body=json.dumps({"sql": SQL, "accuracy": ACCURACY}).encode(),
                 headers={"Authorization": "Bearer analyst_00"})
    reply = conn.getresponse()
    assert reply.status == 200 and json.loads(reply.read())["answer"]
    conn.close()
    # urllib is what `repro monitor` scrapes with.
    with urllib.request.urlopen(f"{server.url}/v1/metrics", timeout=10) as r:
        assert r.status == 200 and b"repro_requests_total" in r.read()


# -- one write per message -----------------------------------------------------

class CountingSocket:
    """A socket that counts the writes made through it."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.sendalls = self.sends = 0

    def sendall(self, data) -> None:
        self.sendalls += 1
        self._sock.sendall(data)

    def send(self, data) -> int:
        self.sends += 1
        return self._sock.send(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def counted(monkeypatch):
    """Every socket the client opens, wrapped; newest last."""
    opened: list[CountingSocket] = []
    connect = socket.create_connection

    def counting_connect(*args, **kwargs):
        opened.append(CountingSocket(connect(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr("repro.client.remote.socket.create_connection",
                        counting_connect)
    return opened


def count_accepted(server: ReproServer) -> list[CountingSocket]:
    accepted: list[CountingSocket] = []
    accept = server._accept

    def counting_accept():
        sock, address = accept()
        accepted.append(CountingSocket(sock))
        return accepted[-1], address

    server._accept = counting_accept
    return accepted


def test_exactly_one_sendall_per_side_per_query(server, counted):
    accepted = count_accepted(server)
    with RemoteAnalyst(server.url, token="analyst_00") as client:
        session = client.open_session()
        for low in range(20, 30):
            response = client.submit(
                session, f"SELECT COUNT(*) FROM adult WHERE age >= {low}",
                accuracy=ACCURACY)
            assert response.ok
        # GROUP BY (many answers), a refused request and a scrape: one each.
        client.submit(session, "SELECT sex, COUNT(*) FROM adult GROUP BY sex",
                      accuracy=ACCURACY)
        with pytest.raises(RemoteError):
            client.submit(99999, SQL, accuracy=ACCURACY)
        client.metrics_text()
    messages = 1 + 10 + 3
    assert len(counted) == len(accepted) == 1      # one keep-alive connection
    assert (counted[0].sendalls, counted[0].sends) == (messages, 0)
    assert (accepted[0].sendalls, accepted[0].sends) == (messages, 0)


def test_neither_end_runs_the_stdlib_header_parser(server, monkeypatch):
    """``email.feedparser`` is what ``http.client`` and
    ``BaseHTTPRequestHandler`` parse headers with; the hand-framed wire
    never reaches it, on the client thread or the handler thread."""
    import email.feedparser

    fed: list[str] = []
    feed = email.feedparser.FeedParser.feed

    def counting_feed(self, data):
        fed.append(threading.current_thread().name)
        return feed(self, data)

    monkeypatch.setattr(email.feedparser.FeedParser, "feed", counting_feed)
    with RemoteAnalyst(server.url, token="analyst_00") as client:
        session = client.open_session()
        assert client.submit(session, SQL, accuracy=ACCURACY).ok
        assert client.submit(session, "SELECT sex, COUNT(*) FROM adult "
                             "GROUP BY sex", accuracy=ACCURACY).ok
        batch = client.submit_batch(session, [QueryRequest(
            f"SELECT COUNT(*) FROM adult WHERE age >= {low}",
            accuracy=ACCURACY) for low in (20, 30, 40)])
        assert len(batch) == 3 and all(r.error is None for r in batch)
        with pytest.raises(RemoteError) as refused:
            client.submit(99999, SQL, accuracy=ACCURACY)
        assert refused.value.status == 404
        assert "repro_requests_total" in client.metrics_text()
    assert fed == []
    # The counter does see the stdlib parser when it runs.
    http.client.parse_headers(io.BytesIO(b"Host: repro\r\n\r\n"))
    assert fed == [threading.current_thread().name]


# -- the reconnect rule --------------------------------------------------------

class StubServer:
    """Reads one full request from each connection it accepts, then sends
    the next scripted reply (``None``, or script exhausted: close
    unanswered)."""

    def __init__(self, *replies: bytes | None) -> None:
        self.requests: list[bytes] = []
        self._replies = list(replies)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self._closed = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            with conn, conn.makefile("rb") as reader:
                conn.settimeout(5.0)
                _, _, _, headers = framing.read_request_head(reader)
                self.requests.append(
                    reader.read(int(headers.get("content-length", 0))))
                reply = self._replies.pop(0) if self._replies else None
                if reply is not None:
                    conn.sendall(reply)

    def __enter__(self) -> "StubServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self._closed.set()
        self._thread.join(timeout=5.0)
        self._listener.close()
        assert not self._thread.is_alive()


OK_REPLY = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 16\r\n\r\n" + b'{"status": "ok"}')


def test_post_whose_reply_is_lost_is_never_resent():
    with StubServer(None, None, OK_REPLY) as stub, \
            RemoteAnalyst(stub.url, token="t", timeout=5.0) as client:
        with pytest.raises(RemoteError, match="after the request was sent"):
            client.submit(1, SQL, accuracy=ACCURACY)
        with pytest.raises(RemoteError, match="after the request was sent"):
            client.close_session(1)
        assert len(stub.requests) == 2       # one each, neither resent
        assert json.loads(stub.requests[0])["sql"] == SQL


def test_get_whose_reply_is_lost_is_retried_once():
    with StubServer(None, OK_REPLY) as stub, \
            RemoteAnalyst(stub.url, token="t", timeout=5.0) as client:
        assert client.health() == {"status": "ok"}
        assert len(stub.requests) == 2
    with StubServer() as stub, \
            RemoteAnalyst(stub.url, token="t", timeout=5.0) as client:
        with pytest.raises(RemoteError, match="after the request was sent"):
            client.health()
        assert len(stub.requests) == 2


def assert_idle_keep_alive_is_replaced(server, client, counted) -> None:
    """Submit, outlive the daemon's keep-alive timeout, submit again: the
    second query rides a new connection and is charged exactly once."""
    service = server.service
    session = client.open_session()
    first = client.submit(session, SQL, accuracy=ACCURACY)
    assert first.ok and len(counted) == 1
    time.sleep(0.6)                      # 3x request_timeout
    second = client.submit(
        session, "SELECT COUNT(*) FROM adult WHERE hours_per_week >= 40",
        accuracy=ACCURACY)
    assert second.ok and len(counted) == 2
    stats = service.snapshot()["service"]
    assert (stats["submitted"], stats["fresh_releases"]) == (2, 2)
    assert second.answer.epsilon_charged > 0.0
    assert service.engine.provenance.row_totals()["analyst_00"] == \
        first.answer.epsilon_charged + second.answer.epsilon_charged


def test_idle_timed_out_keep_alive_reconnects_and_charges_once(bundle,
                                                               counted):
    server = start_server(bundle, request_timeout=0.2)
    try:
        with RemoteAnalyst(server.url, token="analyst_00") as client:
            assert_idle_keep_alive_is_replaced(server, client, counted)
        # open + first went out on the old connection, the second query
        # only ever on the new one.
        assert [sock.sendalls for sock in counted] == [2, 1]
    finally:
        stop(server)


def test_tls_round_trip_keep_alive_and_idle_reconnect(bundle, certificate,
                                                      counted):
    cert_path, key_path = certificate
    server = start_server(bundle, request_timeout=0.2, tls_cert=cert_path,
                          tls_key=key_path)
    try:
        with RemoteAnalyst(server.url, token="analyst_00",
                           ca_bundle=str(cert_path)) as client:
            assert_idle_keep_alive_is_replaced(server, client, counted)
    finally:
        stop(server)


# -- RemoteAnalyst URL handling ------------------------------------------------

@pytest.mark.parametrize("url", ("http://127.0.0.1:abc", "127.0.0.1:abc",
                                 "http://127.0.0.1:70000", "http://[::1",
                                 "ftp://localhost:8321"))
def test_bad_port_or_host_is_a_repro_error(url):
    with pytest.raises(ReproError,
                       match="bad base url|unsupported scheme 'ftp'"):
        RemoteAnalyst(url, token="t")


@pytest.mark.parametrize("url, host, port", (
    ("http://user@example.org:80", "example.org", 80),
    ("http://[::1]:8321", "::1", 8321),
    ("[::1]:8321", "::1", 8321),
    ("https://example.org", "example.org", 443),
    ("bench-host:80", "bench-host", 80),
    ("localhost", "localhost", 80),
    ("localhost:8321", "localhost", 8321),
    ("127.0.0.1:8321", "127.0.0.1", 8321),
    ("http://localhost:8321", "localhost", 8321),
))
def test_url_host_and_port(url, host, port):
    client = RemoteAnalyst(url, token="t")
    assert (client._host, client._port) == (host, port)
