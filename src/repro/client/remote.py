"""``RemoteAnalyst``: the over-the-wire twin of the in-process session API.

One :class:`RemoteAnalyst` holds one persistent HTTP/1.1 connection — one
socket plus one buffered reader, framed by :mod:`repro.server.framing` —
and is **not** thread-safe: use one instance per worker thread, exactly
as in-process code uses one session per thread.  Each request leaves as
head + body in one ``sendall``; each reply is read by ``Content-Length``.

Keep-alive connections can be closed server-side at any time (the
daemon's idle ``request_timeout``), so before every send on a reused
connection a zero-timeout ``select`` asks whether it is readable: a
server that is owed nothing has nothing to say, so readable means EOF and
the connection is replaced *before* the request goes out.  What the probe
cannot see is handled by the charging rule: a **send-phase** failure (the
server never saw a complete request) reconnects and retries once for any
method; a **receive-phase** failure (the request may have been processed
and its epsilon charged) is retried once for ``GET`` and never for
``POST``/``DELETE`` — it raises :class:`RemoteError`.

Transport- and lifecycle-level failures raise exceptions
mirroring the in-process ones: a 409 from the server becomes
:class:`repro.exceptions.ServiceClosed` / ``SessionClosed``, a 401
becomes :class:`repro.exceptions.UnknownAnalyst`; anything else raises
:class:`RemoteError` carrying the HTTP status and the envelope's machine
``kind`` tag.  Query-level failures never raise — they arrive inside
:class:`~repro.service.session.QueryResponse` envelopes, as in-process.

``https://`` base URLs speak TLS (the daemon's ``--tls-cert/--tls-key``
side): certificates verify against the system trust store by default,
``ca_bundle=`` pins a private CA, and ``tls_insecure=True`` disables
verification for tests against throwaway self-signed certs.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import select
import socket
import ssl
import time
from dataclasses import dataclass
from typing import Sequence
from urllib.parse import urlsplit

from repro.db.sql.ast import SelectStatement
from repro.exceptions import (
    ReproError,
    ServiceClosed,
    SessionClosed,
    UnknownAnalyst,
)
from repro.server import framing
from repro.server.protocol import (
    WireFormatError,
    decode_error,
    decode_response,
    encode_request,
)
from repro.service.session import QueryRequest, QueryResponse

DEFAULT_TIMEOUT = 30.0


class RemoteError(ReproError):
    """A wire request failed below the query level.

    ``status`` is the HTTP status code (0 for connection-level failures)
    and ``kind`` the error envelope's machine tag.
    """

    def __init__(self, message: str, status: int = 0,
                 kind: str = "internal") -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind


class RateLimited(RemoteError):
    """The server's admission control refused this submission (429).

    ``retry_after`` carries the server's ``Retry-After`` header in
    seconds (``None`` if the server omitted it).  Raised only once
    :class:`RemoteAnalyst`'s own bounded retry budget (the
    ``retry_rate_limited`` constructor knob, default 0 = surface
    immediately) is exhausted.
    """

    def __init__(self, message: str,
                 retry_after: float | None = None) -> None:
        super().__init__(message, status=429, kind="rate_limited")
        self.retry_after = retry_after


def _inflate(status: int, headers: dict, raw: bytes, context: str) -> bytes:
    """Undo the server's negotiated ``Content-Encoding``.

    Protocol v2 servers gzip-compress large bodies when the client
    offers it; v1 servers (and small bodies) stay identity-encoded.
    """
    encoding = headers.get("content-encoding", "").lower()
    if encoding in ("", "identity"):
        return raw
    if encoding != "gzip":
        raise RemoteError(f"{context}: server sent unsupported "
                          f"Content-Encoding {encoding!r}", status=status)
    try:
        return gzip.decompress(raw)
    except OSError as exc:
        raise RemoteError(f"{context}: bad gzip body ({exc})",
                          status=status) from None


@dataclass(frozen=True)
class RemoteSession:
    """Handle for one server-side session (identity lives server-side)."""

    session_id: int
    analyst: str


class RemoteAnalyst:
    """Client for one analyst identity against a ``repro serve`` daemon.

    >>> analyst = RemoteAnalyst("http://127.0.0.1:8321", token="alice")
    >>> session = analyst.open_session()
    >>> analyst.submit(session, "SELECT COUNT(*) FROM adult",
    ...                accuracy=4e4).value()            # doctest: +SKIP
    """

    def __init__(self, base_url: str, token: str,
                 timeout: float = DEFAULT_TIMEOUT,
                 retry_rate_limited: int = 0,
                 max_retry_after: float = 5.0,
                 ca_bundle: str | None = None,
                 tls_insecure: bool = False,
                 trace_requests: bool = True) -> None:
        try:  # "host:port" shorthand (incl. bare hostnames) means http
            parts = urlsplit(base_url if "://" in base_url
                             else "http://" + base_url)
            scheme, host, port = parts.scheme, parts.hostname, parts.port
        except ValueError as exc:  # non-numeric / out-of-range port, bad [v6]
            raise ReproError(f"bad base url {base_url!r}: {exc}") from None
        if scheme not in ("http", "https"):
            raise ReproError(f"unsupported scheme {scheme!r} "
                             f"(the daemon speaks http or https)")
        if not host:
            raise ReproError(f"no host in base url {base_url!r}")
        if port is None:
            port = 443 if scheme == "https" else 80
        if (ca_bundle is not None or tls_insecure) and scheme != "https":
            raise ReproError("ca_bundle/tls_insecure only apply to "
                             "https:// URLs")
        self._scheme = scheme
        self._tls_context: ssl.SSLContext | None = None
        if scheme == "https":
            # Default: full verification against the system trust store;
            # ca_bundle pins a private CA (self-signed deployments);
            # tls_insecure is for tests against throwaway certs only.
            try:
                self._tls_context = ssl.create_default_context(
                    cafile=ca_bundle)
            except (OSError, ssl.SSLError) as exc:
                raise ReproError(
                    f"cannot load CA bundle {ca_bundle!r}: {exc}") from None
            if tls_insecure:
                self._tls_context.check_hostname = False
                self._tls_context.verify_mode = ssl.CERT_NONE
        if retry_rate_limited < 0:
            raise ReproError(f"retry_rate_limited must be >= 0, "
                             f"got {retry_rate_limited}")
        self._host, self._port, self._timeout = host, port, timeout
        self.token = token
        #: How many times a 429 is retried (sleeping out the server's
        #: ``Retry-After``, capped at ``max_retry_after`` seconds) before
        #: :class:`RateLimited` surfaces.  Safe to retry: a 429 is
        #: refused *before* any engine work, so nothing was charged.
        self.retry_rate_limited = int(retry_rate_limited)
        self.max_retry_after = float(max_retry_after)
        #: When true (the default), every submission carries a
        #: client-minted trace id as the payload's optional ``"trace"``
        #: field; the server adopts it as the request's trace id, so the
        #: id in :attr:`last_trace_id` finds the server-side span tree
        #: in ``GET /v1/trace``.  Old servers ignore the field.
        self.trace_requests = bool(trace_requests)
        #: Trace id sent with the most recent submission (``None`` until
        #: the first, or when ``trace_requests`` is off).
        self.last_trace_id: str | None = None
        self._trace_prefix = os.urandom(4).hex()
        self._trace_ids = itertools.count(1)
        #: ``Host`` and the fixed request headers.  Offering gzip is
        #: protocol v2; v1 servers ignore the header and answer
        #: identity-encoded, so the offer is always safe to make.
        self._headers = [
            ("Host", f"[{host}]:{port}" if ":" in host else f"{host}:{port}"),
            ("Accept-Encoding", "gzip"),
            ("Content-Type", "application/json")]
        self._sock: socket.socket | None = None
        self._reader = None  # the socket's one buffered reader

    # -- transport -------------------------------------------------------------
    def _connection(self) -> socket.socket:
        """The persistent socket, (re)connected when there is none or the
        server closed it while it sat idle: a reused connection that is
        *readable* before we sent anything has an EOF (the daemon's
        keep-alive timeout) waiting, so it is replaced here rather than
        discovered after a submission has gone out on it."""
        if self._sock is not None:
            if not select.select([self._sock], [], [], 0)[0]:
                return self._sock
            self.close()
        sock = socket.create_connection((self._host, self._port),
                                        timeout=self._timeout)
        try:
            # Request/response ping-pong over keep-alive: without
            # TCP_NODELAY, Nagle + delayed ACK costs ~40ms a round trip.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls_context is not None:
                sock = self._tls_context.wrap_socket(
                    sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        self._sock, self._reader = sock, sock.makefile("rb")
        return sock

    def close(self) -> None:
        """Drop the underlying connection (sessions stay open server-side)."""
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> "RemoteAnalyst":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> dict:
        budget = self.retry_rate_limited
        while True:
            try:
                return self._request_once(method, path, payload)
            except RateLimited as exc:
                if budget <= 0:
                    raise
                budget -= 1
                pause = exc.retry_after if exc.retry_after is not None \
                    else 0.05
                time.sleep(min(max(0.0, pause), self.max_retry_after))

    def _exchange(self, method: str, path: str,
                  body: bytes = b"") -> tuple[int, dict, bytes]:
        """One request, head and body in one ``sendall``, and its reply as
        ``(status, headers, identity-encoded body)``."""
        message = framing.format_head(
            f"{method} {path} HTTP/1.1",
            self._headers + [("Content-Length", len(body))]) + body
        for attempt in (1, 2):  # one transparent reconnect on a dead socket
            sock = self._connection()
            try:
                sock.sendall(message)
            except OSError as exc:
                # Send-phase failure: the server never saw a complete
                # request, so a retry is safe for any method.
                self.close()
                if attempt == 2:
                    raise RemoteError(
                        f"{method} {path} failed: {exc}") from exc
                continue
            try:
                status, headers = framing.read_response_head(self._reader)
                # No Content-Length: the body runs to EOF (read(-1)).
                length = int(headers.get("content-length", -1))
                raw = self._reader.read(length)
                if len(raw) < length:
                    raise ConnectionError("connection closed mid-body")
                break
            except (OSError, ValueError, framing.FramingError) as exc:
                # Receive-phase failure: the request may already have been
                # *processed* (budget charged) even though the reply was
                # lost.  Retrying a submission would double-charge epsilon,
                # so only idempotent reads reconnect transparently.
                self.close()
                if method != "GET" or attempt == 2:
                    raise RemoteError(
                        f"{method} {path} failed after the request was "
                        f"sent: {exc}") from exc
        if length < 0 or "close" in headers.get("connection", "").lower():
            self.close()
        return status, headers, _inflate(status, headers, raw,
                                         f"{method} {path}")

    def _request_once(self, method: str, path: str,
                      payload: dict | None = None) -> dict:
        status, headers, raw = self._exchange(
            method, path,
            b"" if payload is None else json.dumps(payload).encode("utf-8"))
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RemoteError(f"{method} {path}: server sent a non-JSON "
                              f"body ({exc})", status=status) from None
        if not isinstance(decoded, dict):
            raise RemoteError(f"{method} {path}: server sent a non-object "
                              f"body", status=status)
        if status >= 400:
            retry_after = _parse_retry_after(
                headers.get("retry-after"), decoded)
            self._raise_for(status, decoded, f"{method} {path}",
                            retry_after)
        return decoded

    @staticmethod
    def _raise_for(status: int, payload: dict, context: str,
                   retry_after: float | None = None) -> None:
        try:
            message, kind = decode_error(payload)
        except WireFormatError:
            message, kind = str(payload), "internal"
        if kind == "service_closed":
            raise ServiceClosed(message)
        if kind == "session_closed":
            raise SessionClosed(message)
        if kind == "rate_limited" or status == 429:
            raise RateLimited(f"{context}: {message}",
                              retry_after=retry_after)
        if status == 401:
            raise UnknownAnalyst(message)
        raise RemoteError(f"{context}: {message}", status=status, kind=kind)

    # -- the session API -------------------------------------------------------
    def open_session(self) -> RemoteSession:
        """Open a server-side session for this client's token."""
        reply = self._request("POST", "/v1/sessions", {"token": self.token})
        return RemoteSession(int(reply["session_id"]), str(reply["analyst"]))

    def close_session(self, session: RemoteSession | int) -> None:
        self._request("DELETE", f"/v1/sessions/{_session_id(session)}")

    def _new_trace_id(self) -> str | None:
        """Mint (and remember) the trace id for one submission; ``None``
        when request tracing is disabled client-side."""
        if not self.trace_requests:
            self.last_trace_id = None
            return None
        self.last_trace_id = \
            f"c-{self._trace_prefix}-{next(self._trace_ids):08x}"
        return self.last_trace_id

    def submit(self, session: RemoteSession | int,
               sql: str | SelectStatement,
               accuracy: float | None = None,
               epsilon: float | None = None) -> QueryResponse:
        """Answer one query; query-level failures land in the response."""
        payload = encode_request(QueryRequest(sql, accuracy=accuracy,
                                              epsilon=epsilon))
        trace_id = self._new_trace_id()
        if trace_id is not None:
            payload["trace"] = trace_id
        reply = self._request(
            "POST", f"/v1/sessions/{_session_id(session)}/query", payload)
        return decode_response(reply)

    def submit_batch(self, session: RemoteSession | int,
                     requests: Sequence[QueryRequest | str]
                     ) -> list[QueryResponse]:
        """Answer a batch through the server-side planner."""
        encoded = [encode_request(r if isinstance(r, QueryRequest)
                                  else QueryRequest(r)) for r in requests]
        body = {"requests": encoded}
        trace_id = self._new_trace_id()
        if trace_id is not None:
            body["trace"] = trace_id
        reply = self._request(
            "POST", f"/v1/sessions/{_session_id(session)}/batch",
            body)
        raw = reply.get("responses")
        if not isinstance(raw, list):
            raise RemoteError("batch reply missing 'responses' list")
        return [decode_response(entry) for entry in raw]

    # -- observability ---------------------------------------------------------
    def snapshot(self) -> dict:
        """The server's ``QueryService.snapshot()``, verbatim."""
        return self._request("GET", "/v1/snapshot")

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def traces(self) -> dict:
        """The server's ``GET /v1/trace`` body: tracer counters plus the
        ring of recently finished traces, newest first."""
        return self._request("GET", "/v1/trace")

    def metrics_text(self) -> str:
        """The server's ``/v1/metrics`` Prometheus text, verbatim."""
        status, _, raw = self._exchange("GET", "/v1/metrics")
        if status != 200:
            raise RemoteError(f"GET /v1/metrics returned {status}",
                              status=status)
        return raw.decode("utf-8")


def _session_id(session: RemoteSession | int) -> int:
    return session.session_id if isinstance(session, RemoteSession) \
        else int(session)


def _parse_retry_after(header: str | None, payload: dict) -> float | None:
    """Seconds from the ``Retry-After`` header, falling back to the
    envelope's ``retry_after`` field; ``None`` when absent/garbled."""
    for candidate in (header, payload.get("retry_after")):
        if candidate is None or isinstance(candidate, bool):
            continue
        try:
            return max(0.0, float(candidate))
        except (TypeError, ValueError):
            continue
    return None


__all__ = ["DEFAULT_TIMEOUT", "RateLimited", "RemoteAnalyst",
           "RemoteError", "RemoteSession"]
