"""The HTTP daemon: a stdlib-only network front-end over ``QueryService``.

:class:`ReproServer` listens on one TCP socket and serves each accepted
connection from its own thread, in one plain keep-alive loop (each
request runs on that thread from decode to encode), and exposes the
protocol-v3 resource tree::

    GET    /v1/health                  liveness + protocol + stats summary
    GET    /v1/snapshot                QueryService.snapshot() verbatim
    GET    /v1/metrics                 Prometheus text exposition
    GET    /v1/audit                   budget-audit timeline + forecasts
    POST   /v1/sessions                {"token": ...} -> open a session
    DELETE /v1/sessions/<id>           close a session (idempotent)
    POST   /v1/sessions/<id>/query     one encoded QueryRequest
    POST   /v1/sessions/<id>/batch     {"requests": [QueryRequest, ...]}

Authentication is the paper's trust model in miniature: the server is
configured with an ``auth token -> analyst`` table and each opened
session is bound to the analyst its token names — analysts never name
themselves on the wire.  Every request on a session route carries the
token again as ``Authorization: Bearer <token>`` and is refused before
admission, the drain gate or any engine work unless the token names the
session's analyst (401 for a missing or unknown token, the unknown-id 404
for another analyst's session), so one analyst cannot submit (and spend)
as another, nor close another's session.  :meth:`ReproServer.handle`, the
in-process entry, is not authenticated.  Query-level outcomes
(rejections, unanswerable queries) stay HTTP 200 — they are payload,
carried in the response envelope exactly as the in-process API returns
them.  Transport-level failures map onto status codes via the
envelope's ``kind`` tag: 400 malformed, 401 missing or unknown token, 404
unknown session, 409 closed service/session, 429 rate limited, 503
draining.

Overload defenses (all opt-in by constructor/CLI flags):

* **Admission control** — a per-analyst token bucket (``rate_limit``
  queries/sec, ``rate_burst`` burst) refuses excess submissions with
  ``429`` + a ``Retry-After`` header *before* any engine work, so a
  flooding analyst costs one dict lookup per rejected request and
  cannot starve the others.
* **Slow-client robustness** — connection sockets carry a
  ``request_timeout`` (TLS handshake, head, body and keep-alive idle
  time) and request bodies a ``max_body_bytes`` cap: an oversized body
  is refused with ``413`` before it is read, a stalled body read times
  out with ``408``, so a hung client can never pin a connection thread
  past the timeout or block :meth:`ReproServer.shutdown`.

Framing is hand-rolled HTTP/1.1 (:mod:`repro.server.framing`, shared with
the client): the connection loop reads each head into a lower-cased dict
under the stdlib's limits (64 KiB per line -> 414/431, 100 headers ->
431, ``HTTP/1.0``/``1.1`` only -> 505, a method other than ``GET``,
``POST`` or ``DELETE`` -> 501) and writes every response, on every route
and status, as head + body in **one** ``sendall``.  Bodies are delimited
by ``Content-Length`` alone: any ``Transfer-Encoding``, two
``Content-Length`` values that disagree, a non-integer one, or a
malformed header line is a tagged 400 on a connection that is then
closed, so no byte of a refused message is ever parsed as the next
request.  ``Connection: close``, HTTP/1.0 close-by-default, ``Expect:
100-continue``, pipelining and two-write clients (``http.client``,
``urllib``) are served.

TLS termination is stdlib ``ssl``: ``tls_cert``/``tls_key`` (both or
neither — ``repro serve --tls-cert/--tls-key``) load a server-side
:class:`ssl.SSLContext`; each connection is handshaken on its own thread
under ``request_timeout``, and :attr:`url` flips to ``https://``.  The
client side lives in
:class:`repro.client.remote.RemoteAnalyst`, which accepts ``https://``
URLs plus an optional private CA bundle.

Graceful shutdown (:meth:`ReproServer.shutdown`) flips the server into
*draining*: new sessions and new submissions are refused with 503 while
every in-flight request — notably long batched submissions — runs to
completion; only then does the listener stop and the wrapped service
close.  SIGTERM wiring lives in the CLI (``python -m repro serve``).
"""

from __future__ import annotations

import gzip
import json
import os
import re
import selectors
import socket
import ssl
import stat
import sys
import threading
import time
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from pathlib import Path
from typing import Callable, Mapping
from urllib.parse import unquote

from repro.exceptions import ClosedError, ReproError, UnknownAnalyst
from repro.metrics import tracing
from repro.metrics.telemetry import TelemetryRegistry
from repro.server import framing
from repro.server.protocol import (
    PROTOCOL_VERSION,
    WireFormatError,
    decode_request,
    encode_error,
    encode_response,
    finite_or_none,
    json_ready,
)
from repro.service.service import QueryService

#: How long :meth:`ReproServer.shutdown` waits for in-flight requests by
#: default before giving up (seconds).
DEFAULT_DRAIN_TIMEOUT = 30.0

#: How long shutdown waits (after the drain) for an in-flight background
#: checkpoint fold before abandoning it (seconds).
CHECKPOINT_ABANDON_TIMEOUT = 5.0

#: Per-connection socket timeout (seconds): bounds the header read, the
#: body read, and keep-alive idle time.  A client that stalls mid-body
#: gets a 408 and its connection thread back within this bound.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Largest accepted request body.  Generous for big batches (a 1000-query
#: batch is ~100 KiB) while refusing a Content-Length designed to pin
#: memory or a connection thread.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Smallest response body worth gzip-compressing when the client's
#: ``Accept-Encoding`` admits gzip (see :func:`_accepts_gzip`).  A body
#: that fits in TCP's initial window (about 14 KB) arrives in one round
#: trip either way, so compressing it only costs both ends CPU; above
#: it — large batches, metrics scrapes — JSON compresses ~5-10x.
GZIP_MIN_BYTES = 16 * 1024

#: The methods a route exists for; any other is a 501.
_METHODS = frozenset(("GET", "POST", "DELETE"))

#: ``HTTP/1.1 <status> <phrase>`` lines, built once.
_STATUS_LINES = {status.value: f"HTTP/1.1 {status.value} {status.phrase}"
                 f"\r\n".encode("latin-1") for status in HTTPStatus}

_JSON = b"Content-Type: application/json\r\n"
_METRICS_TEXT = b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
_GZIPPED = b"Content-Encoding: gzip\r\n"

#: A session route.  An id has at most 18 digits: no service issues a
#: longer one, and ``int()`` refuses over 4300 digits, so a longer id is
#: the 400 of a path with no route rather than an error in a route.
_SESSION_PATH = re.compile(r"^/v1/sessions/(\d{1,18})(?:/(query|batch))?$")

#: A client-propagated trace id the daemon adopts: 1-128 letters, digits
#: and ``._:-``.  Any other id — oversized, control characters,
#: non-ASCII — counts as absent: it would otherwise sit in the tracer
#: ring, be echoed in every ``lineage.trace_id`` and land verbatim in
#: the ``--log-json`` line.
_TRACE_ID = re.compile(r"[A-Za-z0-9._:-]{1,128}")


def load_token_table(path: str | Path) -> dict[str, str]:
    """Load a ``{"token": "analyst", ...}`` table from a JSON file.

    Tokens are credentials: a file readable by other users leaks every
    analyst's identity to anyone on the host, so a world-readable file
    (any ``o+rwx`` bit) is rejected outright with the fix spelled out —
    tighten the mode, don't weaken the check.  The table must be a
    non-empty JSON object of string -> string; analyst names are
    validated against the engine roster by :class:`ReproServer`.
    """
    path = Path(path)
    try:
        mode = os.stat(path).st_mode
    except OSError as exc:
        raise ReproError(f"cannot read token file {path}: {exc}") from None
    if mode & (stat.S_IROTH | stat.S_IWOTH | stat.S_IXOTH):
        raise ReproError(
            f"token file {path} is world-readable (mode "
            f"{stat.S_IMODE(mode):04o}); tokens are credentials — "
            f"run `chmod 600 {path}` and retry")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"token file {path} is not valid JSON: {exc}") \
            from None
    if not isinstance(payload, dict) or not payload:
        raise ReproError(f"token file {path} must be a non-empty JSON "
                         f"object mapping token -> analyst")
    for token, analyst in payload.items():
        if not isinstance(analyst, str) or not isinstance(token, str) \
                or not token or not analyst:
            raise ReproError(
                f"token file {path}: entries must map non-empty token "
                f"strings to analyst names (got {token!r}: {analyst!r})")
    return dict(payload)


class DrainTimeout(ReproError):
    """Graceful shutdown gave up waiting for in-flight requests."""


class _Gate:
    """Counts in-flight requests and refuses new ones once draining."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._in_flight = 0
        self._draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def try_enter(self) -> bool:
        """Claim an in-flight slot; ``False`` once draining started."""
        with self._lock:
            if self._draining:
                return False
            self._in_flight += 1
            return True

    def leave(self) -> None:
        with self._idle:
            self._in_flight -= 1
            if self._in_flight == 0 and self._draining:
                self._idle.notify_all()

    def drain(self, timeout: float) -> bool:
        """Stop admitting work and wait for the in-flight count to hit 0."""
        with self._idle:
            self._draining = True
            return self._idle.wait_for(lambda: self._in_flight == 0,
                                       timeout=timeout)


class _RateLimiter:
    """Per-analyst token buckets behind one small lock.

    Buckets refill continuously at ``rate`` tokens/sec up to ``burst``.
    :meth:`try_admit` is the whole hot path of a 429: one monotonic
    clock read and a dict update — deliberately cheaper than parsing
    the query it refuses, so overload rejection itself cannot overload.
    """

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._lock = threading.Lock()
        #: analyst -> [tokens, last_refill_monotonic]
        self._buckets: dict[str, list[float]] = {}

    def try_admit(self, analyst: str, cost: float = 1.0) -> float:
        """Admit ``cost`` tokens for ``analyst``; returns 0.0 when
        admitted, else the seconds until enough tokens accrue
        (the ``Retry-After`` value).  A cost above the burst is clamped
        to it so oversized batches remain admissible — they drain the
        bucket to zero instead of being refused forever."""
        cost = min(float(cost), self.burst)
        now = time.monotonic()
        with self._lock:
            bucket = self._buckets.get(analyst)
            if bucket is None:
                bucket = self._buckets[analyst] = [self.burst, now]
            tokens = min(self.burst,
                         bucket[0] + (now - bucket[1]) * self.rate)
            bucket[1] = now
            if tokens >= cost:
                bucket[0] = tokens - cost
                return 0.0
            bucket[0] = tokens
            return (cost - tokens) / self.rate


@lru_cache(maxsize=2)
def _server_and_date(second: int) -> bytes:
    """The ``Server`` and ``Date`` lines, formatted once per second."""
    return (f"Server: repro-serve/{PROTOCOL_VERSION}\r\n"
            f"Date: {formatdate(second, usegmt=True)}\r\n").encode()


def _json_finite(forecast: dict) -> dict:
    """Strict-JSON coercion for forecasts: ``inf`` (idle) -> ``None``."""
    return {key: finite_or_none(value) for key, value in forecast.items()}


def _accepts_gzip(header: str) -> bool:
    """Whether an ``Accept-Encoding`` value admits gzip: its ``gzip`` (or
    ``x-gzip``) entry, failing that its ``*`` entry, has a non-zero
    q-value.  ``q=0`` means "not acceptable" (RFC 9110 §12.5.3); an
    unparseable q-value counts as 0, since identity is always safe."""
    wildcard = False
    for entry in header.split(","):
        coding, _, params = entry.partition(";")
        coding = coding.strip().lower()
        if coding not in ("gzip", "x-gzip", "*"):
            continue
        quality = 1.0
        for param in params.split(";"):
            name, _, value = param.partition("=")
            if name.strip().lower() == "q":
                try:
                    quality = float(value)
                except ValueError:
                    quality = 0.0
        if coding != "*":
            return quality > 0.0
        wildcard = quality > 0.0
    return wildcard


def _query_int(query: str, name: str, default: int | None) -> int | None:
    """The digits of ``name=`` in a query string, or ``default``.  A digit
    run past Python's int-string limit is a 400, never a 500."""
    match = re.search(rf"(?:^|&){name}=(\d+)", query)
    if match is None:
        return default
    try:
        return int(match.group(1))
    except ValueError:
        raise WireFormatError(
            f"query parameter {name!r} is out of range") from None


_FIXED_ROUTES = frozenset(("/v1/health", "/v1/snapshot", "/v1/metrics",
                           "/v1/trace", "/v1/audit", "/v1/sessions"))


def _route_label(method: str, path: str, match: re.Match | None) -> str:
    """Bounded-cardinality route label for the request metrics; ``path``
    carries no query string and ``match`` is its ``_SESSION_PATH`` match."""
    if match is not None:
        action = match.group(2)
        suffix = f"/{action}" if action else ""
        return f"{method} /v1/sessions/{{id}}{suffix}"
    if path in _FIXED_ROUTES:
        return f"{method} {path}"
    return "other"


class ReproServer:
    """Serve one :class:`QueryService` over HTTP.

    ``tokens`` maps auth tokens onto registered analyst names; when
    omitted, each analyst's token is its own name (demo-grade — supply a
    real table in anything resembling production).  ``port=0`` binds an
    ephemeral port, readable from :attr:`port` after construction.

    ``rate_limit`` (queries/sec per analyst, ``rate_burst`` burst)
    enables 429 admission control.  ``request_timeout``/``max_body_bytes``
    bound what one connection can cost (408 on stall, 413 on overflow).
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0,
                 tokens: Mapping[str, str] | None = None,
                 checkpoint_every: float | None = None,
                 rate_limit: float | None = None,
                 rate_burst: float | None = None,
                 request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 tls_cert: str | Path | None = None,
                 tls_key: str | Path | None = None,
                 telemetry: TelemetryRegistry | None = None,
                 log_json: bool = False) -> None:
        if tokens is None:
            tokens = {name: name for name in service.engine.analysts}
        unknown = sorted(set(tokens.values())
                         - set(service.engine.analysts))
        if unknown:
            raise ReproError(f"auth table names unregistered analysts: "
                             f"{', '.join(unknown)}")
        if checkpoint_every is not None:
            if service.durability is None:
                raise ReproError(
                    "checkpoint_every requires a durable service (build "
                    "it with durability=, i.e. `repro serve --data-dir`)")
            if checkpoint_every <= 0:
                raise ReproError(f"checkpoint_every must be positive, "
                                 f"got {checkpoint_every}")
        if rate_limit is not None and rate_limit <= 0:
            raise ReproError(f"rate_limit must be positive queries/sec, "
                             f"got {rate_limit}")
        if rate_burst is not None:
            if rate_limit is None:
                raise ReproError("rate_burst requires rate_limit")
            if rate_burst < 1:
                raise ReproError(f"rate_burst must be >= 1, "
                                 f"got {rate_burst}")
        if request_timeout is not None and request_timeout <= 0:
            raise ReproError(f"request_timeout must be positive seconds, "
                             f"got {request_timeout}")
        if max_body_bytes < 1:
            raise ReproError(f"max_body_bytes must be >= 1, "
                             f"got {max_body_bytes}")
        if (tls_cert is None) != (tls_key is None):
            raise ReproError("TLS needs both --tls-cert and --tls-key "
                             "(or neither)")
        tls_context = None
        if tls_cert is not None:
            tls_context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            tls_context.minimum_version = ssl.TLSVersion.TLSv1_2
            try:
                tls_context.load_cert_chain(certfile=str(tls_cert),
                                            keyfile=str(tls_key))
            except (OSError, ssl.SSLError) as exc:
                raise ReproError(
                    f"cannot load TLS certificate/key "
                    f"({tls_cert}, {tls_key}): {exc}") from None
        self.service = service
        self.tokens = dict(tokens)
        #: Background checkpoint cadence in seconds (``None`` = only at
        #: drain).  Without it a long-lived daemon replays an ever-
        #: growing ledger tail on its next boot; with it the write-ahead
        #: ledger is folded into the checkpoint every interval
        #: (``QueryService.checkpoint`` is safe while serving and never
        #: under-counts).
        self.checkpoint_every = checkpoint_every
        self.checkpoints_written = 0
        self.checkpoint_failures = 0
        #: Set when shutdown had to abandon a checkpoint fold that was
        #: still blocked on I/O after the drain: the fold's lock is
        #: still held, so callers (the CLI's drain-time checkpoint)
        #: must NOT attempt another fold — the ledger holds every
        #: charge and the next boot replays it.
        self.checkpoint_abandoned = False
        self._checkpoint_stop = threading.Event()
        self._checkpoint_thread: threading.Thread | None = None
        self._gate = _Gate()
        self._started = time.monotonic()
        #: ``serve --log-json``: one structured access-log line per
        #: request to stderr (route, status, latency, analyst, trace id)
        #: — machine-grep-able and correlated with ``/v1/trace`` by the
        #: trace id.  Off by default: the human format (silence) is
        #: unchanged, and the hot path pays nothing when disabled.
        self.log_json = bool(log_json)
        #: The access-log line's analyst and trace id (``log_json`` only).
        self._log_local = threading.local()
        self.request_timeout = request_timeout
        self.max_body_bytes = int(max_body_bytes)
        self._limiter = (_RateLimiter(rate_limit,
                                      rate_burst if rate_burst is not None
                                      else max(1.0, rate_limit))
                         if rate_limit is not None else None)
        self.telemetry = telemetry if telemetry is not None \
            else TelemetryRegistry()
        self._bind_telemetry()
        self._tls_context = tls_context
        self._listener = socket.create_server((host, port))
        self._address = self._listener.getsockname()[:2]
        self._thread: threading.Thread | None = None

    def _bind_telemetry(self) -> None:
        registry = self.telemetry
        self._m_requests = registry.counter(
            "repro_requests_total", "HTTP requests received, per route")
        self._m_responses = registry.counter(
            "repro_responses_total", "HTTP responses sent, per status")
        #: Bound on first use per route label (count, observe latency)
        #: and per status (count), so a request sorts no labels.
        self._route_metrics: dict[str, tuple[Callable, Callable]] = {}
        self._status_metrics: dict[int, Callable] = {}
        self._m_rate_limited = registry.counter(
            "repro_rate_limited_total",
            "Submissions refused by admission control (429), per analyst")
        self._m_latency = registry.histogram(
            "repro_request_seconds", "Request handling latency per route")
        registry.gauge("repro_in_flight_requests",
                       "Requests currently inside the drain gate",
                       lambda: self._gate.in_flight)
        registry.gauge("repro_uptime_seconds",
                       "Seconds since the server object was constructed",
                       lambda: time.monotonic() - self._started)
        registry.gauge("repro_draining",
                       "1 once graceful shutdown has begun",
                       lambda: 1.0 if self._gate.draining else 0.0)
        self.service.bind_telemetry(registry)

    # -- lifecycle -------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        return self._address[1]

    @property
    def tls(self) -> bool:
        """Whether the listener terminates TLS."""
        return self._tls_context is not None

    @property
    def url(self) -> str:
        scheme = "https" if self.tls else "http"
        return f"{scheme}://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._gate.draining

    def start(self) -> "ReproServer":
        """Serve on a background thread; returns ``self`` for chaining."""
        if self._thread is not None:
            raise ReproError("server already started")
        #: Written to by shutdown to wake the accept loop at once.
        self._wakeup = socket.socketpair()
        self._thread = threading.Thread(target=self._serve,
                                        name="repro-server", daemon=True)
        self._thread.start()
        if self.checkpoint_every is not None:
            self._checkpoint_thread = threading.Thread(
                target=self._checkpoint_loop, name="repro-checkpoint",
                daemon=True)
            self._checkpoint_thread.start()
        return self

    def _checkpoint_loop(self) -> None:
        """Fold the ledger into a checkpoint every ``checkpoint_every``
        seconds until shutdown.  A failed fold (disk full, transient I/O)
        is reported and retried next interval — serving never stops for
        it, and the ledger it failed to compact still holds every
        charge."""
        while not self._checkpoint_stop.wait(self.checkpoint_every):
            try:
                self.service.checkpoint()
                self.checkpoints_written += 1
            except Exception as exc:
                self.checkpoint_failures += 1
                print(f"repro serve: background checkpoint failed: {exc}",
                      file=sys.stderr, flush=True)

    def shutdown(self, drain_timeout: float = DEFAULT_DRAIN_TIMEOUT) -> None:
        """Graceful stop: refuse new work, drain in-flight requests, stop
        the listener, close the service.  Idempotent; raises
        :class:`DrainTimeout` (after stopping anyway) if in-flight work
        outlived ``drain_timeout``."""
        # Signal the checkpoint timer first, but join it only *after*
        # the drain: a fold in flight is safe alongside serving, the
        # drain window doubles as its grace period, and shutdown stays
        # bounded by one drain_timeout, not two.
        self._checkpoint_stop.set()
        drained = self._gate.drain(drain_timeout)
        if self._thread is not None:
            self._wakeup[1].send(b"\0")
            self._thread.join()
            self._thread = None
            for end in self._wakeup:
                end.close()
        # Open connections keep their threads: each answers its next
        # request with the drain's 503 or the closed service's 409.
        self._listener.close()
        if self._checkpoint_thread is not None:
            # Bounded join before the service closes (the fold must not
            # race the ledger writer's close).  A fold still blocked on
            # dead storage is abandoned: the thread is a daemon so it
            # cannot hold the process open, the ledger it failed to
            # compact holds every charge, and `checkpoint_abandoned`
            # tells the CLI to skip its drain-time fold — the fold's
            # lock is still held, so another attempt would hang forever.
            self._checkpoint_thread.join(timeout=CHECKPOINT_ABANDON_TIMEOUT)
            if self._checkpoint_thread.is_alive():
                self.checkpoint_abandoned = True
                print("repro serve: background checkpoint still blocked "
                      "on I/O after the drain; abandoning it (the ledger "
                      "is intact, the next boot replays it)",
                      file=sys.stderr, flush=True)
                # The wedged fold holds the ledger writer's lock, so
                # DurabilityManager.close() would block on it forever —
                # detach it instead of closing it.  Safe: the drain is
                # complete (no more charges to journal), the on-disk
                # ledger is valid up to its last completed write
                # (recovery handles a torn tail), and the data-dir lock
                # releases with the process.
                self.service.durability = None
            self._checkpoint_thread = None
        self.service.close()
        if not drained:
            raise DrainTimeout(
                f"{self._gate.in_flight} request(s) still in flight after "
                f"{drain_timeout:.1f}s drain")

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- request handling (called from connection threads) --------------------
    def handle(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        """Route one request; returns ``(status, json_body)``."""
        path, _, query = path.partition("?")
        return self._handle(method, path, query, _SESSION_PATH.match(path),
                            body)

    def _handle(self, method: str, path: str, query: str,
                match: re.Match | None, body: bytes,
                body_read: tuple | None = None) -> tuple[int, dict]:
        """:meth:`handle` on an already split path and its one
        ``_SESSION_PATH`` match (the connection loop shares both with its
        route label); ``body_read`` is the body's read window."""
        try:
            return self._route(method, path, query, match, body, body_read)
        except WireFormatError as exc:
            return 400, encode_error(str(exc), "bad_request")
        except UnknownAnalyst as exc:
            return 401, encode_error(str(exc), "unauthorized")
        except ClosedError as exc:
            # ServiceClosed / SessionClosed: the tagged 409 conditions.
            return 409, encode_error(str(exc), exc.tag)
        except ReproError as exc:
            if "no open session" in str(exc):
                return 404, encode_error(str(exc), "not_found")
            return 500, encode_error(str(exc), "internal")
        except Exception as exc:  # never leak a traceback onto the wire
            return 500, encode_error(f"{type(exc).__name__}: {exc}",
                                     "internal")

    def render_metrics(self) -> str:
        """The ``/v1/metrics`` body (Prometheus text exposition)."""
        return self.telemetry.render()

    def _route(self, method: str, path: str, query: str,
               match: re.Match | None, body: bytes,
               body_read: tuple | None) -> tuple[int, dict]:
        if method == "GET" and path == "/v1/health":
            return 200, self._health()
        if method == "GET" and path == "/v1/snapshot":
            return 200, json_ready(self.service.snapshot())
        if method == "GET" and path == "/v1/trace":
            tracer = self.service.tracer
            traces = tracer.recent(_query_int(query, "limit", None))
            return 200, {"protocol": PROTOCOL_VERSION,
                         "tracing": tracer.counters(),
                         "traces": json_ready(traces)}
        if method == "GET" and path == "/v1/audit":
            return 200, self._audit(query)
        if method == "POST" and path == "/v1/sessions":
            return self._open_session(self._json(body))
        if match is not None:
            session_id, action = int(match.group(1)), match.group(2)
            if method == "DELETE" and action is None:
                closed = self.service.close_session(session_id)
                self._note_analyst(closed.analyst)
                return 200, {"protocol": PROTOCOL_VERSION,
                             "session_id": closed.session_id,
                             "closed": True}
            if method == "POST" and action == "query":
                return self._submit(session_id, self._json(body),
                                    body_read)
            if method == "POST" and action == "batch":
                return self._submit_batch(session_id, self._json(body),
                                          body_read)
        raise WireFormatError(f"no route for {method} {path}")

    @staticmethod
    def _json(body: bytes) -> dict:
        try:
            payload = json.loads(body or b"{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireFormatError(f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise WireFormatError("body must be a JSON object")
        return payload

    def _health(self) -> dict:
        snapshot = self.service.snapshot()
        payload = {
            "protocol": PROTOCOL_VERSION,
            "status": "draining" if self._gate.draining else "ok",
            "uptime_seconds": time.monotonic() - self._started,
            "open_sessions": snapshot["open_sessions"],
            "in_flight": self._gate.in_flight,
            "submitted": snapshot["service"]["submitted"],
            "answered": snapshot["service"]["answered"],
            "rate_limited": int(self._m_rate_limited.total()),
        }
        if self.checkpoint_every is not None:
            payload["checkpoints_written"] = self.checkpoints_written
            payload["checkpoint_failures"] = self.checkpoint_failures
        return payload

    def _audit(self, query: str) -> dict:
        """``GET /v1/audit``: the live trail's event pages + forecasts.

        Served from RAM (the daemon holds the data-dir flock, so an
        offline fold against its directory uses the lockless fallback).
        ``?analyst=`` filters, ``?since_seq=`` pages on the trail-local
        ``audit_seq`` cursor, ``?limit=`` caps the page; the response's
        ``next_since_seq`` continues the walk.  Non-finite forecasts
        (idle analysts) ship as ``null`` — strict JSON has no ``inf``.
        """
        trail = self.service.audit
        if trail is None:
            return {"protocol": PROTOCOL_VERSION,
                    "audit": {"enabled": False}, "events": []}
        analyst = None
        match = re.search(r"(?:^|&)analyst=([^&]*)", query)
        if match is not None:
            analyst = unquote(match.group(1))
        since_seq = _query_int(query, "since_seq", 0)
        limit = _query_int(query, "limit", 256)
        events = trail.events(analyst=analyst, since_seq=since_seq,
                              limit=limit)
        payload = {
            "protocol": PROTOCOL_VERSION,
            "audit": trail.describe(),
            "events": json_ready(events),
            "next_since_seq": (events[-1]["audit_seq"] if events
                               else since_seq),
            "burn_rates": {f"{window:g}": trail.burn_rates(window)
                           for window in trail.windows},
            "exhaustion": _json_finite(trail.exhaustion()),
            "table_exhaustion": finite_or_none(trail.table_exhaustion()),
            "group_exhaustion": _json_finite(trail.group_exhaustion()),
        }
        if analyst is not None:
            payload["analyst"] = analyst
        return payload

    def _note_analyst(self, analyst: str | None) -> None:
        """Note the acting analyst for this thread's access-log line."""
        if self.log_json:
            self._log_local.analyst = analyst

    def _note_session_analyst(self, session_id: int) -> None:
        if not self.log_json:
            return
        try:
            self._log_local.analyst = \
                self.service._resolve_session(session_id).analyst
        except ReproError:
            pass  # unknown/closed session: the route reports it precisely

    def _emit_access_log(self, method: str, path: str, route: str,
                         status: int, elapsed: float) -> None:
        """One JSON access-log line to stderr (``serve --log-json``)."""
        local = self._log_local
        record = {
            "ts": round(time.time(), 6),
            "method": method,
            "path": path.partition("?")[0],
            "route": route,
            "status": int(status),
            "latency_ms": round(elapsed * 1000.0, 3),
            "analyst": getattr(local, "analyst", None),
            "trace": getattr(local, "trace", None),
        }
        print(json.dumps(record), file=sys.stderr, flush=True)

    def _analyst_for(self, payload: dict) -> str:
        token = payload.get("token")
        if not isinstance(token, str):
            raise WireFormatError("'token' must be a string")
        try:
            return self.tokens[token]
        except KeyError:
            raise UnknownAnalyst("unknown auth token") from None

    def _authorize(self, session_id: int,
                   authorization: str) -> tuple[int, dict] | None:
        """Bind one session-route request to its caller; ``None`` admits.

        ``authorization`` is the request's ``Authorization`` header.  A
        missing or unknown bearer token is 401; a session another analyst
        owns gets the very 404 an id never issued gets, so a caller learns
        nothing about other analysts' sessions.
        """
        scheme, _, token = authorization.partition(" ")
        analyst = self.tokens.get(token) if scheme.lower() == "bearer" \
            else None
        if analyst is None:
            return 401, encode_error("missing or unknown bearer token",
                                     "unauthorized")
        if self.service.session_analyst(session_id) not in (None, analyst):
            return 404, encode_error(f"no open session {session_id}",
                                     "not_found")
        return None

    def _admit(self, session_id: int,
               cost: float) -> tuple[int, dict] | None:
        """Admission control for one submission; ``None`` admits.

        Runs *before* the drain gate and before any engine work.  An
        unknown or closed session skips straight through — the normal
        path reports those precisely, and they are not load.
        """
        if self._limiter is None:
            return None
        try:
            analyst = self.service._resolve_session(session_id).analyst
        except ReproError:
            return None
        retry_after = self._limiter.try_admit(analyst, cost)
        if retry_after <= 0.0:
            return None
        self._m_rate_limited.inc(analyst=analyst)
        payload = encode_error(
            f"analyst {analyst!r} is over its admission rate; retry in "
            f"{retry_after:.3f}s", "rate_limited")
        payload["retry_after"] = round(retry_after, 3)
        return 429, payload

    def _open_session(self, payload: dict) -> tuple[int, dict]:
        analyst = self._analyst_for(payload)
        self._note_analyst(analyst)
        if not self._gate.try_enter():
            return 503, encode_error("server is draining", "draining")
        try:
            session = self.service.open_session(analyst)
            return 200, {"protocol": PROTOCOL_VERSION,
                         "session_id": session.session_id,
                         "analyst": session.analyst}
        finally:
            self._gate.leave()

    def _submission(self, session_id: int, payload: dict,
                    body_read: tuple | None, route: str, cost: float,
                    work: Callable[[], tuple[int, dict]]
                    ) -> tuple[int, dict]:
        """Admission, the drain gate and ``work()`` for one submission,
        under the request's one sampling decision.

        A client's id rides as the payload's optional ``"trace"`` key
        (``decode_request`` ignores it) and is adopted, always traced,
        only if it matches ``_TRACE_ID``; any other request ticks the
        tracer's 1-in-N sampler here, once, and the service runs under
        this decision.  A kept trace adopts the body's read window.
        """
        self._note_session_analyst(session_id)
        trace_id = payload.get("trace")
        if not (isinstance(trace_id, str) and _TRACE_ID.fullmatch(trace_id)):
            trace_id = None
        trace = self.service.tracer.start(trace_id)
        if trace is None:
            return self._admitted(session_id, cost, work)
        if self.log_json:
            self._log_local.trace = trace.trace_id
        if body_read is not None:
            trace.add_span("read_body", body_read[0], body_read[1],
                           bytes=body_read[2])
        try:
            with tracing.activate(trace), \
                    tracing.span("server.request", route=route):
                return self._admitted(session_id, cost, work)
        finally:
            self.service.tracer.finish(trace)

    def _admitted(self, session_id: int, cost: float,
                  work: Callable[[], tuple[int, dict]]) -> tuple[int, dict]:
        refusal = self._admit(session_id, cost)
        if refusal is not None:
            tracing.event("rate_limited")
            return refusal
        if not self._gate.try_enter():
            return 503, encode_error("server is draining", "draining")
        try:
            return work()
        finally:
            self._gate.leave()

    def _submit(self, session_id: int, payload: dict,
                body_read: tuple | None = None) -> tuple[int, dict]:
        request = decode_request(payload)
        return self._submission(
            session_id, payload, body_read, "query", 1.0,
            lambda: (200, encode_response(
                self.service.submit_request(session_id, request))))

    def _submit_batch(self, session_id: int, payload: dict,
                      body_read: tuple | None = None) -> tuple[int, dict]:
        raw = payload.get("requests")
        if not isinstance(raw, list):
            raise WireFormatError("batch body needs a 'requests' list")
        requests = [decode_request(entry) for entry in raw]
        return self._submission(
            session_id, payload, body_read, "batch",
            float(max(1, len(requests))),
            lambda: (200, {"protocol": PROTOCOL_VERSION, "responses": [
                encode_response(response) for response in
                self.service.submit_batch_requests(session_id, requests)]}))

    # -- connections (each on its own thread) ---------------------------------
    def _accept(self) -> tuple[socket.socket, tuple]:
        """The next connection waiting on the listener."""
        return self._listener.accept()

    def _serve(self) -> None:
        """Accept, one thread per connection, until shutdown wakes us."""
        self._listener.setblocking(False)
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wakeup[0], selectors.EVENT_READ)
            while True:
                ready = [key.fileobj for key, _ in selector.select()]
                if self._wakeup[0] in ready:
                    return
                try:
                    sock, _ = self._accept()
                except OSError:  # the peer left first, or no fds left
                    continue
                try:
                    threading.Thread(target=self._serve_connection,
                                     args=(sock,), name="repro-connection",
                                     daemon=True).start()
                except Exception:  # no thread to spare: drop this one
                    sock.close()

    def _serve_connection(self, sock: socket.socket) -> None:
        """Serve one connection's requests until it closes, idles past
        ``request_timeout`` or is refused; TLS handshakes here too."""
        try:
            sock.settimeout(self.request_timeout)
            # Small requests and replies ping-pong over keep-alive:
            # Nagle + delayed ACK would add ~40 ms a round trip.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls_context is not None:
                sock = self._tls_context.wrap_socket(sock, server_side=True)
            heads: dict = {}  # this peer's heads parsed so far
            with sock.makefile("rb") as reader:
                while self._serve_request(sock, reader, heads):
                    pass
        except OSError:
            pass  # reset, timed out, or a failed handshake: nobody to tell
        finally:
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            sock.close()

    def _serve_request(self, sock: socket.socket, reader,
                       heads: dict) -> bool:
        """Read, answer and count one request (``heads`` is the
        connection's head memo); ``True`` keeps the connection for the
        next one."""
        try:
            head = framing.read_request_head(reader, heads)
            if head is not None and head[0] not in _METHODS:
                raise framing.FramingError(
                    501, f"Unsupported method ({head[0]!r})")
        except framing.FramingError as exc:
            self._refuse(sock, exc.status, str(exc))
            return False
        if head is None:
            return False
        method, target, version, headers = head
        connection = headers.get("connection", "").lower()
        close = "close" in connection or (
            version == "HTTP/1.0" and "keep-alive" not in connection)
        started = time.perf_counter()
        if self.log_json:
            self._log_local.analyst = self._log_local.trace = None
        path, _, query = target.partition("?")
        match = _SESSION_PATH.match(path)
        route = _route_label(method, path, match)
        metrics = self._route_metrics.get(route)
        if metrics is None:
            metrics = self._route_metrics[route] = (
                self._m_requests.bind(route=route),
                self._m_latency.bind(route=route))
        metrics[0]()
        status = 500
        try:
            body, body_read = self._read_body(sock, reader, headers)
            extra: tuple[bytes, ...] = ()
            if method == "GET" and target == "/v1/metrics":
                status, content_type = 200, _METRICS_TEXT
                data = self.render_metrics().encode("utf-8")
            else:
                refusal = None if match is None else self._authorize(
                    int(match.group(1)), headers.get("authorization", ""))
                status, payload = refusal or self._handle(
                    method, path, query, match, body, body_read)
                content_type = _JSON
                data = json.dumps(payload).encode("utf-8")
                if status == 429 and isinstance(
                        payload.get("retry_after"), (int, float)):
                    extra = (b"Retry-After: %.3f\r\n"
                             % payload["retry_after"],)
            if len(data) >= GZIP_MIN_BYTES and _accepts_gzip(
                    headers.get("accept-encoding", "")):
                # mtime=0 keeps the body deterministic (same answer, same
                # bytes) — useful for replay comparison and cache-friendly.
                data = gzip.compress(data, compresslevel=6, mtime=0)
                extra += (_GZIPPED,)
            self._send(sock, status, content_type, data, extra, close)
            return not close
        except framing.FramingError as exc:
            status = self._refuse(sock, exc.status, str(exc))
            return False
        finally:
            count = self._status_metrics.get(status)
            if count is None:
                count = self._status_metrics[status] = \
                    self._m_responses.bind(status=str(status))
            count()
            elapsed = time.perf_counter() - started
            metrics[1](elapsed)
            if self.log_json:
                self._emit_access_log(method, target, route, status,
                                      elapsed)

    def _read_body(self, sock: socket.socket, reader,
                   headers: dict) -> tuple[bytes, tuple | None]:
        """The body and its ``(start, end, bytes)`` read window, under the
        cap and the socket timeout; a refusal is a ``FramingError``."""
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise framing.FramingError(400, "Content-Length is not an "
                                            "integer")
        length = int(declared)
        if length > self.max_body_bytes:
            raise framing.FramingError(
                413, f"request body of {length} bytes exceeds the "
                     f"{self.max_body_bytes}-byte limit")
        if not length:
            return b"", None
        started = time.perf_counter()
        try:
            if headers.get("expect", "").lower() == "100-continue":
                sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = reader.read(length)
        except OSError:
            body = b""
        if len(body) < length:
            raise framing.FramingError(408, "request body stalled before "
                                            "Content-Length bytes arrived")
        return body, (started, time.perf_counter(), length)

    @staticmethod
    def _send(sock: socket.socket, status: int, content_type: bytes,
              data: bytes, extra: tuple[bytes, ...], close: bool) -> None:
        """The whole response — head and body — in one ``sendall``."""
        sock.sendall(b"".join((
            _STATUS_LINES.get(status) or b"HTTP/1.1 %d \r\n" % status,
            _server_and_date(int(time.time())), content_type, *extra,
            b"Content-Length: %d\r\n" % len(data),
            b"Connection: close\r\n\r\n" if close else b"\r\n", data)))

    def _refuse(self, sock: socket.socket, status: int, message: str) -> int:
        """One tagged error reply on a connection that is then closed;
        returns ``status``."""
        try:
            self._send(sock, status, _JSON, json.dumps(encode_error(
                message, "bad_request")).encode("utf-8"), (), True)
        except OSError:
            pass  # the peer is gone or stalled; nothing to salvage
        return status


__all__ = ["DEFAULT_DRAIN_TIMEOUT", "DEFAULT_MAX_BODY_BYTES",
           "DEFAULT_REQUEST_TIMEOUT", "DrainTimeout", "ReproServer",
           "load_token_table"]
